"""Config-driven experiment runner: `run`, `study` and `compare` subcommands.

Experiments are described by a single JSON document (``_SCHEMA`` lists
its keys; a malformed one is refused before any work) and produce
machine-readable artifacts in the output directory: a full JSON report,
a per-level CSV, and a cost-vs-tolerance CSV suitable for external
plotting.  All file writes are atomic
(write-then-rename) and nothing is written if a run fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .estimators import (
    EstimatorOptions,
    MaxLevelExceededError,
    MlqmcReport,
    adaptive_mlqmc,
    default_levels,
    largest_variance_per_work,
    mc_estimate,
    mlqmc_estimate,
    mlmc_estimate,
    qmc_single_level,
)
from .eigensolver import smallest_eigenpair_cold, two_grid_fine_update
from .mesh_fem import build_uniform_mesh, mass_interior, stiffness_interior
from .problems import make_problem
from .qmc import default_generating_vector, load_generating_vector

SEED_ENV = "MLQMC_EIG_SEED"
OUT_ENV = "MLQMC_EIG_OUT"

COST_CSV_COLUMNS = [
    "epsilon", "estimator", "cost_seconds", "total_solves", "estimate",
    "total_variance",
]
STUDY_CSV_COLUMNS = ["h", "lambda_h", "error_estimate"]

_ESTIMATORS = ("mlqmc", "mlmc", "qmc", "mc")


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string"}


def _as_kind(value, kind):
    """``value`` as the JSON type ``kind``, where a float also takes an
    integer (not a bool) and ``[t]`` is a list of t's; TypeError if not."""
    if isinstance(kind, list) and type(value) is list:
        return [_as_kind(v, kind[0]) for v in value]
    if type(value) is kind or (kind is float and type(value) is int):
        return float(value) if kind is float else value
    raise TypeError


@dataclass(frozen=True)
class _Key:
    """A config key ("section.key" in a section), the field it fills, its JSON
    type, its default and its domain: a test and the phrase that names it."""

    path: str
    field: str
    kind: object
    default: object
    domain: tuple = (lambda v: True, "any")

    def read(self, value):
        try:
            value = _as_kind(value, self.kind)
        except (TypeError, OverflowError):
            kind = self.kind
            name = (f"a list, each {_TYPE_NAMES[kind[0]]}" if isinstance(kind, list)
                    else _TYPE_NAMES[kind])
            raise ConfigError(f"'{self.path}' must be {name}, got {value!r}") from None
        test, phrase = self.domain
        if not test(value):
            raise ConfigError(f"'{self.path}' must be {phrase}, got {value!r}")
        return value


_POSITIVE = (lambda v: v > 0, "positive")

# Every config key but the problem object, whose keys the problem factory checks.
_SCHEMA = (
    _Key("estimator", "estimator", str, "mlqmc",
         (lambda v: v in _ESTIMATORS, f"one of {', '.join(_ESTIMATORS)}")),
    _Key("estimators", "estimators", [str], [],
         (lambda v: set(v) <= set(_ESTIMATORS), f"a list of {', '.join(_ESTIMATORS)}")),
    _Key("tolerances", "tolerances", [float], [],
         (lambda v: all(t > 0 for t in v) and all(b < a for a, b in zip(v, v[1:])),
          "positive and decreasing")),
    _Key("levels", "level_points", [int], [], (lambda v: all(n > 0 for n in v), "positive")),
    _Key("R", "n_shifts", int, 8, _POSITIVE),
    _Key("seed", "seed", int, 0, (lambda v: v >= 0, "non-negative")),
    _Key("s", "s", int, 64, _POSITIVE),
    _Key("s_policy", "s_policy", str, "fixed",
         (lambda v: v in ("fixed", "geometric"), "fixed or geometric")),
    _Key("mesh_exponent", "mesh_exponent", int, 3, _POSITIVE),
    _Key("N", "n_points", int, 256, _POSITIVE),
    _Key("threads", "threads", int, 1, _POSITIVE),
    _Key("max_level", "max_level", int, 6, _POSITIVE),
    _Key("out_dir", "out_dir", str, "results"),
    _Key("generating_vector", "generating_vector", str, ""),   # "": the built-in one
    _Key("rq_tol", "options.rq_tol", float, 5e-8, _POSITIVE),
    _Key("options.two_grid", "options.two_grid", bool, True),
    _Key("options.warm_start", "options.warm_start", bool, True),
    _Key("study.mode", "study.mode", str, "direct",
         (lambda v: v in ("direct", "two_grid"), "direct or two_grid")),
    _Key("study.exponents", "study.exponents", [int], [3, 4, 5, 6],
         (lambda v: len(v) >= 3 and v[0] > 0 and v == list(range(v[0], v[0] + len(v))),
          "at least 3 consecutive ascending positive mesh exponents")),
    _Key("study.coarse_exponent", "study.coarse_exponent", int, 3, _POSITIVE),
    _Key("study.coarse_s", "study.coarse_s", int, 8, _POSITIVE),
)


@dataclass
class ExperimentConfig:
    """Validated experiment description; ``_SCHEMA`` lists its keys."""

    problem_name: str
    problem_params: dict
    estimator: str
    tolerances: list
    level_points: list
    n_shifts: int
    seed: int
    s: int
    s_policy: str
    options: EstimatorOptions
    out_dir: str
    generating_vector: str
    mesh_exponent: int
    n_points: int
    threads: int
    max_level: int
    study: SimpleNamespace      # the "study.*" keys of _SCHEMA
    estimators: list

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        prob = raw.get("problem")
        if not isinstance(prob, dict) or not isinstance(prob.get("name"), str):
            raise ConfigError("config needs a 'problem' object with a 'name'")
        params = {k: v for k, v in prob.items() if k != "name"}
        # the problem factory's signature is the check of the problem keys
        try:
            make_problem(prob["name"], **params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem: {exc}") from None

        # every key by its path; a key that no row reads is unknown
        given = {k: v for k, v in raw.items() if k not in ("problem", "options", "study")}
        for name in ("options", "study"):
            section = raw.get(name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"'{name}' must be a JSON object, got {section!r}")
            given.update({f"{name}.{k}": v for k, v in section.items()})
        fields = {"": {}, "options": {}, "study": {}}
        for key in _SCHEMA:
            target, _, field_name = key.field.rpartition(".")
            fields[target][field_name] = key.read(given.pop(key.path, key.default))
        if given:
            raise ConfigError(f"unknown config keys: {sorted(given)}")
        config = cls(problem_name=prob["name"], problem_params=params,
                     options=EstimatorOptions(**fields["options"]),
                     study=SimpleNamespace(**fields["study"]), **fields[""])

        if config.estimator in ("qmc", "mlqmc") and config.n_shifts < 2:
            raise ConfigError("QMC estimators need R >= 2")
        points = {"mlqmc": config.level_points, "mlmc": config.level_points,
                  "qmc": [config.n_points]}
        if any(n & (n - 1) for n in points.get(config.estimator, [])):
            raise ConfigError(f"{config.estimator} needs powers of 2 as sample counts, "
                              f"got {points[config.estimator]}")
        study = config.study
        if study.mode == "two_grid" and (study.coarse_exponent > min(study.exponents)
                                         or study.coarse_s > config.s):
            raise ConfigError(
                f"two_grid study needs 'study.coarse_exponent' <= min('study.exponents') "
                f"and 'study.coarse_s' <= 's', got {study.coarse_exponent}, "
                f"{study.exponents}, {study.coarse_s} and {config.s}")
        if config.estimator in ("qmc", "mlqmc"):
            config.vector()
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
        return cls.from_dict(raw)

    def problem(self):
        return make_problem(self.problem_name, **self.problem_params)

    def vector(self):
        """The lattice generating vector; ConfigError if it cannot serve s."""
        try:
            if self.generating_vector:
                return load_generating_vector(self.generating_vector,
                                              min_dimension=self.s)
            return default_generating_vector(min_dimension=self.s)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"'generating_vector': {exc}") from None


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _run_one(config: ExperimentConfig, problem, z, tolerance=None,
             evaluated=None) -> MlqmcReport:
    """The configured estimator's report; adaptive MLQMC when given a tolerance.

    ``evaluated`` is the level reports of the sweep so far, shared by its
    adaptive runs (see ``adaptive_mlqmc``).
    """
    if tolerance is not None:
        return adaptive_mlqmc(problem, tolerance, config.n_shifts, z, config.seed,
                              options=config.options, s=config.s,
                              s_policy=config.s_policy, max_level=config.max_level,
                              max_workers=config.threads, evaluated=evaluated)
    if config.estimator == "mc":
        return mc_estimate(problem, config.mesh_exponent, config.s,
                           config.n_points, config.seed, rq_tol=config.options.rq_tol)
    if config.estimator == "qmc":
        return qmc_single_level(problem, config.mesh_exponent, config.s,
                                config.n_points, config.n_shifts, z, config.seed,
                                options=config.options, max_workers=config.threads)
    if config.estimator == "mlmc":
        if not config.level_points:
            raise ConfigError("mlmc needs a 'levels' list of sample counts")
        return mlmc_estimate(problem, config.level_points, config.seed,
                             s=config.s, s_policy=config.s_policy,
                             rq_tol=config.options.rq_tol)
    if not config.level_points:
        raise ConfigError("mlqmc needs 'tolerances' or a 'levels' list of N values")
    levels = default_levels(config.level_points, s=config.s, s_policy=config.s_policy)
    return mlqmc_estimate(problem, levels, config.n_shifts, z, config.seed,
                          options=config.options, max_workers=config.threads)


def _cost_row(report: MlqmcReport, epsilon) -> list:
    return [
        "" if epsilon is None else repr(float(epsilon)),
        report.kind,
        repr(report.total_cost_seconds),
        report.total_linear_solves,
        repr(report.estimate),
        repr(report.total_variance),
    ]


def _sweep(config: ExperimentConfig, problem, z) -> tuple[list, bool]:
    """(eps, report) of the adaptive run at each tolerance, and whether all were met.

    The runs share their level reports, so each level is estimated once.
    The sweep stops at the first tolerance that hits the level cap; if
    that is the first tolerance, ``MaxLevelExceededError`` propagates.
    """
    reports, evaluated = [], {}
    for eps in config.tolerances:
        try:
            reports.append((eps, _run_one(config, problem, z, eps, evaluated)))
        except MaxLevelExceededError:
            if not reports:
                raise
            return reports, False
    return reports, True


def run_experiment(config: ExperimentConfig, out_dir=None) -> int:
    """Run the configured estimator(s); artifacts land in the output directory.

    Returns a process exit status: 0 when every requested tolerance was
    achieved, 1 when a later tolerance hit the level cap; the artifacts
    then hold the tolerances achieved before it.  When the first
    tolerance hits the level cap nothing is written and
    ``MaxLevelExceededError`` propagates (see ``_sweep``).
    """
    out = Path(out_dir or config.out_dir)
    problem = config.problem()
    z = None
    if config.estimator in ("qmc", "mlqmc"):
        z = config.vector()

    if config.estimator == "mlqmc" and config.tolerances:
        reports, achieved = _sweep(config, problem, z)
    else:
        reports, achieved = [(None, _run_one(config, problem, z))], True
    cost_rows = [list(COST_CSV_COLUMNS)] + [_cost_row(rep, eps) for eps, rep in reports]

    level_rows = None
    for _, rep in reports:
        rows = rep.level_csv_rows()
        level_rows = rows if level_rows is None else level_rows + rows[1:]

    payload = [
        {"tolerance": eps, "report": rep.to_dict()} for eps, rep in reports
    ]
    _atomic_write(out / "report.json", json.dumps(payload, indent=2) + "\n")
    _atomic_write(out / "levels.csv", _csv_text(level_rows))
    _atomic_write(out / "cost_vs_tolerance.csv", _csv_text(cost_rows))
    return 0 if achieved else 1


def convergence_study(config: ExperimentConfig, out_dir=None) -> dict:
    """Eigenvalue convergence study over a mesh hierarchy at fixed y = 0.

    Runs on the consecutive meshes m = exponents[0]..exponents[-1]
    either a direct cold eigensolve per mesh, or the two-grid scheme: one
    cold eigensolve on the coarse pair (study.coarse_exponent,
    study.coarse_s), then one ``two_grid_fine_update`` per mesh, the
    calls a telescoped sample makes.  Errors are taken against an
    analytic reference (constant-coefficient case) or Richardson
    extrapolation from the two finest meshes, and the convergence rate
    is fitted by least squares.
    """
    out = Path(out_dir or config.out_dir)
    problem = config.problem()
    exponents = config.study.exponents
    y = np.zeros(config.s)
    tol = config.options.rq_tol

    def cold(mesh, s):
        A = stiffness_interior(mesh, problem, y[:s])
        return smallest_eigenpair_cold(A, mass_interior(mesh, problem), tol)[0]

    if config.study.mode == "direct":
        lams = [cold(build_uniform_mesh(m), config.s).lam for m in exponents]
    else:
        coarse = build_uniform_mesh(config.study.coarse_exponent)
        pair = cold(coarse, config.study.coarse_s)
        lams = [two_grid_fine_update(problem, y, coarse, pair, build_uniform_mesh(m),
                                     config.s)[0]
                for m in exponents]

    # reference: analytic 2 pi^2 a0 for problem 1, whose coefficient at
    # y = 0 is the constant a0; Richardson extrapolation at rate 2 otherwise
    if config.problem_name == "problem1":
        reference = 2.0 * math.pi ** 2 * float(problem.a0((0.0, 0.0)))
    else:
        reference = lams[-1] + (lams[-1] - lams[-2]) / 3.0

    hs = [2.0 ** -m for m in exponents]
    errors = [abs(lam - reference) for lam in lams]
    rate = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])

    rows = [list(STUDY_CSV_COLUMNS)]
    rows += [[repr(h), repr(lam), repr(err)] for h, lam, err in zip(hs, lams, errors)]
    _atomic_write(out / "study.csv", _csv_text(rows))
    summary = {
        "mode": config.study.mode,
        "reference": reference,
        "fitted_rate": rate,
        "h": hs,
        "lambda_h": lams,
    }
    _atomic_write(out / "study_summary.json", json.dumps(summary, indent=2) + "\n")
    return summary


def compare_estimators(config: ExperimentConfig, out_dir=None) -> int:
    """Cost-vs-tolerance comparison of several estimators on one problem.

    The adaptive MLQMC run fixes the bias level h_L per tolerance; the
    single-level and MLMC baselines are then matched to that meshwidth
    and their sample counts grown until the variance target eps^2/2 is
    met.  Emits one cost CSV row per (estimator, tolerance).  Returns 1
    when a baseline misses its target or a later tolerance hits the
    level cap, whose rows are then left out; the first tolerance at the
    cap writes nothing, as in ``run_experiment``.
    """
    out = Path(out_dir or config.out_dir)
    problem = config.problem()
    z = config.vector()
    kinds = config.estimators or list(_ESTIMATORS)
    if not config.tolerances:
        raise ConfigError("compare needs a 'tolerances' list")

    cost_rows = [list(COST_CSV_COLUMNS)]
    reports, achieved = _sweep(config, problem, z)
    status = 0 if achieved else 1
    for eps, base in reports:
        finest = max(lv.ell for lv in base.levels)
        var_target = eps ** 2 / 2.0
        for kind in kinds:
            if kind == "mlqmc":
                rep = base
            else:
                rep = _grow(lambda counts: _run_one(replace(
                    config, estimator=kind, mesh_exponent=3 + finest,
                    level_points=counts, n_points=counts[0]), problem, z),
                    [16] * (finest + 1 if kind == "mlmc" else 1), var_target,
                    z.n_max if kind == "qmc" else 1 << 22)
            if rep is None:
                status = 1
                continue
            cost_rows.append(_cost_row(rep, eps))
    _atomic_write(out / "cost_vs_tolerance.csv", _csv_text(cost_rows))
    return status


def _grow(make, counts, var_target, cap):
    """``make(counts)``, doubling the count of the level with the largest
    variance per work until the variance target is met; None past ``cap``."""
    while True:
        rep = make(counts)
        if rep.total_variance <= var_target:
            return rep
        counts[largest_variance_per_work(rep.levels)] *= 2
        if max(counts) > cap:
            return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlqmc-eig",
        description="Multilevel QMC estimation of expected eigenvalues of "
                    "random elliptic eigenproblems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "run the configured estimator and write report artifacts"),
        ("study", "deterministic eigenvalue convergence study"),
        ("compare", "cost-vs-tolerance comparison of several estimators"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--seed", help="override the config seed")
        p.add_argument("--threads", help="worker threads for streams")
    return parser


def _override(path: str, text: str) -> int:
    """An integer config key given in decimal digits by a flag or variable."""
    key = next(key for key in _SCHEMA if key.path == path)
    return key.read(int(text) if text.isdecimal() else text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    seed = args.seed if args.seed is not None else os.environ.get(SEED_ENV)
    try:
        config = ExperimentConfig.from_file(args.config)
        for path, text in (("seed", seed), ("threads", args.threads)):
            if text is not None:
                setattr(config, path, _override(path, text))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or os.environ.get(OUT_ENV) or config.out_dir

    try:
        if args.command == "run":
            return run_experiment(config, out)
        if args.command == "study":
            summary = convergence_study(config, out)
            print(f"fitted rate {summary['fitted_rate']:.3f} "
                  f"(reference {summary['reference']:.6f})")
            return 0
        return compare_estimators(config, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MaxLevelExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
