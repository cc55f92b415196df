"""Config-driven experiment runner: `run`, `study` and `compare` subcommands.

Experiments are described by a single JSON document (unknown keys are
rejected) and produce machine-readable artifacts in the output
directory: a full JSON report, a per-level CSV, and a cost-vs-tolerance
CSV suitable for external plotting.  All file writes are atomic
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
from dataclasses import dataclass, field
from pathlib import Path

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
from .eigensolver import smallest_eigenpair_cold, two_grid_eigenpair
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

_ALLOWED_TOP = {
    "problem", "estimator", "tolerances", "levels", "R", "seed", "s",
    "s_policy", "options", "out_dir", "generating_vector", "rq_tol",
    "mesh_exponent", "N", "threads", "study", "estimators", "max_level",
}
_ALLOWED_OPTIONS = {"two_grid", "warm_start", "shared_shifts"}
_ALLOWED_STUDY = {"mode", "exponents", "coarse_exponent", "coarse_s"}
_ESTIMATORS = ("mlqmc", "mlmc", "qmc", "mc")


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


@dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the schema)."""

    problem_name: str
    problem_params: dict
    estimator: str = "mlqmc"
    tolerances: list = field(default_factory=list)
    level_points: list = field(default_factory=list)
    n_shifts: int = 8
    seed: int = 0
    s: int = 64
    s_policy: str = "fixed"
    options: EstimatorOptions = EstimatorOptions()
    out_dir: str = "results"
    generating_vector: str | None = None
    mesh_exponent: int = 3
    n_points: int = 256
    threads: int = 1
    max_level: int = 6
    study: dict = field(default_factory=dict)
    estimators: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - _ALLOWED_TOP
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in raw:
            raise ConfigError("config needs a 'problem' object")
        prob = raw["problem"]
        if not isinstance(prob, dict) or "name" not in prob:
            raise ConfigError("'problem' must be an object with a 'name'")
        params = {k: v for k, v in prob.items() if k != "name"}
        # the problem factory's signature is the check of the problem keys
        try:
            make_problem(prob["name"], **params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"problem: {exc}") from None

        opts_raw = raw.get("options", {})
        unknown = set(opts_raw) - _ALLOWED_OPTIONS
        if unknown:
            raise ConfigError(f"unknown option keys: {sorted(unknown)}")
        options = EstimatorOptions(
            two_grid=bool(opts_raw.get("two_grid", True)),
            warm_start=bool(opts_raw.get("warm_start", True)),
            shared_shifts=bool(opts_raw.get("shared_shifts", False)),
            rq_tol=float(raw.get("rq_tol", 5e-8)),
        )

        tolerances = [float(t) for t in raw.get("tolerances", [])]
        if tolerances:
            if any(t <= 0 for t in tolerances):
                raise ConfigError("tolerances must be positive")
            if any(b >= a for a, b in zip(tolerances, tolerances[1:])):
                raise ConfigError("tolerances must be decreasing")

        level_points = [int(n) for n in raw.get("levels", [])]
        estimator = raw.get("estimator", "mlqmc")
        if estimator not in _ESTIMATORS:
            raise ConfigError(f"unknown estimator {estimator!r}")
        estimators = list(raw.get("estimators", []))
        unknown = [kind for kind in estimators if kind not in _ESTIMATORS]
        if unknown:
            raise ConfigError(f"unknown estimators: {unknown}")
        s_policy = str(raw.get("s_policy", "fixed"))
        if s_policy not in ("fixed", "geometric"):
            raise ConfigError(f"unknown s_policy {s_policy!r}")
        n_shifts = int(raw.get("R", 8))
        if estimator in ("qmc", "mlqmc") and n_shifts < 2:
            raise ConfigError("QMC estimators need R >= 2")

        study = raw.get("study", {})
        unknown = set(study) - _ALLOWED_STUDY
        if unknown:
            raise ConfigError(f"unknown study keys: {sorted(unknown)}")

        return cls(
            problem_name=prob["name"],
            problem_params=params,
            estimator=estimator,
            tolerances=tolerances,
            level_points=level_points,
            n_shifts=n_shifts,
            seed=int(raw.get("seed", 0)),
            s=int(raw.get("s", 64)),
            s_policy=s_policy,
            options=options,
            out_dir=str(raw.get("out_dir", "results")),
            generating_vector=raw.get("generating_vector"),
            mesh_exponent=int(raw.get("mesh_exponent", 3)),
            n_points=int(raw.get("N", 256)),
            threads=int(raw.get("threads", 1)),
            max_level=int(raw.get("max_level", 6)),
            study=dict(study),
            estimators=estimators,
        )

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
        if self.generating_vector:
            return load_generating_vector(self.generating_vector,
                                          min_dimension=self.s)
        return default_generating_vector(min_dimension=self.s)


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
    """Eigenvalue convergence study over a mesh hierarchy at fixed y.

    Runs either direct eigensolves or two-grid updates on meshes
    m = exponents[0]..exponents[-1], estimates errors against an
    analytic reference (constant-coefficient case) or Richardson
    extrapolation, and fits the convergence rate by least squares.
    """
    out = Path(out_dir or config.out_dir)
    problem = config.problem()
    mode = config.study.get("mode", "direct")
    if mode not in ("direct", "two_grid"):
        raise ConfigError(f"unknown study mode {mode!r}")
    exponents = config.study.get("exponents", [3, 4, 5, 6])
    if len(exponents) < 3:
        raise ConfigError("study needs at least 3 mesh exponents")
    y = np.zeros(config.s)

    lams = []
    if mode == "direct":
        for m in exponents:
            mesh = build_uniform_mesh(m)
            A = stiffness_interior(mesh, problem, y[:config.s])
            M = mass_interior(mesh, problem)
            pair, _ = smallest_eigenpair_cold(A, M, config.options.rq_tol)
            lams.append(pair.lam)
    else:
        coarse_m = int(config.study.get("coarse_exponent", 3))
        coarse_s = int(config.study.get("coarse_s", 8))
        coarse = build_uniform_mesh(coarse_m)
        for m in exponents:
            lam, _, _, _ = two_grid_eigenpair(
                problem, y, (coarse, coarse_s), (build_uniform_mesh(m), config.s),
                tol=config.options.rq_tol,
            )
            lams.append(lam)

    # reference: analytic 2 pi^2 a0 for problem 1, whose coefficient at
    # y = 0 is the constant a0; Richardson extrapolation at rate 2 otherwise
    if config.problem_name == "problem1":
        a0 = 1.0 if config.problem_params.get("p_tilde", 2.0) >= 2.0 \
            else math.pi / math.sqrt(2.0)
        reference = 2.0 * math.pi ** 2 * a0
    else:
        reference = lams[-1] + (lams[-1] - lams[-2]) / 3.0

    hs = [2.0 ** -m for m in exponents]
    errors = [abs(lam - reference) for lam in lams]
    rate = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])

    rows = [list(STUDY_CSV_COLUMNS)]
    rows += [[repr(h), repr(lam), repr(err)] for h, lam, err in zip(hs, lams, errors)]
    _atomic_write(out / "study.csv", _csv_text(rows))
    summary = {
        "mode": mode,
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
            elif kind == "mlmc":
                rep = _grow_mlmc(problem, config, eps, finest)
            elif kind == "qmc":
                rep = _grow_single(
                    lambda n: qmc_single_level(
                        problem, 3 + finest, config.s, n, config.n_shifts, z,
                        config.seed, options=config.options,
                        max_workers=config.threads),
                    var_target, z.n_max)
            else:
                rep = _grow_single(
                    lambda n: mc_estimate(problem, 3 + finest, config.s, n,
                                          config.seed, rq_tol=config.options.rq_tol),
                    var_target, 1 << 22)
            if rep is None:
                status = 1
                continue
            cost_rows.append(_cost_row(rep, eps))
    _atomic_write(out / "cost_vs_tolerance.csv", _csv_text(cost_rows))
    return status


def _grow_single(make, var_target, n_cap, n0=16):
    n = n0
    while True:
        rep = make(n)
        if rep.total_variance <= var_target:
            return rep
        n *= 2
        if n > n_cap:
            return None


def _grow_mlmc(problem, config, eps, finest):
    var_target = eps ** 2 / 2.0
    counts = [16] * (finest + 1)
    while True:
        rep = mlmc_estimate(problem, counts, config.seed, s=config.s,
                            s_policy=config.s_policy, rq_tol=config.options.rq_tol)
        if rep.total_variance <= var_target:
            return rep
        counts[largest_variance_per_work(rep.levels)] *= 2
        if max(counts) > 1 << 22:
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
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, help="worker threads for streams")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seed_env = os.environ.get(SEED_ENV)
    if args.seed is not None:
        config.seed = args.seed
    elif seed_env is not None:
        config.seed = int(seed_env)
    if args.threads is not None:
        config.threads = args.threads
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
