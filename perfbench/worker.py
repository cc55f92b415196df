"""One run of one benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload p2_fixed_1w --seed 0 --mode run --trace 0

``run.py`` starts this script once per measured run, so the package's
``lru_cache``s (meshes, coefficient tables, mass matrices) start empty
every time.  The script sets the workload up (import, problem,
generating vector, and the first touch of every mesh it uses), calls
the workload's entry function once, and prints one JSON line with the
set-up and entry timings, the solver counts, the outputs that run.py
checks, and, when traced, the per-layer numbers.  ``--mode setup`` stops
after the set-up.
"""

import time

_T0 = time.perf_counter()   # set-up is timed from here, so it includes the imports

import argparse
import json
import resource
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "_out"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np
import scipy

from mlqmc_eig import cli, estimators, mesh_fem, problems, qmc

import layers

S = 64

# Workload sizes.  "full" is what the benchmark measures; "smoke" runs the
# same code path in well under a second and is used by the tests.  "meshes"
# lists the mesh exponents set-up touches.
WORKLOADS = {
    "p1_sweep": {
        "full": {"tolerances": [0.04, 0.02, 0.01], "R": 8, "meshes": range(3, 8)},
        "smoke": {"tolerances": [0.5, 0.2], "R": 2, "meshes": range(3, 6)},
    },
    "p2_fixed_1w": {
        "full": {"N": [256, 64, 16], "R": 8, "meshes": range(3, 6)},
        "smoke": {"N": [8, 4, 2], "R": 2, "meshes": range(3, 6)},
    },
    "study_m9": {
        "full": {"exponents": list(range(3, 10)), "meshes": range(3, 10)},
        "smoke": {"exponents": [3, 4, 5], "meshes": range(3, 6)},
    },
    "p1_mlmc_cold": {
        "full": {"N": [256, 128, 64], "meshes": range(3, 6)},
        "smoke": {"N": [8, 4, 2], "meshes": range(3, 6)},
    },
}


def _report_outputs(report: dict) -> dict:
    """The parts of an estimator report the output gate compares."""
    return {
        "estimate": report["estimate"],
        "levels": [{"ell": lv["ell"], "N": lv["n_points"], "Q_hat": lv["q_hat"]}
                   for lv in report["levels"]],
        "trajectory": report["trajectory"],
    }


def _config(problem, z, raw: dict):
    config = cli.ExperimentConfig.from_dict(
        {"problem": {"name": "problem1", "p_tilde": 2.0}, "s": S, **raw})
    # hand the CLI the instances set-up built, so the meshes and mass
    # matrices it cached (keyed by problem identity) are the ones used
    config.problem = lambda: problem
    config.vector = lambda: z
    return config


def p1_sweep(problem, z, seed, size, out: Path):
    config = _config(problem, z, {"estimator": "mlqmc", "R": size["R"], "seed": seed,
                                  "tolerances": size["tolerances"], "threads": 1})
    if cli.run_experiment(config, out) != 0:
        raise RuntimeError("run_experiment did not achieve every tolerance")
    payload = json.loads((out / "report.json").read_text())
    return [{"tolerance": entry["tolerance"], **_report_outputs(entry["report"])}
            for entry in payload]


def p2_fixed_1w(problem, z, seed, size, out: Path, workers=1):
    report = estimators.mlqmc_estimate(
        problem, estimators.default_levels(size["N"], s=S), size["R"], z, seed,
        max_workers=workers)
    return _report_outputs(report.to_dict())


def study_m9(problem, z, seed, size, out: Path):
    config = _config(problem, z, {"study": {
        "mode": "two_grid", "exponents": size["exponents"],
        "coarse_exponent": 3, "coarse_s": 8}})
    cli.convergence_study(config, out)
    summary = json.loads((out / "study_summary.json").read_text())
    return {"lambda_h": summary["lambda_h"]}


def p1_mlmc_cold(problem, z, seed, size, out: Path):
    report = estimators.mlmc_estimate(problem, size["N"], seed, s=S)
    return _report_outputs(report.to_dict())


ENTRIES = {f.__name__: f for f in (p1_sweep, p2_fixed_1w, study_m9, p1_mlmc_cold)}


def setup(workload: str, size: dict, rec: layers.Recorder):
    """Problem and generating vector, with every mesh the workload uses touched."""
    if workload == "p2_fixed_1w":
        problem = problems.problem2(2.0, 2.0, 2.0, 2.0)
    else:
        problem = problems.problem1(2.0)
    problem = layers.count_terms(rec, problem)
    z = qmc.default_generating_vector(min_dimension=S)
    for m in size["meshes"]:
        mesh_fem.mass_interior(mesh_fem.build_uniform_mesh(m), problem)
    return problem, z


def _openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    rec = layers.Recorder(traced=bool(args.trace))
    layers.instrument(rec)
    size = WORKLOADS[args.workload]["smoke" if args.smoke else "full"]
    problem, z = setup(args.workload, size, rec)
    result = {"setup_s": time.perf_counter() - _T0,
              "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                      "scipy": scipy.__version__, "openblas": _openblas_version()}}

    if args.mode == "run":
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as out:
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            outputs = ENTRIES[args.workload](problem, z, args.seed, size, Path(out))
            wall = time.perf_counter() - t0
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=wall,
            cpu_s=(cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
            factorizations=rec.calls("sparse_linalg.factor"),
            linear_solves=rec.calls("sparse_linalg.solve"),
            outputs=outputs,
        )
        if rec.traced:
            self_times = rec.self_times()
            result["layers"] = layers.layer_metrics(rec, self_times)
            result["span_calls"] = dict(Counter(sp.name for sp in rec.spans))
            rec.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                            self_times)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
