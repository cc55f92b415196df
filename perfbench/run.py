"""Benchmark command of mlqmc-eig.

    python3 perfbench/run.py --workload p1_sweep --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  The workload is run again and again,
each time in a fresh process (``worker.py``) with BLAS pinned to one
thread, until ``--seconds`` have passed; at least one run is always made.
Every run's outputs go through the output gate: they must match the
reference outputs recorded at the seed commit to 1e-10 relative when
``reference.json`` holds the seed, and must be bitwise equal between all
runs made with one seed in this checkout.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics of ``BENCHMARK.json`` (medians over the
runs); set-up is repeated in set-up-only processes until there are at
least four samples of it.  With ``--trace 1`` each untraced run is
paired with a traced one, and the per-layer metrics are printed, with
the tracing overhead (traced minus untraced wall time).  The line before
the result gives the machine and versions; ``perfbench/_out/`` keeps the
full record of the run and the spans of the last traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "mlqmc_eig"
OUT_DIR = HERE / "_out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("p1_sweep", "p2_fixed_1w", "study_m9", "p1_mlmc_cold")
RTOL = 1e-10
MIN_SETUP_SAMPLES = 4
DEADLINE_S = 170.0      # every run of the command ends within 180 s
# spans each workload must record in a traced run; a layer with no calls
# means the wrapping no longer reaches it, and the run counts as failed
REQUIRED_SPANS = {
    "p1_sweep": ("cli", "estimators.entry", "estimators.sample", "qmc.lattice_point",
                 "eigensolver.warm", "eigensolver.cold", "eigensolver.two_grid",
                 "mesh_fem.stiffness", "mesh_fem.prolongate",
                 "sparse_linalg.factor", "sparse_linalg.solve"),
    "p2_fixed_1w": ("estimators.entry", "estimators.sample", "qmc.lattice_point",
                    "eigensolver.warm", "eigensolver.cold", "eigensolver.two_grid",
                    "mesh_fem.stiffness", "mesh_fem.prolongate",
                    "sparse_linalg.factor", "sparse_linalg.solve"),
    "study_m9": ("cli", "eigensolver.cold", "eigensolver.two_grid",
                 "mesh_fem.stiffness", "mesh_fem.prolongate",
                 "sparse_linalg.factor", "sparse_linalg.solve"),
    "p1_mlmc_cold": ("estimators.entry", "estimators.sample", "eigensolver.cold",
                     "mesh_fem.stiffness", "sparse_linalg.factor",
                     "sparse_linalg.solve"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def run_worker(workload: str, seed: int, mode: str, trace: int, smoke: bool,
               timeout: float) -> dict:
    """One worker process; its result, or {"error": ...} when it failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def mismatch(got, want, path="outputs", rtol=RTOL):
    """First difference between two output trees beyond ``rtol``, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = mismatch(got[key], want[key], f"{path}.{key}", rtol)
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{path}[{i}]", rtol)
            if found:
                return found
        return None
    if isinstance(want, float) and isinstance(got, (int, float)):
        if abs(got - want) <= rtol * abs(want):
            return None
        return f"{path}: {got!r} != {want!r} (rtol {rtol:g})"
    if got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def expected_outputs(workload: str, seed: int, smoke: bool):
    """Reference outputs for this seed and their tolerance, if any are known.

    Without a stored reference, the outputs of the first run made with
    this seed and this source tree are kept in ``_out`` and later runs
    must match them bitwise.
    """
    if not smoke and REFERENCE.exists():
        stored = json.loads(REFERENCE.read_text())["workloads"].get(workload, {})
        if str(seed) in stored or "*" in stored:
            return stored.get(str(seed), stored.get("*")), RTOL, None
    size = "smoke" if smoke else "full"
    record = OUT_DIR / f"outputs-{workload}-{size}-seed{seed}-{source_digest()}.json"
    if record.exists():
        return json.loads(record.read_text()), 0.0, None
    return None, 0.0, record


def gate(workload: str, seed: int, smoke: bool, runs: list) -> None:
    """Mark every run that failed, mismatched or missed a layer."""
    want, rtol, record = expected_outputs(workload, seed, smoke)
    first = None
    for run in runs:
        if "error" in run or run.get("mode") != "run":
            continue
        if run["factorizations"] == 0 or run["linear_solves"] == 0:
            run["error"] = "no factorization or solve was recorded"
            continue
        if run.get("trace"):
            missing = [name for name in REQUIRED_SPANS[workload]
                       if not run["span_calls"].get(name)]
            if missing:
                run["error"] = f"layers recorded no calls: {missing}"
                continue
        found = None
        if want is not None:
            found = mismatch(run["outputs"], want, rtol=rtol)
        if found is None and first is not None:
            found = mismatch(run["outputs"], first, rtol=0.0)
        if found:
            run["error"] = f"output mismatch: {found}"
            continue
        if first is None:
            first = run["outputs"]
    if record is not None and first is not None:
        OUT_DIR.mkdir(exist_ok=True)
        partial = record.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(first))
        os.replace(partial, record)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(runs: list) -> dict:
    measured = [r for r in runs if r.get("mode") == "run" and not r.get("trace")
                and "wall_s" in r]
    attempted = [r for r in runs if r.get("mode") == "run"]
    return {
        "wall_s": median(r["wall_s"] for r in measured),
        "setup_s": median(r["setup_s"] for r in runs if "setup_s" in r),
        "cpu_s": median(r["cpu_s"] for r in measured),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in measured),
        "factorizations": median(r["factorizations"] for r in measured),
        "linear_solves": median(r["linear_solves"] for r in measured),
        "pass_frac": sum(1 for r in attempted if "error" not in r) / len(attempted),
    }


def per_layer(runs: list) -> dict:
    traced = [r for r in runs if r.get("trace") and "layers" in r]
    plain = [r for r in runs if r.get("mode") == "run" and not r.get("trace")
             and "wall_s" in r]
    out = {name: median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]} if traced else {}
    wall_traced = median(r["wall_s"] for r in traced)
    wall_plain = median(r["wall_s"] for r in plain)
    out["trace.overhead_s"] = wall_traced - wall_plain
    out["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
    return out


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> list:
    started = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - started)

    def launch(mode, traced=0):
        run = run_worker(workload, seed, mode, traced, smoke, remaining())
        run.update(mode=mode, trace=traced)
        runs.append(run)

    runs = []
    while True:
        launch("run")
        if trace:
            launch("run", traced=1)
        if time.perf_counter() - started >= seconds or remaining() <= 0:
            break
    while not trace and remaining() > 0 and \
            sum(1 for r in runs if "setup_s" in r) < MIN_SETUP_SAMPLES:
        launch("setup")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes on the same code path, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    gate(args.workload, args.seed, args.smoke, runs)
    measured = [r for r in runs if r["mode"] == "run" and "wall_s" in r]
    if not measured:
        print("error: no run completed: " + "; ".join(r["error"] for r in runs),
              file=sys.stderr)
        return 1
    failed = sum(1 for r in runs if r["mode"] == "run" and "error" in r)
    attempted = sum(1 for r in runs if r["mode"] == "run")
    values = per_layer(runs) if args.trace else end_to_end(runs)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared
               if not isinstance(values.get(m["name"]), (int, float))
               or not math.isfinite(values[m["name"]])]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    env = dict(measured[0]["env"], nproc=len(os.sched_getaffinity(0)),
               commit=git_commit(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, smoke=args.smoke)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result, "runs": [
        {k: v for k, v in r.items() if k not in ("layers", "outputs")} for r in runs]},
        indent=1))
    for r in runs:
        if "error" in r:
            print(f"run failed: {r['error']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
