"""Tests of the benchmark: every workload end to end at smoke size, the
output gate, the span bookkeeping, and the 1-vs-2-worker equality that
the p2_fixed_1w reference relies on."""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import layers
import run
import worker

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 1 + trace
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = bench("--workload", "p1_sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_p2_two_workers_match_one_worker_bitwise():
    size = worker.WORKLOADS["p2_fixed_1w"]["full"]
    problem, z = worker.setup("p2_fixed_1w", size, layers.Recorder(traced=False))
    one = worker.p2_fixed_1w(problem, z, 0, size, None)
    two = worker.p2_fixed_1w(problem, z, 0, size, None, workers=2)
    assert one == two
    assert two["estimate"] == 0.7834749660991956


def test_mismatch_tolerance():
    want = {"estimate": 19.5, "levels": [{"N": 16, "Q_hat": -0.5}]}
    assert run.mismatch({"estimate": 19.5 * (1 + 1e-12),
                         "levels": [{"N": 16, "Q_hat": -0.5}]}, want) is None
    assert "estimate" in run.mismatch({"estimate": 19.5 * (1 + 1e-9),
                                       "levels": [{"N": 16, "Q_hat": -0.5}]}, want)
    assert "N" in run.mismatch({"estimate": 19.5,
                                "levels": [{"N": 32, "Q_hat": -0.5}]}, want)
    assert run.mismatch({"estimate": 19.500000000000004,
                         "levels": [{"N": 16, "Q_hat": -0.5}]}, want, rtol=0.0)


def _fake_run(outputs, **extra):
    return {"mode": "run", "trace": 0, "factorizations": 1, "linear_solves": 1,
            "outputs": outputs, **extra}


def test_gate_marks_reference_mismatch_and_silent_layers():
    reference = json.loads(run.REFERENCE.read_text())["workloads"]["study_m9"]["*"]
    off = {"lambda_h": [lam * (1 + 1e-8) for lam in reference["lambda_h"]]}
    runs = [_fake_run(reference), _fake_run(off),
            _fake_run(reference, factorizations=0),
            _fake_run(reference, trace=1, span_calls={"cli": 1})]
    run.gate("study_m9", 0, False, runs)
    assert "error" not in runs[0]
    assert "mismatch" in runs[1]["error"]
    assert "no factorization" in runs[2]["error"]
    assert "no calls" in runs[3]["error"]


def test_self_time_counts_overlapping_children_once():
    rec = layers.Recorder(traced=True)
    spans = [(0, "parent", None, 0.0, 10.0), (1, "child", 0, 1.0, 4.0),
             (2, "child", 0, 3.0, 6.0), (3, "child", 0, 8.0, 9.0)]
    for span_id, name, parent, start, end in spans:
        sp = layers.Span(span_id, name, None, parent, 0)
        sp.start, sp.end = start, end
        rec.spans.append(sp)
    assert rec.self_times() == {0: 4.0, 1: 3.0, 2: 3.0, 3: 1.0}


@pytest.mark.parametrize("traced", [False, True])
def test_wrapper_loses_no_call_across_threads(traced):
    rec = layers.Recorder(traced=traced)
    wrapped = rec.wrap("layer", lambda x: x + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [wrapped(i) for i in range(2000)])
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert rec.calls("layer") == 8000
