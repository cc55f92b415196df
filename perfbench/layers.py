"""Counters and spans around the public functions of ``mlqmc_eig``.

The benchmark measures the package from outside: ``instrument`` replaces
the public functions of each layer with wrappers, in every package module
that holds a reference to them, and the package code itself is unchanged.

Untraced runs only count calls into the two layers whose counts are
end-to-end metrics (shifted factorizations and triangular solves).
Traced runs record one span per wrapped call: name, key (mesh exponent
or level), parent span, thread, start and end, and the thread CPU time
inside it.  Spans are kept in memory and written out once, when the run
ends.  A span's self time is its duration minus the part of it that its
direct child spans cover.  A span opened on a worker thread with no open
span of its own is a child of the innermost span open on the main
thread, which submitted the work; overlapping children are counted once.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter

from mlqmc_eig import cli, eigensolver, estimators, mesh_fem, qmc, sparse_linalg

# exponents of the uniform meshes the workloads use; per-call times are
# reported for each of them
MESH_EXPONENTS = range(3, 10)
# adaptive_mlqmc stops at max_level 6, so levels 0..6 can occur
LEVELS = range(7)


class Span:
    __slots__ = ("id", "name", "key", "parent", "thread", "start", "end",
                 "cpu_s", "info", "error")

    def __init__(self, span_id, name, key, parent, thread):
        self.id = span_id
        self.name = name
        self.key = key
        self.parent = parent
        self.thread = thread
        self.info = None
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Recorder:
    """Call counts (untraced) or spans (traced) of one benchmark process."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.counts = Counter()
        self.spans = []                 # list.append is atomic under the GIL
        self.samples_retained = 0
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def calls(self, name: str) -> int:
        if self.traced:
            return sum(1 for sp in self.spans if sp.name == name)
        return self.counts[name]

    def wrap(self, name, fn, key=None, info=None):
        """Wrapper of ``fn``: a span when traced, else a call counter.

        ``key(*args, **kwargs)`` gives the span key; ``info(result)`` the
        extra facts kept from the returned value.
        """
        if not self.traced:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._submitter()
            sp = Span(next(self._ids), name,
                      key(*args, **kwargs) if key is not None else None,
                      parent.id if parent is not None else None,
                      threading.get_ident())
            stack.append(sp)
            cpu0 = time.thread_time()
            sp.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    sp.info = info(result)
                return result
            except Exception as exc:
                sp.error = type(exc).__name__
                raise
            finally:
                sp.end = time.perf_counter()
                sp.cpu_s = time.thread_time() - cpu0
                stack.pop()
                self.spans.append(sp)
        return traced

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _submitter(self):
        if threading.current_thread() is threading.main_thread():
            return None
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def self_times(self) -> dict:
        """Self time of every span, by span id."""
        children = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append((sp.start, sp.end))
        out = {}
        for sp in self.spans:
            covered, reach = 0.0, sp.start
            for start, end in sorted(children.get(sp.id, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out[sp.id] = sp.duration - covered
        return out

    def write_spans(self, path, self_times: dict) -> None:
        with open(path, "w") as handle:
            for sp in self.spans:
                handle.write(json.dumps({**sp.to_dict(), "self_s": self_times[sp.id]})
                             + "\n")


def _replace_everywhere(original, replacement) -> None:
    """Rebind every package-module reference to ``original``."""
    found = False
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "mlqmc_eig" and not mod_name.startswith("mlqmc_eig."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                found = True
    if not found:
        raise RuntimeError(f"{original!r} is not referenced by any package module")


def _dofs_m(n: int) -> int:
    # interior DOFs of the 2^m mesh: (2^m - 1)^2
    return int(round(math.log2(math.isqrt(n) + 1)))


def _warm_arg(args, kwargs):
    return kwargs["warm"] if "warm" in kwargs else (args[3] if len(args) > 3 else None)


def instrument(rec: Recorder) -> None:
    """Wrap the public functions of every layer (once per process)."""
    w = rec.wrap
    factor = w("sparse_linalg.factor", sparse_linalg.factorize_shifted,
               key=lambda A, M, sigma: _dofs_m(A.shape[0]))
    _replace_everywhere(sparse_linalg.factorize_shifted, factor)
    sparse_linalg.FactorizedOperator.solve = w(
        "sparse_linalg.solve", sparse_linalg.FactorizedOperator.solve)
    if not rec.traced:
        return

    _replace_everywhere(mesh_fem.stiffness_interior, w(
        "mesh_fem.stiffness", mesh_fem.stiffness_interior,
        key=lambda mesh, problem, y: mesh.level_exponent))
    _replace_everywhere(mesh_fem.prolongate, w(
        "mesh_fem.prolongate", mesh_fem.prolongate))

    cold = w("eigensolver.cold", eigensolver.smallest_eigenpair_cold,
             info=lambda res: {"factorizations": res[1].factorizations})
    _replace_everywhere(eigensolver.smallest_eigenpair_cold, cold)
    plain = eigensolver.smallest_eigenpair
    warm = w("eigensolver.warm", plain,
             info=lambda res: {"rq_iterations": res[1].rq_iterations})

    @functools.wraps(plain)
    def smallest_eigenpair(*args, **kwargs):
        # without a warm pair the call is a cold solve, which has its own span
        if _warm_arg(args, kwargs) is None:
            return plain(*args, **kwargs)
        return warm(*args, **kwargs)
    _replace_everywhere(plain, smallest_eigenpair)
    _replace_everywhere(eigensolver.two_grid_fine_update, w(
        "eigensolver.two_grid", eigensolver.two_grid_fine_update,
        key=lambda problem, y, coarse_mesh, coarse_pair, fine_mesh, s:
        fine_mesh.level_exponent))

    _replace_everywhere(qmc.lattice_point, w("qmc.lattice_point", qmc.lattice_point))

    _replace_everywhere(estimators.sample_level_difference, w(
        "estimators.sample", estimators.sample_level_difference,
        key=lambda problem, level, *a, **k: level.ell))

    def retained(report):
        rec.samples_retained = sum(lv.n_points * lv.n_shifts for lv in report.levels)
    for fn in (estimators.adaptive_mlqmc, estimators.mlqmc_estimate,
               estimators.mlmc_estimate):
        _replace_everywhere(fn, w("estimators.entry", fn, info=retained))
    for fn in (cli.run_experiment, cli.convergence_study):
        _replace_everywhere(fn, w("cli", fn))


def count_terms(rec: Recorder, problem):
    """The same problem with its a_term/b_term calls counted (traced only)."""
    if not rec.traced:
        return problem

    def counted(fn):
        if fn is None:
            return None

        @functools.wraps(fn)
        def term(j, x):
            rec.count("problems.term_calls")
            return fn(j, x)
        return term
    return dataclasses.replace(problem, a_term=counted(problem.a_term),
                               b_term=counted(problem.b_term))


def layer_metrics(rec: Recorder, self_times: dict) -> dict:
    """Per-layer numbers of one traced run, by metric name (no units)."""
    by_name = {}
    for sp in rec.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def spans(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(self_times[sp.id] for sp in spans(name))

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    out = {"problems.term_calls": rec.counts["problems.term_calls"]}
    for name in ("mesh_fem.stiffness", "mesh_fem.prolongate", "sparse_linalg.factor",
                 "sparse_linalg.solve", "eigensolver.warm", "eigensolver.cold",
                 "eigensolver.two_grid", "qmc.lattice_point", "estimators.sample"):
        out[f"{name}.calls"] = len(spans(name))
        out[f"{name}.self_s"] = self_s(name)
    for name in ("mesh_fem.stiffness", "sparse_linalg.factor", "eigensolver.two_grid"):
        for m in MESH_EXPONENTS:
            out[f"{name}.ms_per_call.m{m}"] = 1e3 * mean(
                sp.duration for sp in spans(name) if sp.key == m)

    factors = spans("sparse_linalg.factor")
    singular = sum(1 for sp in factors if sp.error == "SingularShiftError")
    out["sparse_linalg.factor.singular"] = singular
    out["sparse_linalg.factor.useful_ratio"] = (
        (len(factors) - singular) / len(factors) if factors else 0.0)
    out["eigensolver.warm.rq_iters_mean"] = mean(
        sp.info["rq_iterations"] for sp in spans("eigensolver.warm") if sp.info)
    out["eigensolver.cold.factor_per_call"] = mean(
        sp.info["factorizations"] for sp in spans("eigensolver.cold") if sp.info)

    samples = spans("estimators.sample")
    out["estimators.sample.wait_s"] = sum(sp.duration - sp.cpu_s for sp in samples)
    for ell in LEVELS:
        out[f"estimators.level{ell}.s"] = sum(
            sp.duration for sp in samples if sp.key == ell)
    out["estimators.entry.self_s"] = self_s("estimators.entry")
    out["estimators.samples_computed"] = len(samples)
    out["estimators.samples_retained"] = rec.samples_retained
    out["estimators.retained_ratio"] = (
        rec.samples_retained / len(samples) if samples else 0.0)
    out["cli.self_s"] = self_s("cli")
    out["trace.spans"] = len(rec.spans)
    return out
