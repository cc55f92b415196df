"""Single-level and multilevel MC/QMC estimators of the expected eigenvalue.

The multilevel estimator telescopes E[lambda_L] over a hierarchy of
meshes (and optionally truncation dimensions).  All four estimators
(MC, QMC, MLMC, MLQMC) share one pipeline: per level, one or more point
streams are run through the same per-sample kernel,
``sample_level_difference``, and one reducer turns the streams into the
level's report row.  Only the point source differs: R randomly shifted
rank-1 lattice streams per level, or a single seeded i.i.d. stream.  MC
is the level-0 case of MLMC.  Per sample the two-grid update replaces
the fine eigensolve by one shifted solve, and within each lattice stream
the eigensolver is warm-started from the previous point, so the points
must be visited in order.  Streams are independent of each other and
are reduced in a fixed order, which keeps estimates reproducible under
parallel execution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .eigensolver import (
    Eigenpair,
    SolveStats,
    smallest_eigenpair,
    smallest_eigenpair_cold,
    two_grid_fine_update,
)
from .mesh_fem import TriMesh, build_uniform_mesh, mass_interior, stiffness_interior
from .problems import CoefficientSeries
from .qmc import (
    GeneratingVector,
    lattice_point,
    random_shift,
    shift_and_center,
    shift_average_and_variance,
)

# work units per linear solve / factorization, in units of matrix dimension;
# factorizations dominate, so they get a fixed heavier weight
_FACTOR_WORK = 4.0
# level-0 truncation of the geometric policy, _S0 * 2^ell
_S0 = 4
# the adaptive driver's bias estimate |Q_L| / (2^alpha - 1) assumes the
# O(h^2) eigenvalue error, alpha = 2
_BIAS_ALPHA = 2.0
# lattice points per shift with which the adaptive driver starts each level
_N_INITIAL = 16


class MaxLevelExceededError(RuntimeError):
    """The adaptive driver hit a cap: the bias test still fails at the level
    cap, or a level needs more points than the generating vector's ``n_max``."""


@dataclass(frozen=True)
class LevelParams:
    """Discretisation parameters of one telescoping level.

    Level ell uses meshwidth h = 2^-mesh_exponent and truncation s; the
    two-grid eigensolve runs on the coarse pair (2^-coarse_exponent,
    coarse_s).  prev_s is the truncation of level ell-1 in the same
    hierarchy (used for the second term of the difference).
    """

    ell: int
    mesh_exponent: int
    s: int
    coarse_exponent: int
    coarse_s: int
    n_points: int
    prev_s: int | None = None

    def __post_init__(self):
        if self.n_points < 1 or self.n_points & (self.n_points - 1):
            raise ValueError("points per shift must be a power of 2")
        if self.coarse_exponent > self.mesh_exponent:
            raise ValueError("coarse mesh must not be finer than the level mesh")
        if self.coarse_s > self.s:
            raise ValueError("coarse truncation must not exceed the level truncation")
        if self.ell > 0 and self.prev_s is None:
            raise ValueError("levels above 0 need the previous level's truncation")

    @property
    def h(self) -> float:
        return 2.0 ** -self.mesh_exponent

    @property
    def coarse_h(self) -> float:
        return 2.0 ** -self.coarse_exponent


def truncation_dimension(ell: int, s: int, s_policy: str) -> int:
    """s_ell for the chosen policy: fixed s, or _S0 * 2^ell capped at s."""
    if s_policy == "fixed":
        return s
    if s_policy == "geometric":
        return min(s, _S0 * 2 ** ell)
    raise ValueError(f"unknown truncation policy {s_policy!r}")


def level_params(ell: int, n_points: int, s: int = 64, s_policy: str = "fixed",
                 base_exponent: int = 3) -> LevelParams:
    """Level parameters following the coarse-pair rules H = min(h^(1/4), h0),
    S = ceil(sqrt(s)) (floored at _S0 for growing truncations)."""
    m = base_exponent + ell
    s_ell = truncation_dimension(ell, s, s_policy)
    # coarsest mesh in the family with meshwidth <= h^(1/4), capped at h0
    coarse_exp = max(base_exponent, math.ceil(m / 4))
    coarse_s = math.isqrt(s_ell - 1) + 1 if s_ell > 1 else 1   # ceil(sqrt(s_ell))
    if s_policy == "geometric":
        coarse_s = max(coarse_s, min(_S0, s_ell))
    coarse_s = min(coarse_s, s_ell)
    prev_s = None
    if ell > 0:
        prev_s = truncation_dimension(ell - 1, s, s_policy)
    return LevelParams(
        ell=ell,
        mesh_exponent=m,
        s=s_ell,
        coarse_exponent=coarse_exp,
        coarse_s=coarse_s,
        n_points=n_points,
        prev_s=prev_s,
    )


def default_levels(n_per_level, s: int = 64, s_policy: str = "fixed") -> list[LevelParams]:
    return [level_params(ell, n, s=s, s_policy=s_policy)
            for ell, n in enumerate(n_per_level)]


@dataclass(frozen=True)
class EstimatorOptions:
    """Feature switches of the enhanced multilevel estimator."""

    two_grid: bool = True
    warm_start: bool = True


# the i.i.d. estimators (MC, MLMC) solve every sample cold on each mesh
_IID_OPTIONS = EstimatorOptions(two_grid=False, warm_start=False)


def _priced(stats: SolveStats, mesh: TriMesh, s: int) -> SolveStats:
    """``stats`` with the deterministic work of one assembly and its solves.

    Work is counted in units of the matrix dimension: one per linear
    solve, ``_FACTOR_WORK`` per factorization, plus s terms per element
    for assembling the truncated coefficient.  Each fine solve of a
    two-grid update is charged at least one factorization: a MINRES
    solve factors nothing and is charged the factorization it replaces,
    so work units do not depend on which solver ran.  Whether this
    model fits the measured costs is the ROADMAP's open "Work model"
    item.  Every term is an integer, so sums of work units are exact in
    any order.
    """
    factorizations = max(stats.factorizations, stats.fine_linear_solves)
    stats.work_units = (mesh.n_interior
                        * (stats.linear_solves + _FACTOR_WORK * factorizations)
                        + s * mesh.n_elements)
    return stats


def _assembled(problem: CoefficientSeries, mesh: TriMesh, y: np.ndarray, s: int):
    return stiffness_interior(mesh, problem, y[:s]), mass_interior(mesh, problem)


def sample_level_difference(problem: CoefficientSeries, level: LevelParams, y,
                            warm_state: Eigenpair | None = None,
                            two_grid: bool = True
                            ) -> tuple[float, Eigenpair | None, SolveStats]:
    """One telescoped difference lambda^ell - lambda^(ell-1) at parameter y.

    For ell = 0 this is the direct eigenvalue at the coarsest level,
    warm-started when a previous pair is supplied and a certified cold
    solve otherwise.  For ell >= 1 one coarse eigensolve feeds two
    shifted fine solves, one per level of the difference; the returned
    coarse pair seeds the warm start of the next sample in the same
    stream.  Without two-grid both levels are solved cold.  The stats
    count the whole sample; ``rq_iterations`` are the coarse ones.
    """
    y = np.asarray(y, dtype=float)
    mesh = build_uniform_mesh(level.mesh_exponent)

    if level.ell == 0:
        pair, stats = smallest_eigenpair(*_assembled(problem, mesh, y, level.s),
                                         warm=warm_state)
        return pair.lam, pair, _priced(stats, mesh, level.s)

    prev_mesh = build_uniform_mesh(level.mesh_exponent - 1)
    if not two_grid:
        pair_f, stats = smallest_eigenpair_cold(*_assembled(problem, mesh, y, level.s))
        pair_p, st_p = smallest_eigenpair_cold(
            *_assembled(problem, prev_mesh, y, level.prev_s))
        stats = _priced(stats, mesh, level.s).add(_priced(st_p, prev_mesh, level.prev_s))
        return pair_f.lam - pair_p.lam, None, stats

    coarse_mesh = build_uniform_mesh(level.coarse_exponent)
    coarse_pair, stats = smallest_eigenpair(
        *_assembled(problem, coarse_mesh, y, level.coarse_s), warm=warm_state)
    _priced(stats, coarse_mesh, level.coarse_s)
    lams = []
    for fine_mesh, s in ((mesh, level.s), (prev_mesh, level.prev_s)):
        lam, _, fine = two_grid_fine_update(problem, y, coarse_mesh, coarse_pair,
                                            fine_mesh, s)
        stats.add(_priced(fine, fine_mesh, s))
        lams.append(lam)
    return lams[0] - lams[1], coarse_pair, stats


def _lattice_points(z: GeneratingVector, level: LevelParams, shift: np.ndarray):
    """The level's N lattice points under one random shift, in order."""
    for k in range(level.n_points):
        yield shift_and_center(lattice_point(z, level.n_points, k, dim=level.s), shift)


def _iid_points(seed: int, key: tuple, n: int, dim: int):
    """n i.i.d. uniform points on [-1/2, 1/2)^dim from the seeded stream ``key``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    for _ in range(n):
        yield rng.random(dim) - 0.5


def _run_stream(problem, level: LevelParams, points, options: EstimatorOptions):
    """Differences at the points of one stream, visited in order.

    Returns the differences, the per-sample stats and the stream's
    seconds.  With warm starts each sample starts from the previous
    sample's coarse pair, so the order of the points matters.
    """
    t0 = time.perf_counter()
    deltas, samples, warm = [], [], None
    for y in points:
        delta, pair, stats = sample_level_difference(
            problem, level, y, warm_state=warm, two_grid=options.two_grid)
        if options.warm_start:
            warm = pair
        deltas.append(delta)
        samples.append(stats)
    return deltas, samples, time.perf_counter() - t0


@dataclass
class LevelReport:
    """Per-level summary of the multilevel estimator."""

    ell: int
    h: float
    s: int
    coarse_h: float
    coarse_s: int
    n_points: int
    n_shifts: int
    per_shift: list
    q_hat: float
    variance: float
    cost_seconds: float
    linear_solves: int
    coarse_linear_solves: int
    factorizations: int
    rq_iterations_median: float
    work_units: float
    krylov_iterations: int


CSV_LEVEL_COLUMNS = [
    "level", "h", "s", "H", "S", "N", "R",
    "Q_hat", "V", "cost_seconds", "solves", "rq_iters_median", "krylov_iters",
]


@dataclass
class MlqmcReport:
    """Full record of a multilevel (or single-level) estimator run."""

    kind: str
    problem: str
    seed: int
    n_shifts: int
    options: dict
    levels: list
    estimate: float
    total_variance: float
    total_cost_seconds: float
    total_linear_solves: int
    total_work_units: float
    tolerance: float | None = None
    tolerance_achieved: bool | None = None
    trajectory: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def level_csv_rows(self) -> list[list]:
        rows = [list(CSV_LEVEL_COLUMNS)]
        for lv in self.levels:
            rows.append([
                lv.ell, repr(lv.h), lv.s, repr(lv.coarse_h), lv.coarse_s,
                lv.n_points, lv.n_shifts, repr(lv.q_hat), repr(lv.variance),
                repr(lv.cost_seconds), lv.linear_solves,
                repr(lv.rq_iterations_median), lv.krylov_iterations,
            ])
        return rows


def _sequential_mean(values) -> float:
    # left to right, the order the reference estimates were recorded in
    # (the builtin sum() compensates from Python 3.12 on)
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _level_report(level: LevelParams, streams: list) -> LevelReport:
    """The report row of one level from its streams' differences and stats.

    Lattice levels average the per-shift means and estimate the variance
    from their spread; an i.i.d. level has one stream (a lattice level
    has at least two) and uses the sample variance of the mean.
    """
    if len(streams) == 1:
        [(deltas, _, _)] = streams
        values = np.asarray(deltas)
        n = values.size
        q_hat = float(values.mean())
        per_shift = [q_hat]
        variance = float(values.var(ddof=1) / n)
    else:
        n = level.n_points
        per_shift = [_sequential_mean(deltas) for deltas, _, _ in streams]
        q_hat, variance = shift_average_and_variance(per_shift)
    samples = [stats for _, per_sample, _ in streams for stats in per_sample]
    total = SolveStats()
    for stats in samples:
        total.add(stats)
    return LevelReport(
        ell=level.ell,
        h=level.h,
        s=level.s,
        coarse_h=level.coarse_h,
        coarse_s=level.coarse_s,
        n_points=n,
        n_shifts=len(per_shift),
        per_shift=per_shift,
        q_hat=q_hat,
        variance=variance,
        cost_seconds=sum(seconds for _, _, seconds in streams),
        linear_solves=total.linear_solves,
        coarse_linear_solves=total.linear_solves - total.fine_linear_solves,
        factorizations=total.factorizations,
        rq_iterations_median=float(np.median([st.rq_iterations for st in samples])),
        work_units=total.work_units,
        krylov_iterations=total.krylov_iterations,
    )


def _run_levels(problem, levels, streams_of, options: EstimatorOptions,
                max_workers: int = 1) -> list[LevelReport]:
    """Every stream of every level, reduced in fixed order to one row per level.

    ``streams_of(level)`` gives the level's point streams: one per random
    shift of a lattice rule, or a single i.i.d. stream.
    """
    if not levels:
        raise ValueError("need at least one level")
    jobs = [(lv, points) for lv in levels for points in streams_of(lv)]

    def run(job):
        return _run_stream(problem, *job, options)

    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    by_level = {}
    for (lv, _), res in zip(jobs, results):
        by_level.setdefault(lv.ell, []).append(res)
    return [_level_report(lv, by_level[lv.ell]) for lv in levels]


def _lattice_levels(problem, levels, n_shifts: int, z: GeneratingVector, seed: int,
                    options: EstimatorOptions, max_workers: int) -> list[LevelReport]:
    if n_shifts < 2:
        raise ValueError("need at least 2 random shifts for a variance estimate")

    def streams_of(lv):
        return [_lattice_points(z, lv, random_shift(seed, lv.ell, r, lv.s))
                for r in range(n_shifts)]
    return _run_levels(problem, levels, streams_of, options, max_workers=max_workers)


def _finalize(kind: str, problem: CoefficientSeries, seed: int,
              options: EstimatorOptions, level_reports: list[LevelReport],
              **extra) -> MlqmcReport:
    return MlqmcReport(
        kind=kind,
        problem=problem.name,
        seed=seed,
        n_shifts=level_reports[0].n_shifts,
        options=asdict(options),
        levels=level_reports,
        estimate=float(sum(lv.q_hat for lv in level_reports)),
        total_variance=float(sum(lv.variance for lv in level_reports)),
        total_cost_seconds=float(sum(lv.cost_seconds for lv in level_reports)),
        total_linear_solves=int(sum(lv.linear_solves for lv in level_reports)),
        total_work_units=float(sum(lv.work_units for lv in level_reports)),
        **extra,
    )


def mlqmc_estimate(problem: CoefficientSeries, levels: list[LevelParams],
                   n_shifts: int, z: GeneratingVector, seed: int,
                   options: EstimatorOptions = EstimatorOptions(),
                   max_workers: int = 1) -> MlqmcReport:
    """Shift-averaged multilevel QMC estimate of E[lambda] over fixed levels."""
    reports = _lattice_levels(problem, levels, n_shifts, z, seed, options, max_workers)
    return _finalize("mlqmc", problem, seed, options, reports)


def _single_level(mesh_exponent: int, s: int, n_points: int = 1) -> LevelParams:
    return LevelParams(ell=0, mesh_exponent=mesh_exponent, s=s,
                       coarse_exponent=mesh_exponent, coarse_s=s, n_points=n_points)


def qmc_single_level(problem: CoefficientSeries, mesh_exponent: int, s: int,
                     n_points: int, n_shifts: int, z: GeneratingVector, seed: int,
                     options: EstimatorOptions = EstimatorOptions(),
                     max_workers: int = 1) -> MlqmcReport:
    """Single-level shift-averaged lattice estimator of E[lambda_{h,s}]."""
    level = _single_level(mesh_exponent, s, n_points)
    reports = _lattice_levels(problem, [level], n_shifts, z, seed, options, max_workers)
    return _finalize("qmc", problem, seed, options, reports)


def mc_estimate(problem: CoefficientSeries, mesh_exponent: int, s: int,
                n_samples: int, seed: int) -> MlqmcReport:
    """Plain Monte Carlo with i.i.d. uniform parameters and cold eigensolves."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a variance estimate")
    reports = _run_levels(
        problem, [_single_level(mesh_exponent, s)],
        lambda lv: [_iid_points(seed, (10001,), n_samples, lv.s)], _IID_OPTIONS)
    return _finalize("mc", problem, seed, _IID_OPTIONS, reports)


def mlmc_estimate(problem: CoefficientSeries, n_per_level: list[int], seed: int,
                  s: int = 64, s_policy: str = "fixed") -> MlqmcReport:
    """Multilevel Monte Carlo with i.i.d. sampling and direct (cold) solves."""
    if any(n < 2 for n in n_per_level):
        raise ValueError("need at least 2 samples per level for a variance estimate")
    levels = default_levels(n_per_level, s=s, s_policy=s_policy)
    reports = _run_levels(
        problem, levels,
        lambda lv: [_iid_points(seed, (10002, lv.ell), lv.n_points, lv.s)], _IID_OPTIONS)
    return _finalize("mlmc", problem, seed, _IID_OPTIONS, reports)


def largest_variance_per_work(levels: list[LevelReport]) -> int:
    """Index of the level whose variance per unit of work is largest.

    Doubling N there buys the most variance reduction per work; the
    adaptive driver and the baselines of ``compare`` share this rule.
    """
    return int(np.argmax([lv.variance / lv.work_units for lv in levels]))


def adaptive_mlqmc(problem: CoefficientSeries, tolerance: float, n_shifts: int,
                   z: GeneratingVector, seed: int,
                   options: EstimatorOptions = EstimatorOptions(),
                   s: int = 64, s_policy: str = "fixed",
                   base_exponent: int = 3, max_level: int = 6, max_workers: int = 1,
                   evaluated: dict | None = None) -> MlqmcReport:
    """Tolerance-driven multilevel QMC estimate of E[lambda].

    Starting from two levels with ``_N_INITIAL`` points each, the driver
    doubles N on the level with the largest variance-per-work ratio until the
    total variance is below eps^2/2, then extends the hierarchy while
    the bias estimate |Q_L| / (2^alpha - 1) exceeds eps/sqrt(2).  The
    doubling decision uses the deterministic per-sample work counters,
    so identical inputs reproduce identical trajectories.

    ``evaluated`` maps ``(LevelParams, n_shifts, seed, options)`` to the
    level's report.  A level found there is not computed again, and each
    level computed is stored there, so calls that share one dict (the
    tolerances of one sweep) estimate every level once.  A level's
    report depends only on that key, the problem and the generating
    vector, so every call sharing a dict must pass the same ``problem``
    and ``z``; then each call returns exactly what it would return
    alone, except for timing: ``cost_seconds`` and
    ``total_cost_seconds`` are the seconds spent on the levels behind
    the estimate, timed when each level was first computed.

    Raises ``MaxLevelExceededError`` when the bias test still fails at
    ``max_level``, or when a level needs more than ``z.n_max`` points;
    the levels computed until then stay in ``evaluated``.
    ``mlqmc-eig run`` then writes nothing if this was the first
    tolerance of its sweep, and the tolerances achieved before it
    otherwise.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if evaluated is None:
        evaluated = {}
    trajectory = []
    state = {}

    def evaluate(action, ell, n_points):
        lv = level_params(ell, n_points, s=s, s_policy=s_policy,
                          base_exponent=base_exponent)
        key = (lv, n_shifts, seed, options)
        if key not in evaluated:
            evaluated[key] = _lattice_levels(problem, [lv], n_shifts, z, seed,
                                             options, max_workers)[0]
        state[ell] = evaluated[key]
        trajectory.append({"action": action, "level": ell, "N": n_points})

    for ell in (0, 1):
        evaluate("add_level", ell, _N_INITIAL)

    var_target = tolerance ** 2 / 2.0
    bias_target = tolerance / math.sqrt(2.0)
    bias_factor = 2.0 ** _BIAS_ALPHA - 1.0

    while True:
        # a NaN variance never meets the target
        while not sum(rep.variance for rep in state.values()) <= var_target:
            ells = sorted(state)
            star = ells[largest_variance_per_work([state[ell] for ell in ells])]
            new_n = 2 * state[star].n_points
            if new_n > z.n_max:
                raise MaxLevelExceededError(
                    f"level {star} needs more than the generating vector's "
                    f"maximum of {z.n_max} points"
                )
            evaluate("double", star, new_n)
        top = max(state)
        bias_estimate = abs(state[top].q_hat) / bias_factor
        if bias_estimate <= bias_target:
            break
        if top >= max_level:
            raise MaxLevelExceededError(
                f"bias {bias_estimate:.3e} > {bias_target:.3e} at the level cap "
                f"{max_level}"
            )
        evaluate("add_level", top + 1, _N_INITIAL)

    return _finalize("mlqmc", problem, seed, options,
                     [state[ell] for ell in sorted(state)],
                     tolerance=tolerance, tolerance_achieved=True,
                     trajectory=trajectory)
