"""Smallest-eigenpair solvers for the sparse pair (A, M).

Rayleigh quotient iteration does the heavy lifting: each step solves
(A - sigma_k M) w = M v_k and updates the shift with the Rayleigh
quotient, which converges cubically near a simple eigenpair.  Cold
starts take a few inverse-power iterations so that the iteration lands
on the smallest eigenvalue, and each result is certified by the
inertia of one factorization below it (Sylvester's law of inertia, as
in spectrum slicing: Parlett 1980, Ericsson & Ruhe 1980).  Both
positive definite factorizations of a cold solve, at shift 0 for the
inverse-power steps and at the certifying shift
lambda (1 - ``_CERTIFY_MARGIN``), are
``sparse_linalg.factorize_positive_definite``: banded Cholesky up to
h = 1/128, SuperLU with diagonal pivots above.  The certificate is that
the second one succeeds: then no eigenvalue of (A, M) lies within a
relative 1e-6 below lambda or under it, so lambda is the smallest.
Every RQ step factors an indefinite operator with SuperLU.
Warm starts reuse the eigenvector of a nearby parameter sample.  The
two-grid scheme (Xu & Zhou 2001) computes a fine-mesh eigenvalue from
one coarse eigensolve plus one shifted solve per fine mesh: its callers
(a telescoped sample in ``estimators``, the convergence study in
``cli``) solve the coarse pair with the solvers here and pass it to
``two_grid_fine_update`` once for each fine mesh.

That fine solve is direct (a SuperLU factorization) on meshes with
fewer than ``_KRYLOV_MIN_DOFS`` interior DOFs, h = 1/64.  From there it is
MINRES (Paige & Saunders 1975) on the symmetric indefinite operator
A(y) - lambda_H M, preconditioned by a multigrid V-cycle (Hackbusch
1985) built once per (mesh, problem) on the mean-field stiffness A(0),
the cached matrix that ``mesh_fem.stiffness_interior`` returns at y = 0.
Its coarse operators are the cached A(0) of each coarser mesh down to
h = 1/8, not Galerkin products P^T A P, with the ratio-2 prolongations
of ``mesh_fem.prolongation`` between them, one damped-Jacobi sweep
before and one after each coarse correction, and a dense Cholesky
factorization on the coarsest mesh.  Each solve rescales that cycle to
its sample, as S B S with S = diag(A(0))^(1/2) diag(A(y))^(-1/2): the
mean-based preconditioner of Powell & Elman (2009) with one diagonal
scaling added, which is exactly B at y = 0.  Both B and S B S are
symmetric positive definite, as MINRES requires of a preconditioner.
MINRES itself is ``_minres``, scipy's recurrences and stop tests from
a zero start with no shift, no printing and in-place vector updates.

The solvers reach scipy through two private entry points, verified on
scipy 1.17.1 (see ``sparse_linalg``): every SuperLU factorization is one
call of its ``_superlu.gstrf``, and every sparse product on the hot path
(right-hand sides, Rayleigh quotients, the V-cycle and the MINRES
operator) is ``sparse_linalg.matvec``, which runs
``_sparsetools.csr_matvec``, the kernel of ``S @ x``.  The
oracle tests in ``tests/test_sparse_linalg.py`` pin both to the public
``splu`` and ``@``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrs

from .mesh_fem import (
    TriMesh,
    build_uniform_mesh,
    mass_interior,
    prolongate,
    prolongation,
    stiffness_interior,
)
from .problems import CoefficientSeries
from .sparse_linalg import (
    FactorizedOperator,
    NotPositiveDefiniteError,
    SingularShiftError,
    factorize_positive_definite,
    factorize_shifted,
    m_norm,
    matvec,
    rayleigh_quotient,
    shifted_operator,
)

# Rayleigh-quotient tolerance of every eigensolve: RQ iteration stops when
# the shift changes by at most this much
RQ_TOL = 5e-8
_MAX_RQ_ITER = 50
_SHIFT_NUDGE = 1e-10
_MAX_SHIFT_ATTEMPTS = 3
_POWER_STEPS = 10
_MAX_RESTARTS = 2

# the certificate factors at lambda (1 - _CERTIFY_MARGIN): far
# above the RQ tolerance in relative terms, and far below the relative
# gap to the second eigenvalue
_CERTIFY_MARGIN = 1e-6

# two-grid fine solves on meshes with at least this many interior DOFs
# (h = 1/64) use preconditioned MINRES.  Median of 25 updates, assembly
# included, Problem 1, s = 64, random y, one BLAS thread, on a shared
# 2-core host, direct vs MINRES: 2.2-2.6 vs 2.7-3.2 ms at h = 1/32 and
# 56-64 vs 24-32 ms at 1/128 in three runs; 9.1-15.4 vs 6.5-10.5 ms at
# 1/64 in eight runs, MINRES ahead in seven and level in one.  The two
# eigenvalues agree to 1.4e-14 relative.  With the rescaled one-sweep
# cycle, three runs at h = 1/32 give 2.3-3.7 vs 1.7-2.7 ms (Problem 1)
# and 2.9-3.2 vs 2.3-3.3 ms (Problem 2, MINRES ahead in two), with the
# eigenvalues 1.6e-15 and 9.9e-14 apart: the crossover is now at 1/32
# or below.  A cutoff at 31^2 would move Problem 2 estimates made at
# h = 1/32 by more than roundoff of the direct path
_KRYLOV_MIN_DOFS = 63 ** 2
# a looser tolerance moves the fine eigenvalue by up to 2.4e-12 relative
_MINRES_RTOL = 1e-12
_MINRES_MAX_ITER = 200
_JACOBI_OMEGA = 0.8
_COARSEST_EXPONENT = 3


class NoConvergenceError(RuntimeError):
    """The eigenvalue iteration did not converge within its iteration budget.

    ``stats`` holds the work spent by the ``rq_iteration`` that raised it,
    and is None where another solver raised it.
    """

    stats: "SolveStats | None" = None


@dataclass
class SolveStats:
    """Work counters for one eigensolve (or an accumulation of several).

    ``fine_linear_solves`` counts the shifted fine-mesh solves of two-grid
    updates among ``linear_solves``, direct or iterative;
    ``factorizations`` counts sparse factorizations only, and
    ``krylov_iterations`` the MINRES iterations of the iterative ones.
    ``work_units`` is the deterministic cost the estimators charge for
    the work (see ``estimators``).
    """

    rq_iterations: int = 0
    linear_solves: int = 0
    factorizations: int = 0
    fine_linear_solves: int = 0
    krylov_iterations: int = 0
    work_units: float = 0.0

    def add(self, other: "SolveStats") -> "SolveStats":
        self.rq_iterations += other.rq_iterations
        self.linear_solves += other.linear_solves
        self.factorizations += other.factorizations
        self.fine_linear_solves += other.fine_linear_solves
        self.krylov_iterations += other.krylov_iterations
        self.work_units += other.work_units
        return self


@dataclass
class Eigenpair:
    """Eigenvalue with its M-normalized, sign-fixed coefficient vector."""

    lam: float
    u: np.ndarray

    @property
    def dimension(self) -> int:
        return self.u.size


def _fix_sign(u: np.ndarray) -> np.ndarray:
    # largest-magnitude entry positive; np.argmax breaks ties at the lowest index
    if u[np.argmax(np.abs(u))] < 0.0:
        return -u
    return u


def _normalized_pair(lam: float, u: np.ndarray, M: sp.spmatrix) -> Eigenpair:
    u = u / m_norm(u, M)
    return Eigenpair(float(lam), _fix_sign(u))


def _factorize_nudged(A, M, sigma: float, stats: SolveStats) -> FactorizedOperator:
    """Factorize A - sigma*M, nudging sigma off near-singular shifts."""
    shift = sigma
    for attempt in range(1 + _MAX_SHIFT_ATTEMPTS):
        try:
            op = factorize_shifted(A, M, shift)
            stats.factorizations += 1
            return op
        except SingularShiftError:
            stats.factorizations += 1
            shift = shift + _SHIFT_NUDGE * (1.0 + abs(shift))
    raise SingularShiftError(
        f"shift {sigma:.17g} still singular after {_MAX_SHIFT_ATTEMPTS} nudges"
    )


def rq_iteration(A, M, v0: np.ndarray, sigma0: float) -> tuple[Eigenpair, SolveStats]:
    """Rayleigh quotient iteration from (v0, sigma0).

    Stops when the shift changes by at most ``RQ_TOL`` between iterations
    (an absolute eigenvalue criterion).  Singular shifted systems are
    retried with a multiplicative nudge of the shift.
    """
    v0 = np.asarray(v0, dtype=float)
    norm0 = m_norm(v0, M)
    if norm0 == 0.0:
        raise ValueError("starting vector must be nonzero")
    stats = SolveStats()
    v = v0 / norm0
    sigma = float(sigma0)
    change = float("inf")
    for _ in range(_MAX_RQ_ITER):
        op = _factorize_nudged(A, M, sigma, stats)
        w = op.solve(matvec(M, v))
        stats.linear_solves += 1
        v = w / m_norm(w, M)
        sigma_new = rayleigh_quotient(A, M, v)
        stats.rq_iterations += 1
        change = abs(sigma_new - sigma)
        if change <= RQ_TOL:
            return _normalized_pair(sigma_new, v, M), stats
        sigma = sigma_new
    error = NoConvergenceError(
        f"RQ iteration did not converge in {_MAX_RQ_ITER} iterations "
        f"(last shift change {change:.3e})"
    )
    error.stats = stats
    raise error


def smallest_eigenpair_cold(A, M) -> tuple[Eigenpair, SolveStats]:
    """Smallest eigenpair from a deterministic cold start.

    ``_POWER_STEPS`` inverse-power iterations from the all-ones vector
    bias the start towards the smallest eigenpair before handing over to
    RQ iteration at their last Rayleigh quotient.  The converged pair is
    accepted only if ``factorize_positive_definite`` succeeds at
    lambda (1 - ``_CERTIFY_MARGIN``), which certifies by its inertia that
    no eigenvalue lies below that shift, so lambda is the smallest.  The
    shift-0 operator of the power steps is the same kind of
    factorization.  A pair that is not certified restarts the solve from
    a seeded random vector, with the same shift-0 factorization; the work
    of a failed RQ iteration is counted, and every factorization and
    solve, banded or not, counts as a factorization and a solve.
    """
    stats = SolveStats()
    n = A.shape[0]
    v = np.ones(n)
    op = factorize_positive_definite(A, M, 0.0)
    stats.factorizations += 1
    for restart in range(1 + _MAX_RESTARTS):
        if restart:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=0x5EED, spawn_key=(restart,))
            )
            v = rng.standard_normal(n)
        for _ in range(_POWER_STEPS):
            v = op.solve(matvec(M, v))
            stats.linear_solves += 1
            v = v / m_norm(v, M)
        try:
            pair, rq_stats = rq_iteration(A, M, v, rayleigh_quotient(A, M, v))
        except NoConvergenceError as exc:
            if exc.stats is not None:
                stats.add(exc.stats)
            if restart == _MAX_RESTARTS:
                raise
            continue
        stats.add(rq_stats)
        stats.factorizations += 1
        try:
            factorize_positive_definite(A, M, pair.lam * (1.0 - _CERTIFY_MARGIN))
        except NotPositiveDefiniteError:
            continue
        return pair, stats
    raise NoConvergenceError(
        "smallest-eigenpair safeguard kept failing the certificate"
    )


def warm_start_from(previous: Eigenpair, A_current, M) -> tuple[np.ndarray, float]:
    """Starting vector and shift from a nearby sample's eigenpair.

    The start vector is the previous eigenvector; the start shift is its
    Rayleigh quotient with respect to the *current* operator.
    """
    if previous.dimension != A_current.shape[0]:
        raise ValueError(
            f"warm-start dimension {previous.dimension} does not match "
            f"operator size {A_current.shape[0]}"
        )
    v0 = previous.u
    return v0, rayleigh_quotient(A_current, M, v0)


def smallest_eigenpair(A, M, *, warm: Eigenpair | None = None
                       ) -> tuple[Eigenpair, SolveStats]:
    """Warm-started RQ iteration when a nearby pair is available, else cold."""
    if warm is None:
        return smallest_eigenpair_cold(A, M)
    v0, sigma0 = warm_start_from(warm, A, M)
    return rq_iteration(A, M, v0, sigma0)


class _VCycle:
    """Symmetric multigrid V-cycle for the mean-field stiffness of one mesh.

    Level k holds the operator A_k, the damped inverse diagonal
    omega / diag(A_k), the prolongation P_k from the next coarser mesh
    and the restriction R_k = P_k.T, the CSC view on P_k's own arrays
    (no copy; its mat-vec is the kernel of P_k.T @ r, bitwise).  Every
    A_k is the cached A(0) of ``stiffness_interior`` on its mesh, so a
    two-grid update at y = 0 and its V-cycle share one matrix, and the
    cycle builds no operator of its own; ``diagonal`` is diag(A_0).
    ``apply`` approximates A_0^-1 r with one Jacobi sweep on each side
    of every coarse correction.  The two smoothers are adjoint, so the
    cycle is symmetric.  With omega = 0.8 the symmetrised smoother is
    positive definite, and a positive definite coarse operator (the
    A(0) of a mesh, or the exact inverse on the coarsest) keeps the
    cycle positive definite, level by level.
    """

    def __init__(self, mesh: TriMesh, problem: CoefficientSeries):
        A = stiffness_interior(mesh, problem, np.zeros(0))
        self.diagonal = A.diagonal()
        self.levels = []
        for m in range(mesh.level_exponent, _COARSEST_EXPONENT, -1):
            coarse = build_uniform_mesh(m - 1)
            P = prolongation(coarse, build_uniform_mesh(m))
            self.levels.append((A, _JACOBI_OMEGA / A.diagonal(), P, P.T))
            A = stiffness_interior(coarse, problem, np.zeros(0))
        # dpotrs is the LAPACK call of scipy.linalg.cho_solve, bitwise
        self.coarsest, self.lower = scipy.linalg.cho_factor(A.toarray())

    def apply(self, r: np.ndarray, k: int = 0) -> np.ndarray:
        if k == len(self.levels):
            return dpotrs(self.coarsest, r, lower=self.lower)[0]
        A, inv_diag, P, R = self.levels[k]
        x = inv_diag * r
        x += matvec(P, self.apply(matvec(R, r - matvec(A, x)), k + 1))
        x += inv_diag * (r - matvec(A, x))
        return x


@lru_cache(maxsize=8)
def _vcycle(mesh: TriMesh, problem: CoefficientSeries) -> _VCycle:
    return _VCycle(mesh, problem)


def _minres(K: sp.csr_matrix, b: np.ndarray,
            precondition: Callable[[np.ndarray], np.ndarray]
            ) -> tuple[np.ndarray, int, bool]:
    """K x = b by preconditioned MINRES from x = 0: (x, iterations, converged).

    The recurrences and stop tests of ``scipy.sparse.linalg.minres``
    (itself a translation of Paige & Saunders' MATLAB code) at
    ``rtol=_MINRES_RTOL``, ``maxiter=_MINRES_MAX_ITER`` and no shift:
    it stops on either rtol test, on the cond(K) and machine-precision
    exits, or after one step when b spans a preconditioned eigenvector;
    ``converged`` is False only when none of them fired by the cap.
    ``precondition`` must return a new array: the Lanczos vector is
    scaled in place.
    """
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    r1 = r2 = b.copy()
    y = precondition(r1)
    beta1 = float(r1 @ y)
    if beta1 < 0.0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0.0:
        return x, 0, True
    beta = beta1 = math.sqrt(beta1)
    oldb = dbar = epsln = tnorm2 = gmax = 0.0
    gmin = np.finfo(float).max
    phibar, cs, sn = beta1, -1.0, 0.0
    w, w1, w2 = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)
    for itn in range(1, _MINRES_MAX_ITER + 1):
        v = y   # the next Lanczos vector, scaled in place
        v *= 1.0 / beta
        y = matvec(K, v)
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        y = precondition(r2)
        oldb, beta = beta, float(r2 @ y)
        if beta < 0.0:
            raise ValueError("non-symmetric matrix")
        beta = math.sqrt(beta)
        tnorm2 += alfa ** 2 + oldb ** 2 + beta ** 2
        eigenvector = itn == 1 and beta / beta1 <= 10 * eps
        # previous rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w = (v - oldeps w1 - delta w2) / gamma into the oldest buffer
        w1, w2, w = w2, w, w1
        np.multiply(w1, oldeps, out=w)
        np.subtract(v, w, out=w)
        w -= delta * w2
        w *= 1.0 / gamma
        x += phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        Anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(x @ x)
        test1 = phibar / (Anorm * ynorm) if ynorm and Anorm else math.inf
        test2 = root / Anorm if Anorm else math.inf
        if (eigenvector or min(test1, test2) <= _MINRES_RTOL or 1.0 + test1 <= 1.0
                or 1.0 + test2 <= 1.0 or gmax / gmin >= 0.1 / eps
                or Anorm * ynorm * eps >= beta1):
            return x, itn, True
    return x, _MINRES_MAX_ITER, False


def _minres_solve(A: sp.csr_matrix, K: sp.csr_matrix, b: np.ndarray, mesh: TriMesh,
                  problem: CoefficientSeries, stats: SolveStats) -> np.ndarray:
    """K x = b by MINRES with the mesh's V-cycle, rescaled to A = A(y), as preconditioner."""
    vcycle = _vcycle(mesh, problem)
    # diag(A(y)) > 0 by the coefficient bound; the scale is 1.0 at y = 0
    scale = np.sqrt(vcycle.diagonal / A.diagonal())
    x, iterations, converged = _minres(K, b, lambda r: scale * vcycle.apply(scale * r))
    stats.krylov_iterations += iterations
    if not converged:
        residual = np.linalg.norm(b - K @ x) / np.linalg.norm(b)
        raise NoConvergenceError(
            f"MINRES did not converge in {iterations} iterations on {mesh!r} "
            f"(relative residual {residual:.3e})"
        )
    return x


def two_grid_fine_update(problem: CoefficientSeries, y: np.ndarray,
                         coarse_mesh: TriMesh, coarse_pair: Eigenpair,
                         fine_mesh: TriMesh, s: int
                         ) -> tuple[float, np.ndarray, SolveStats]:
    """One shifted fine-mesh solve followed by the Rayleigh-quotient update.

    Solves (A_s - lam_coarse * M) u = M u_coarse on the fine mesh with the
    prolonged coarse eigenvector as source, normalizes in M, and returns
    the Rayleigh quotient as the fine eigenvalue approximation.  The
    solve is direct below ``_KRYLOV_MIN_DOFS`` interior DOFs and
    preconditioned MINRES above; a MINRES run that misses its tolerance
    within ``_MINRES_MAX_ITER`` iterations raises NoConvergenceError.
    """
    stats = SolveStats()
    y = np.asarray(y, dtype=float)
    A = stiffness_interior(fine_mesh, problem, y[:s])
    M = mass_interior(fine_mesh, problem)
    b = matvec(M, prolongate(coarse_pair.u, coarse_mesh, fine_mesh))
    if fine_mesh.n_interior < _KRYLOV_MIN_DOFS:
        u = _factorize_nudged(A, M, coarse_pair.lam, stats).solve(b)
    else:
        u = _minres_solve(A, shifted_operator(A, M, coarse_pair.lam), b, fine_mesh,
                          problem, stats)
    stats.linear_solves += 1
    stats.fine_linear_solves += 1
    u = u / m_norm(u, M)
    lam = rayleigh_quotient(A, M, u)
    return float(lam), _fix_sign(u), stats

