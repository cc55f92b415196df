"""Smallest-eigenpair solvers for the sparse pair (A, M).

Rayleigh quotient iteration does the heavy lifting: each step solves
(A - sigma_k M) w = M v_k and updates the shift with the Rayleigh
quotient, which converges cubically near a simple eigenpair.  Cold
starts are safeguarded with a few inverse-power iterations so the
iteration lands on the smallest eigenvalue; warm starts reuse the
eigenvector of a nearby parameter sample.  The two-grid scheme (Xu &
Zhou 2001) computes a fine-mesh eigenvalue from one coarse eigensolve
plus one shifted solve per fine mesh: its callers (a telescoped sample
in ``estimators``, the convergence study in ``cli``) solve the coarse
pair with the solvers here and pass it to ``two_grid_fine_update`` once
for each fine mesh.

That fine solve is direct (a SuperLU factorization) on meshes with
fewer than ``_KRYLOV_MIN_DOFS`` interior DOFs, h = 1/64.  From there it is
MINRES (Paige & Saunders 1975) on the symmetric indefinite operator
A(y) - lambda_H M, preconditioned by a multigrid V-cycle (Hackbusch
1985) built once per (mesh, problem) on the mean-field stiffness A(0),
the cached matrix that ``mesh_fem.stiffness_interior`` returns at y = 0:
Galerkin coarse operators P^T A P down to h = 1/8 with the ratio-2
prolongations of ``mesh_fem.prolongation``, one damped-Jacobi sweep
before and one after each coarse correction, and a dense Cholesky
factorization on the coarsest mesh.  Each solve rescales that cycle to
its sample, as S B S with S = diag(A(0))^(1/2) diag(A(y))^(-1/2): the
mean-based preconditioner of Powell & Elman (2009) with one diagonal
scaling added, which is exactly B at y = 0.  Both B and S B S are
symmetric positive definite, as MINRES requires of a preconditioner.
MINRES itself is ``_minres``, scipy's recurrences and stop tests from
a zero start with no shift, no printing and in-place vector updates.

The solvers reach scipy through two private entry points, verified on
scipy 1.17.1 (see ``sparse_linalg``): every factorization is one call of
SuperLU's ``_superlu.gstrf`` inside ``sparse_linalg.factorize_shifted``,
and every sparse product on the hot path (right-hand sides, Rayleigh
quotients, the V-cycle and the MINRES operator) is ``sparse_linalg.matvec``,
which runs ``_sparsetools.csr_matvec``, the kernel of ``S @ x``.  The
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
    SingularShiftError,
    factorize_shifted,
    m_inner,
    m_norm,
    matvec,
    rayleigh_quotient,
    shifted_operator,
)

_MAX_RQ_ITER = 50
_SHIFT_NUDGE = 1e-10
_MAX_SHIFT_ATTEMPTS = 3
_POWER_STEPS = 5
_VERIFY_ANGLE = 1e-3
_MAX_RESTARTS = 2

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
    """The eigenvalue iteration did not converge within its iteration budget."""


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


def rq_iteration(A, M, v0: np.ndarray, sigma0: float,
                 tol: float) -> tuple[Eigenpair, SolveStats]:
    """Rayleigh quotient iteration from (v0, sigma0).

    Stops when the shift changes by at most ``tol`` between iterations
    (an absolute eigenvalue criterion).  Singular shifted systems are
    retried with a multiplicative nudge of the shift.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
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
        if change <= tol:
            return _normalized_pair(sigma_new, v, M), stats
        sigma = sigma_new
    raise NoConvergenceError(
        f"RQ iteration did not converge in {_MAX_RQ_ITER} iterations "
        f"(last shift change {change:.3e})"
    )


def _gap_estimate(power_rqs: list[float], lam: float) -> float:
    """Crude spectral-gap estimate from the inverse-power shift history.

    Inverse iteration reduces the eigenvalue error by roughly
    (lam1/lam2)^2 per step, so the ratio of successive shift increments
    gives lam2.  Falls back to lam itself when the history is degenerate.
    """
    d1 = abs(power_rqs[-1] - power_rqs[-2])
    d2 = abs(power_rqs[-2] - power_rqs[-3])
    if d2 > 0.0 and d1 > 0.0:
        ratio = np.sqrt(d1 / d2)
        if 1e-8 < ratio < 0.999:
            lam2 = lam / ratio
            return min(lam2 - lam, lam)
    return lam


def smallest_eigenpair_cold(A, M, tol: float) -> tuple[Eigenpair, SolveStats]:
    """Smallest eigenpair from a deterministic cold start.

    Five inverse-power iterations from the all-ones vector bias the
    start towards the smallest eigenpair before handing over to RQ
    iteration.  Dominance is then verified with one extra inverse-power
    step at the converged shift minus half a crude gap estimate; on
    failure the solve restarts from a seeded random vector.
    """
    stats = SolveStats()
    n = A.shape[0]
    v = np.ones(n)
    for restart in range(1 + _MAX_RESTARTS):
        if restart:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=0x5EED, spawn_key=(restart,))
            )
            v = rng.standard_normal(n)
        op = _factorize_nudged(A, M, 0.0, stats)
        power_rqs = []
        for _ in range(_POWER_STEPS):
            v = op.solve(matvec(M, v))
            stats.linear_solves += 1
            v = v / m_norm(v, M)
            power_rqs.append(rayleigh_quotient(A, M, v))
        try:
            pair, rq_stats = rq_iteration(A, M, v, power_rqs[-1], tol)
        except NoConvergenceError:
            if restart == _MAX_RESTARTS:
                raise
            continue
        stats.add(rq_stats)
        rho = _gap_estimate(power_rqs, pair.lam)
        try:
            verify_op = _factorize_nudged(A, M, pair.lam - 0.5 * rho, stats)
        except SingularShiftError:
            if restart == _MAX_RESTARTS:
                raise
            continue
        w = verify_op.solve(matvec(M, pair.u))
        stats.linear_solves += 1
        cosine = abs(m_inner(w, pair.u, M)) / m_norm(w, M)
        angle = float(np.arccos(np.clip(cosine, -1.0, 1.0)))
        if angle <= _VERIFY_ANGLE:
            return pair, stats
    raise NoConvergenceError(
        "smallest-eigenpair safeguard kept failing the dominance check"
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


def smallest_eigenpair(A, M, tol: float,
                       warm: Eigenpair | None = None) -> tuple[Eigenpair, SolveStats]:
    """Warm-started RQ iteration when a nearby pair is available, else cold."""
    if warm is None:
        return smallest_eigenpair_cold(A, M, tol)
    v0, sigma0 = warm_start_from(warm, A, M)
    return rq_iteration(A, M, v0, sigma0, tol)


class _VCycle:
    """Symmetric multigrid V-cycle for the mean-field stiffness of one mesh.

    Level k holds the operator A_k, the damped inverse diagonal
    omega / diag(A_k), the prolongation P_k from the next coarser mesh
    and the restriction R_k = P_k^T, stored as CSR (its mat-vec sums in
    the same order as that of P_k.T); A_(k+1) = P_k^T A_k P_k.  A_0 is
    the cached A(0) of ``stiffness_interior``, so a two-grid update at
    y = 0 and its V-cycle share one matrix; ``diagonal`` is diag(A_0).
    ``apply`` approximates A_0^-1 r with one Jacobi sweep on each side
    of every coarse correction: the two smoothers are adjoint, so the
    cycle is symmetric, and with omega = 0.8 positive definite.
    """

    def __init__(self, mesh: TriMesh, problem: CoefficientSeries):
        A = stiffness_interior(mesh, problem, np.zeros(0))
        self.diagonal = A.diagonal()
        self.levels = []
        for m in range(mesh.level_exponent, _COARSEST_EXPONENT, -1):
            P = prolongation(build_uniform_mesh(m - 1), build_uniform_mesh(m))
            self.levels.append((A, _JACOBI_OMEGA / A.diagonal(), P, P.T.tocsr()))
            A = (P.T @ A @ P).tocsr()
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

