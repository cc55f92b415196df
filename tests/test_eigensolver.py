import copy
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, minres

from mlqmc_eig import (
    CoefficientSeries,
    LevelParams,
    NoConvergenceError,
    SingularShiftError,
    SolveStats,
    build_uniform_mesh,
    lattice_point,
    level_params,
    mass_interior,
    m_inner,
    problem1,
    problem2,
    prolongate,
    random_shift,
    rayleigh_quotient,
    rq_iteration,
    shift_and_center,
    smallest_eigenpair_cold,
    stiffness_interior,
    warm_start_from,
)
from mlqmc_eig import eigensolver, mesh_fem, sparse_linalg
from mlqmc_eig.eigensolver import RQ_TOL, two_grid_fine_update
from mlqmc_eig.sparse_linalg import (
    NotPositiveDefiniteError,
    factorize_positive_definite,
    shifted_operator,
)
from series import constant_terms


def unit_series():
    return CoefficientSeries(
        name="unit",
        a0=lambda x: np.ones(np.broadcast(*x).shape),
        a_term=constant_terms(),
        c=lambda x: np.ones(np.broadcast(*x).shape),
        a_min=1.0,
    )


def laplacian_pair(m, prob):
    mesh = build_uniform_mesh(m)
    A = stiffness_interior(mesh, prob, np.zeros(1))
    M = mass_interior(mesh, prob)
    return A, M


def dense_smallest(A, M):
    lams, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
    return lams[0], vecs[:, 0]


class TestRqIteration:
    def test_exact_start_one_iteration(self):
        A = sp.diags([1.0, 2.0]).tocsr()
        M = sp.identity(2, format="csr")
        pair, stats = rq_iteration(A, M, np.array([1.0, 0.0]), 1.0)
        assert pair.lam == pytest.approx(1.0, abs=1e-12)
        assert stats.rq_iterations == 1

    def test_generic_start_against_dense_oracle(self):
        A = sp.diags([1.0, 2.0]).tocsr()
        M = sp.identity(2, format="csr")
        v0 = np.array([2.0, 1.0]) / math.sqrt(5)
        sigma0 = rayleigh_quotient(A, M, v0)
        assert sigma0 == pytest.approx(1.2)
        pair, _ = rq_iteration(A, M, v0, sigma0)
        lam_exact, _ = dense_smallest(A, M)
        assert pair.lam == pytest.approx(lam_exact, abs=1e-10)

    def test_laplacian_cold_start_vs_dense(self, prob1):
        A, M = laplacian_pair(3, prob1)
        pair, _ = smallest_eigenpair_cold(A, M)
        lam_exact, _ = dense_smallest(A, M)
        assert abs(pair.lam - lam_exact) <= RQ_TOL

    def test_rejects_zero_start(self):
        A = sp.identity(2, format="csr")
        with pytest.raises(ValueError):
            rq_iteration(A, A, np.zeros(2), 0.0)

    def test_eigenpair_invariants(self, prob1):
        A, M = laplacian_pair(3, prob1)
        pair, _ = smallest_eigenpair_cold(A, M)
        assert m_inner(pair.u, pair.u, M) == pytest.approx(1.0, abs=1e-10)
        res = A @ pair.u - pair.lam * (M @ pair.u)
        assert np.linalg.norm(res) / np.linalg.norm(pair.u) <= 100 * RQ_TOL
        assert pair.u[np.argmax(np.abs(pair.u))] > 0


class TestColdStart:
    def test_laplacian_value(self, prob1):
        # FE error at h=1/8 on this triangulation is 0.766 (verified against
        # the dense oracle); the next eigenvalue sits ~30 away
        A, M = laplacian_pair(3, prob1)
        pair, _ = smallest_eigenpair_cold(A, M)
        assert pair.lam >= 2 * math.pi ** 2
        assert pair.lam == pytest.approx(2 * math.pi ** 2, abs=1.0)

    def test_selects_smallest_not_first(self):
        A = sp.diags([3.0, 1.0, 2.0]).tocsr()
        M = sp.identity(3, format="csr")
        pair, _ = smallest_eigenpair_cold(A, M)
        assert pair.lam == pytest.approx(1.0, abs=1e-10)

    def test_problem1_at_origin_equals_laplacian(self, prob1):
        A1, M1 = laplacian_pair(3, prob1)
        A2 = stiffness_interior(build_uniform_mesh(3), unit_series(), np.zeros(1))
        M2 = mass_interior(build_uniform_mesh(3), unit_series())
        assert (A1 - A2).nnz == 0 or np.abs((A1 - A2).toarray()).max() == 0
        p1, _ = smallest_eigenpair_cold(A1, M1)
        p2, _ = smallest_eigenpair_cold(A2, M2)
        assert p1.lam == p2.lam

    def test_certified_at_the_first_attempt_above_the_banded_cutoff(self, prob2):
        # Problem 2 at h = 1/256, 65025 DOFs: the factorizations at shift 0
        # and at the certificate are SuperLU's with diagonal pivots, whose
        # inertia is known right next to lambda
        mesh = build_uniform_mesh(8)
        A = stiffness_interior(mesh, prob2, np.random.default_rng(0).random(64) - 0.5)
        M = mass_interior(mesh, prob2)
        assert A.shape[0] > sparse_linalg._BANDED_MAX_DOFS
        pair, stats = smallest_eigenpair_cold(A, M)
        assert (stats.factorizations, stats.rq_iterations) == (3, 1)
        with pytest.raises(NotPositiveDefiniteError):
            factorize_positive_definite(A, M, pair.lam * (1 + 1e-6))


def cold_case(prob):
    """P1 at m = 4 and y = 0.3 (s = 64): a plain cold solve takes three
    factorizations, one at shift 0, one RQ step and the certifying one, and
    eleven solves, ten power steps and the RQ step."""
    mesh = build_uniform_mesh(4)
    return stiffness_interior(mesh, prob, np.full(64, 0.3)), mass_interior(mesh, prob)


def second_eigenvalue_case(prob):
    """m = 4 at y = rng(0).random(64) - 0.5, with the dense eigenpairs."""
    mesh = build_uniform_mesh(4)
    A = stiffness_interior(mesh, prob, np.random.default_rng(0).random(64) - 0.5)
    M = mass_interior(mesh, prob)
    lams, vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
    return A, M, lams, vecs


def counts(stats):
    """(factorizations, linear solves, RQ steps) of ``stats``."""
    return stats.factorizations, stats.linear_solves, stats.rq_iterations


def assert_restarts_from_lambda_2(A, M, lams, vecs, monkeypatch):
    """An RQ attempt started at the second eigenpair converges there; a
    check that accepts any converged pair returns lambda_2."""
    calls = []
    rq_iteration = eigensolver.rq_iteration

    def first_to_lambda_2(A, M, v, sigma):
        calls.append(sigma)
        if len(calls) == 1:
            return rq_iteration(A, M, vecs[:, 1], lams[1])
        return rq_iteration(A, M, v, sigma)
    monkeypatch.setattr(eigensolver, "rq_iteration", first_to_lambda_2)
    pair, _ = smallest_eigenpair_cold(A, M)
    assert pair.lam == pytest.approx(lams[0], rel=1e-13, abs=0.0)
    assert len(calls) == 2


class TestSafeguardFailures:
    """The cold solve's restart and failure paths, reached by injection.

    Here on the banded path that cold solves take up to
    ``sparse_linalg._BANDED_MAX_DOFS`` interior DOFs: the certificate is
    a banded Cholesky factorization at lambda (1 - 1e-6) that succeeds."""

    def fail_first_certificate(self, monkeypatch) -> list:
        """The first certificate of the next cold solve fails; returns its shifts."""
        failed = []

        def certificate_fails_once(A, M, sigma):
            # only the certificate; the shift-0 factorization runs as usual
            if sigma != 0.0 and not failed:
                failed.append(sigma)
                raise NotPositiveDefiniteError("injected")
            return factorize_positive_definite(A, M, sigma)
        monkeypatch.setattr(eigensolver, "factorize_positive_definite",
                            certificate_fails_once)
        return failed

    def fail_every_certificate(self, monkeypatch) -> None:
        def certificate_fails(A, M, sigma):
            if sigma != 0.0:
                raise NotPositiveDefiniteError("injected")
            return factorize_positive_definite(A, M, sigma)
        monkeypatch.setattr(eigensolver, "factorize_positive_definite", certificate_fails)

    def test_restarts_after_rq_no_convergence(self, prob1, monkeypatch):
        A, M = cold_case(prob1)
        plain, plain_stats = smallest_eigenpair_cold(A, M)
        assert counts(plain_stats) == (3, 11, 1)
        calls, done = [], []
        rq_iteration = eigensolver.rq_iteration

        def first_fails(*args):
            calls.append(args)
            if len(calls) == 1:
                raise NoConvergenceError("injected")
            pair, rq_stats = rq_iteration(*args)
            done.append(rq_stats)
            return pair, rq_stats
        monkeypatch.setattr(eigensolver, "rq_iteration", first_fails)
        pair, stats = smallest_eigenpair_cold(A, M)
        assert len(calls) == 2
        assert pair.lam == pytest.approx(plain.lam, rel=1e-13, abs=0.0)
        # the failed start made no RQ step, and its shift-0 factorization
        # serves the restart too: shift 0, two rounds of power solves, the
        # restart's RQ work and the certificate
        (restart,) = done
        assert restart.rq_iterations >= 1
        assert counts(stats) == (1 + restart.factorizations + 1,
                                 2 * eigensolver._POWER_STEPS + restart.linear_solves,
                                 restart.rq_iterations)

    def test_counts_the_work_of_a_failed_rq_attempt(self, prob1, monkeypatch):
        A, M = cold_case(prob1)
        plain, plain_stats = smallest_eigenpair_cold(A, M)
        # plain is shift 0 with ten power solves, one RQ step and the
        # certificate
        assert counts(plain_stats) == (3, 11, 1)
        calls, spent = [], []
        rq_iteration = eigensolver.rq_iteration

        def first_capped(A, M, v, sigma):
            # the first attempt takes one RQ step from the all-ones vector
            # at shift 0, which does not converge, then gives up
            calls.append(sigma)
            if len(calls) == 1:
                with monkeypatch.context() as patch:
                    patch.setattr(eigensolver, "_MAX_RQ_ITER", 1)
                    try:
                        return rq_iteration(A, M, np.ones(A.shape[0]), 0.0)
                    except NoConvergenceError as exc:
                        spent.append(exc.stats)
                        raise
            pair, rq_stats = rq_iteration(A, M, v, sigma)
            spent.append(rq_stats)
            return pair, rq_stats
        monkeypatch.setattr(eigensolver, "rq_iteration", first_capped)
        pair, stats = smallest_eigenpair_cold(A, M)
        assert len(calls) == 2
        assert pair.lam == pytest.approx(plain.lam, rel=1e-13, abs=0.0)
        # (factorizations, solves, RQ steps): shift 0, two rounds of power
        # solves, the failed attempt's one step, the restart's RQ work and
        # the certificate, and no second shift-0 factorization
        failed, restart = spent
        assert failed.rq_iterations == failed.linear_solves == 1
        assert counts(stats) == (
            1 + failed.factorizations + restart.factorizations + 1,
            2 * eigensolver._POWER_STEPS + failed.linear_solves + restart.linear_solves,
            failed.rq_iterations + restart.rq_iterations)

    def test_restarts_when_rq_lands_on_the_second_eigenvalue(self, prob1, monkeypatch):
        A, M, lams, vecs = second_eigenvalue_case(prob1)
        assert lams[:2] == pytest.approx([19.858, 49.968], abs=1e-3)
        assert_restarts_from_lambda_2(A, M, lams, vecs, monkeypatch)

    def test_restarts_when_rq_lands_on_the_second_eigenvalue_p2(self, prob2, monkeypatch):
        # Problem 2 has lambda_2 < 2 lambda_1, so a certificate at
        # lambda_2 / 2 or below would accept lambda_2
        A, M, lams, vecs = second_eigenvalue_case(prob2)
        assert lams[:2] == pytest.approx([0.8147, 1.3458], abs=1e-4)
        assert_restarts_from_lambda_2(A, M, lams, vecs, monkeypatch)

    def test_restarts_after_a_failed_certificate(self, prob1, monkeypatch):
        A, M = cold_case(prob1)
        plain, plain_stats = smallest_eigenpair_cold(A, M)
        failed = self.fail_first_certificate(monkeypatch)
        pair, stats = smallest_eigenpair_cold(A, M)
        assert len(failed) == 1 and 0.0 < failed[0] < plain.lam
        assert pair.lam == pytest.approx(plain.lam, rel=1e-13, abs=0.0)
        assert stats.factorizations > plain_stats.factorizations

    def test_raises_when_the_certificate_keeps_failing(self, prob1, monkeypatch):
        self.fail_every_certificate(monkeypatch)
        with pytest.raises(NoConvergenceError, match="kept failing the certificate"):
            smallest_eigenpair_cold(*cold_case(prob1))

    def test_nudges_then_raises_on_a_singular_shift(self, prob1, monkeypatch):
        shifts = []

        def always_singular(A, M, sigma):
            shifts.append(sigma)
            raise SingularShiftError("injected")
        monkeypatch.setattr(eigensolver, "factorize_shifted", always_singular)
        stats = SolveStats()
        with pytest.raises(SingularShiftError, match="still singular after 3 nudges"):
            eigensolver._factorize_nudged(*cold_case(prob1), 20.0, stats)
        assert stats.factorizations == 4
        assert shifts[0] == 20.0 and all(b > a for a, b in zip(shifts, shifts[1:]))

    def test_rq_iteration_cap_raises(self, prob1, monkeypatch):
        monkeypatch.setattr(eigensolver, "_MAX_RQ_ITER", 1)
        A, M = cold_case(prob1)
        with pytest.raises(NoConvergenceError, match="did not converge in 1 iterations"):
            rq_iteration(A, M, np.ones(A.shape[0]), 0.0)


class TestSafeguardFailuresSuperLU(TestSafeguardFailures):
    """The same paths above the banded cutoff, patched down to 0: both
    positive definite factorizations are SuperLU's with diagonal pivots."""

    @pytest.fixture(autouse=True)
    def superlu_only(self, monkeypatch):
        monkeypatch.setattr(sparse_linalg, "_BANDED_MAX_DOFS", 0)


class TestMonotoneConvergence:
    def test_fe_values_decrease_with_refinement(self, prob1):
        lams = []
        for m in (3, 4, 5):
            pair, _ = smallest_eigenpair_cold(*laplacian_pair(m, prob1))
            lams.append(pair.lam)
        assert lams[0] >= lams[1] >= lams[2]
        richardson = lams[-1] + (lams[-1] - lams[-2]) / 3.0
        assert all(lam >= richardson for lam in lams)


class TestTwoGrid:
    def test_same_grids_reproduce_direct(self, prob1, rng, two_grid):
        mesh = build_uniform_mesh(4)
        y = rng.random(16) - 0.5
        A = stiffness_interior(mesh, prob1, y)
        M = mass_interior(mesh, prob1)
        direct, _ = smallest_eigenpair_cold(A, M)
        lam_tg, _ = two_grid(prob1, y, (mesh, 16), (mesh, 16))
        assert abs(lam_tg - direct.lam) <= 1e-8

    def test_laplacian_two_grid_error_below_fe_error(self, prob1, two_grid):
        y = np.zeros(64)
        coarse = build_uniform_mesh(3)
        fine = build_uniform_mesh(5)
        lam_tg, _ = two_grid(prob1, y, (coarse, 8), (fine, 64))
        direct, _ = smallest_eigenpair_cold(
            stiffness_interior(fine, prob1, y), mass_interior(fine, prob1)
        )
        fe_error = abs(direct.lam - 2 * math.pi ** 2)
        assert abs(lam_tg - direct.lam) < 0.05 * fe_error

    def test_two_grid_h2_convergence(self, prob1, two_grid):
        # two-grid eigenvalues keep the h^2 rate of the direct solve
        y = np.zeros(64)
        coarse = build_uniform_mesh(3)
        errs = []
        for m in (4, 5, 6):
            lam, _ = two_grid(prob1, y, (coarse, 8), (build_uniform_mesh(m), 64))
            errs.append(lam - 2 * math.pi ** 2)
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_consistency_on_random_sample(self, prob1, rng, two_grid):
        y = rng.random(64) - 0.5
        coarse = build_uniform_mesh(3)
        fine = build_uniform_mesh(5)
        lam_tg, _ = two_grid(prob1, y, (coarse, 8), (fine, 64))
        A = stiffness_interior(fine, prob1, y)
        M = mass_interior(fine, prob1)
        direct, _ = smallest_eigenpair_cold(A, M)
        lams_direct = []
        for m in (4, 5):
            Am = stiffness_interior(build_uniform_mesh(m), prob1, y)
            Mm = mass_interior(build_uniform_mesh(m), prob1)
            p, _ = smallest_eigenpair_cold(Am, Mm)
            lams_direct.append(p.lam)
        richardson = lams_direct[-1] + (lams_direct[-1] - lams_direct[-2]) / 3.0
        assert abs(lam_tg - direct.lam) <= 0.05 * abs(direct.lam - richardson)

    def test_update_scaling_invariance(self, prob1, rng, two_grid):
        # the Rayleigh update is invariant under scaling the fine solution
        y = rng.random(64) - 0.5
        coarse = build_uniform_mesh(3)
        fine = build_uniform_mesh(4)
        A = stiffness_interior(fine, prob1, y)
        M = mass_interior(fine, prob1)
        lam, u = two_grid(prob1, y, (coarse, 8), (fine, 64))
        lam_scaled = rayleigh_quotient(A, M, 7.3 * u)
        assert lam_scaled == pytest.approx(lam, rel=1e-13)

    def test_rejects_inverted_hierarchy(self, prob1, two_grid):
        # a coarse mesh finer than the fine one is not nested in it; an
        # inverted truncation is refused by the level parameters
        m4 = build_uniform_mesh(4)
        m3 = build_uniform_mesh(3)
        with pytest.raises(ValueError, match="not nested"):
            two_grid(prob1, np.zeros(8), (m4, 8), (m3, 8))
        with pytest.raises(ValueError, match="coarse truncation"):
            LevelParams(ell=1, mesh_exponent=4, s=8, coarse_exponent=3, coarse_s=16,
                        n_points=16, prev_s=8)


def coarse_pair_at(problem, y, m=3, s=8):
    mesh = build_uniform_mesh(m)
    pair, _ = smallest_eigenpair_cold(stiffness_interior(mesh, problem, y[:s]),
                                      mass_interior(mesh, problem))
    return mesh, pair


class TestMultigridUpdate:
    @pytest.mark.parametrize("m", [6, 7])
    @pytest.mark.parametrize("name", ["prob1", "prob2"])
    def test_matches_direct_update(self, name, m, rng, monkeypatch, request):
        # from h = 1/64 (the cutoff) the update runs MINRES
        problem = request.getfixturevalue(name)
        y = rng.random(16) - 0.5
        coarse, pair = coarse_pair_at(problem, y)
        fine = build_uniform_mesh(m)
        lam_mg, u_mg, st_mg = two_grid_fine_update(problem, y, coarse, pair, fine, 16)
        monkeypatch.setattr(eigensolver, "_KRYLOV_MIN_DOFS", fine.n_interior + 1)
        lam_lu, u_lu, st_lu = two_grid_fine_update(problem, y, coarse, pair, fine, 16)
        assert abs(lam_mg - lam_lu) <= 1e-12 * lam_lu
        assert np.abs(u_mg - u_lu).max() <= 1e-8 * np.abs(u_lu).max()
        assert (st_mg.factorizations, st_mg.linear_solves, st_mg.fine_linear_solves) \
            == (0, 1, 1)
        assert 0 < st_mg.krylov_iterations <= eigensolver._MINRES_MAX_ITER
        assert (st_lu.factorizations, st_lu.krylov_iterations) == (1, 0)

    def test_stays_direct_below_cutoff(self, prob1, rng):
        # h = 1/32 is the finest mesh whose update is one factorization
        y = rng.random(16) - 0.5
        coarse, pair = coarse_pair_at(prob1, y)
        fine = build_uniform_mesh(5)
        _, _, stats = two_grid_fine_update(prob1, y, coarse, pair, fine, 16)
        assert (stats.factorizations, stats.krylov_iterations) == (1, 0)
        assert (stats.linear_solves, stats.fine_linear_solves) == (1, 1)

    def test_vcycle_is_symmetric_positive_definite(self, prob2):
        mesh = build_uniform_mesh(5)
        vcycle = eigensolver._VCycle(mesh, prob2)
        B = np.column_stack([vcycle.apply(e) for e in np.eye(mesh.n_interior)])
        assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()
        assert np.linalg.eigvalsh(0.5 * (B + B.T))[0] > 0.0
        # each stored restriction is P.T, the CSC view on P's own arrays,
        # and the cycle is bitwise the one that restricts with a CSR copy
        for _, _, P, R in vcycle.levels:
            assert R.format == "csc"
            assert all(np.shares_memory(r, p) for r, p in
                       [(R.data, P.data), (R.indices, P.indices), (R.indptr, P.indptr)])
            assert np.array_equal(R.toarray(), P.T.toarray())
        transposed = copy.copy(vcycle)
        transposed.levels = [(A, d, P, P.T.tocsr()) for A, d, P, _ in vcycle.levels]
        for r in np.random.default_rng(5).standard_normal((5, mesh.n_interior)):
            assert vcycle.apply(r).tobytes() == transposed.apply(r).tobytes()

    @pytest.mark.parametrize("name", ["prob1", "prob2"])
    def test_rescaled_vcycle_is_symmetric_positive_definite(self, name, request):
        # the preconditioner of one solve, S B S with S^2 = diag(A(0)) / diag(A(y))
        problem = request.getfixturevalue(name)
        mesh = build_uniform_mesh(5)
        y = np.random.default_rng(7).random(16) - 0.5
        A = stiffness_interior(mesh, problem, y)
        vcycle = eigensolver._VCycle(mesh, problem)
        scale = np.sqrt(vcycle.diagonal / A.diagonal())
        assert np.abs(scale - 1.0).max() > 1e-3
        B = np.column_stack([scale * vcycle.apply(scale * e)
                             for e in np.eye(mesh.n_interior)])
        assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()
        assert np.linalg.eigvalsh(0.5 * (B + B.T))[0] > 0.0

    @pytest.mark.parametrize("m", [5, 6, 7])
    @pytest.mark.parametrize("name", ["prob1", "prob2"])
    def test_minres_matches_scipy(self, name, m, rng, request):
        # scipy's minres, on the same operator, right-hand side and rescaled
        # V-cycle, is the oracle of the in-house recurrences and stop tests
        problem = request.getfixturevalue(name)
        y = rng.random(16) - 0.5
        coarse, pair = coarse_pair_at(problem, y)
        fine = build_uniform_mesh(m)
        A = stiffness_interior(fine, problem, y)
        M = mass_interior(fine, problem)
        K = shifted_operator(A, M, pair.lam)
        b = M @ prolongate(pair.u, coarse, fine)
        vcycle = eigensolver._vcycle(fine, problem)
        scale = np.sqrt(vcycle.diagonal / A.diagonal())

        def precondition(r):
            return scale * vcycle.apply(scale * r)

        x, iterations, converged = eigensolver._minres(K, b, precondition)
        calls = []
        n = fine.n_interior
        x_ref, info = minres(LinearOperator((n, n), matvec=lambda v: K @ v, dtype=float),
                             b, rtol=eigensolver._MINRES_RTOL,
                             maxiter=eigensolver._MINRES_MAX_ITER,
                             M=LinearOperator((n, n), matvec=precondition, dtype=float),
                             callback=calls.append)
        assert converged and info == 0
        assert iterations == len(calls)
        assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()

    def test_mean_minres_iterations_at_h_1_128(self, prob1, zvec):
        # P1 updates at m = 7 on the 16 lattice points of level 4 (shift 0,
        # seed 0), each from the warm coarse pair of the point before: the
        # rescaled one-sweep cycle takes 13.0 iterations on average, the
        # unscaled two-sweep cycle 15.5, so a weaker preconditioner fails
        level = level_params(4, 16)
        fine = build_uniform_mesh(level.mesh_exponent)
        coarse = build_uniform_mesh(level.coarse_exponent)
        M = mass_interior(coarse, prob1)
        shift = random_shift(0, level.ell, 0, level.s)
        iterations, pair = [], None
        for k in range(level.n_points):
            y = shift_and_center(lattice_point(zvec, level.n_points, k, dim=level.s),
                                 shift)
            A = stiffness_interior(coarse, prob1, y[:level.coarse_s])
            pair, _ = eigensolver.smallest_eigenpair(A, M, warm=pair)
            _, _, stats = two_grid_fine_update(prob1, y, coarse, pair, fine, level.s)
            iterations.append(stats.krylov_iterations)
        assert np.mean(iterations) <= 14.0, iterations

    def test_update_and_vcycle_share_one_mean_field_assembly(self, prob1, monkeypatch):
        # a y = 0 update at h = 1/128 runs MINRES; its operator A(0) is the
        # V-cycle's finest operator, and every coarser operator of the cycle
        # is that mesh's A(0): each is assembled once per (mesh, problem)
        y = np.zeros(64)
        coarse, pair = coarse_pair_at(prob1, y)
        fine = build_uniform_mesh(7)
        assert fine.n_interior >= eigensolver._KRYLOV_MIN_DOFS
        assembled = []
        stiffness = mesh_fem._stiffness

        def counted(mesh, problem, *fields):
            assembled.append((mesh, problem))
            return stiffness(mesh, problem, *fields)

        monkeypatch.setattr(mesh_fem, "_stiffness", counted)
        mesh_fem._mean_field_stiffness.cache_clear()
        eigensolver._vcycle.cache_clear()
        for _ in range(2):
            _, _, stats = two_grid_fine_update(prob1, y, coarse, pair, fine, 64)
            assert stats.krylov_iterations > 0 and stats.factorizations == 0
        levels = eigensolver._vcycle(fine, prob1).levels
        meshes = [build_uniform_mesh(m) for m in range(7, eigensolver._COARSEST_EXPONENT, -1)]
        for (A, *_), mesh in zip(levels, meshes):
            assert A is stiffness_interior(mesh, prob1, np.zeros(0))
        assert len(levels) == len(meshes)
        coarsest = build_uniform_mesh(eigensolver._COARSEST_EXPONENT)
        assert sorted(assembled, key=lambda pair: pair[0].level_exponent) == \
            [(mesh, prob1) for mesh in [coarsest] + meshes[::-1]]

    def test_iteration_cap_raises(self, prob1, rng, monkeypatch):
        monkeypatch.setattr(eigensolver, "_KRYLOV_MIN_DOFS", 0)
        monkeypatch.setattr(eigensolver, "_MINRES_MAX_ITER", 1)
        y = rng.random(16) - 0.5
        coarse, pair = coarse_pair_at(prob1, y)
        with pytest.raises(NoConvergenceError, match="MINRES .* 1 iterations"):
            two_grid_fine_update(prob1, y, coarse, pair, build_uniform_mesh(5), 16)


class TestWarmStart:
    def test_consistent_matrix_returns_lam(self, prob1, rng):
        A, M = laplacian_pair(3, prob1)
        pair, _ = smallest_eigenpair_cold(A, M)
        v0, sigma0 = warm_start_from(pair, A, M)
        assert sigma0 == pytest.approx(pair.lam, abs=1e-12)
        assert v0 is pair.u

    def test_perturbed_matrix_first_order(self, prob1, rng):
        mesh = build_uniform_mesh(3)
        y = rng.random(8) - 0.5
        A = stiffness_interior(mesh, prob1, y)
        M = mass_interior(mesh, prob1)
        pair, _ = smallest_eigenpair_cold(A, M)
        eps = 1e-6
        E = sp.identity(A.shape[0], format="csr")
        _, sigma0 = warm_start_from(pair, A + eps * E, M)
        # sigma0 - lam = eps * u^T E u / u^T M u, a finite-difference check
        expected = pair.lam + eps * (pair.u @ pair.u) / m_inner(pair.u, pair.u, M)
        assert sigma0 == pytest.approx(expected, abs=1e-12)

    def test_normalized_vector_gives_quadratic_form(self, prob1):
        A, M = laplacian_pair(3, prob1)
        pair, _ = smallest_eigenpair_cold(A, M)
        _, sigma0 = warm_start_from(pair, A, M)
        assert sigma0 == pytest.approx(pair.u @ (A @ pair.u), rel=1e-10)

    def test_dimension_mismatch(self, prob1):
        A3, M3 = laplacian_pair(3, prob1)
        A4, _ = laplacian_pair(4, prob1)
        pair, _ = smallest_eigenpair_cold(A3, M3)
        with pytest.raises(ValueError):
            warm_start_from(pair, A4, M3)

    @pytest.mark.parametrize("problem", [problem1(2.0), problem1(1.4), problem2()],
                             ids=["p1", "p1-slow-decay", "p2"])
    def test_lattice_stream_warm_equals_cold(self, problem, zvec):
        # one shifted 16-point lattice stream at h = 1/8, s = 64, visited in
        # order with each sample warm-started from the previous one, as
        # the estimators do; every warm eigenvalue is the cold one
        mesh = build_uniform_mesh(3)
        M = mass_interior(mesh, problem)
        shift = np.random.default_rng(3).random(64)
        warm = None
        for k in range(16):
            y = shift_and_center(lattice_point(zvec, 16, k, dim=64), shift)
            A = stiffness_interior(mesh, problem, y)
            cold, _ = eigensolver.smallest_eigenpair(A, M)
            warm, _ = eigensolver.smallest_eigenpair(A, M, warm=warm)
            assert abs(warm.lam - cold.lam) <= 1e-12 * cold.lam

    def test_warm_equals_cold_eigenvalue(self, prob1, rng):
        mesh = build_uniform_mesh(3)
        M = mass_interior(mesh, prob1)
        y1 = rng.random(64) - 0.5
        y2 = y1 + 0.01 * (rng.random(64) - 0.5)
        np.clip(y2, -0.5, 0.5, out=y2)
        A1 = stiffness_interior(mesh, prob1, y1)
        A2 = stiffness_interior(mesh, prob1, y2)
        prev, _ = smallest_eigenpair_cold(A1, M)
        cold, _ = smallest_eigenpair_cold(A2, M)
        v0, sigma0 = warm_start_from(prev, A2, M)
        warm, warm_stats = rq_iteration(A2, M, v0, sigma0)
        assert abs(warm.lam - cold.lam) <= 10 * RQ_TOL
        assert warm_stats.linear_solves <= 3
