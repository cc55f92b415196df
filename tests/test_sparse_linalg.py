import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mlqmc_eig import (
    SingularShiftError,
    build_uniform_mesh,
    factorize_shifted,
    m_inner,
    mass_interior,
    rayleigh_quotient,
    smallest_eigenpair_cold,
    stiffness_interior,
)
from mlqmc_eig.sparse_linalg import nested_dissection


def random_spd_pair(rng, n=20):
    q = rng.standard_normal((n, n))
    A = sp.csr_matrix(q @ q.T + n * np.eye(n))
    r = rng.standard_normal((n, n))
    M = sp.csr_matrix(r @ r.T + n * np.eye(n))
    return A, M


class TestFactorize:
    def test_diagonal_unshifted(self):
        A = sp.diags([1.0, 2.0]).tocsr()
        M = sp.identity(2, format="csr")
        op = factorize_shifted(A, M, 0.0)
        assert np.allclose(op.solve(np.array([1.0, 2.0])), [1.0, 1.0])

    def test_diagonal_indefinite_shift(self):
        A = sp.diags([1.0, 2.0]).tocsr()
        M = sp.identity(2, format="csr")
        op = factorize_shifted(A, M, 1.5)
        assert np.allclose(op.solve(np.array([1.0, 1.0])), [-2.0, 2.0])

    def test_matches_dense_oracle(self, rng):
        A, M = random_spd_pair(rng)
        op = factorize_shifted(A, M, 0.0)
        b = rng.standard_normal(20)
        x_dense = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(op.solve(b) - x_dense) <= 1e-10 * np.linalg.norm(x_dense)

    def test_residual_contract(self, rng):
        A, M = random_spd_pair(rng)
        sigma = 0.5
        op = factorize_shifted(A, M, sigma)
        b = rng.standard_normal(20)
        x = op.solve(b)
        res = (A - sigma * M) @ x - b
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(b)

    def test_singular_shift_detected(self):
        A = sp.diags([1.0, 2.0]).tocsr()
        M = sp.identity(2, format="csr")
        with pytest.raises(SingularShiftError):
            factorize_shifted(A, M, 1.0)

    def test_near_singular_shift_detected(self):
        A = sp.diags([1.0, 2.0]).tocsr()
        M = sp.identity(2, format="csr")
        with pytest.raises(SingularShiftError):
            factorize_shifted(A, M, 1.0 + 1e-16)

    def test_shape_mismatch(self):
        A = sp.identity(3, format="csr")
        M = sp.identity(2, format="csr")
        with pytest.raises(ValueError):
            factorize_shifted(A, M, 0.0)


    def test_pair_on_different_patterns(self, rng):
        # A diagonal, M tridiagonal: the shifted operator has no one pattern
        A = sp.diags(rng.random(5) + 4.0).tocsr()
        M = sp.diags([np.ones(4), 4.0 * np.ones(5), np.ones(4)], [-1, 0, 1]).tocsr()
        with pytest.raises(ValueError, match="pattern"):
            factorize_shifted(A, M, 0.3)


@pytest.fixture(scope="module")
def grid_pair(prob1):
    """Interior pair on the m=7 mesh and half its smallest eigenvalue."""
    mesh = build_uniform_mesh(7)
    y = np.random.default_rng(7).random(64) - 0.5
    A = stiffness_interior(mesh, prob1, y)
    M = mass_interior(mesh, prob1)
    pair, _ = smallest_eigenpair_cold(A, M, 1e-8)
    return A, M, 0.5 * pair.lam


class TestOrdering:
    @pytest.mark.parametrize("k", range(1, 34))
    def test_nested_dissection_is_permutation(self, k):
        order = nested_dissection(k)
        assert np.array_equal(np.sort(order), np.arange(k * k))

    def test_nested_dissection_by_hand(self):
        # 3 x 3: the two 3 x 1 leaf columns, then the middle separator column
        assert nested_dissection(3).tolist() == [0, 3, 6, 2, 5, 8, 1, 4, 7]
        assert nested_dissection(2).tolist() == [0, 1, 2, 3]

    def test_fill_below_colamd(self, grid_pair):
        # measured here: 989 462 entries in L+U against 1 763 238 with COLAMD
        A, M, sigma = grid_pair
        op = factorize_shifted(A, M, sigma)
        colamd = splu((A - sigma * M).tocsc(), permc_spec="COLAMD")
        assert op.nnz < 0.7 * colamd.nnz

    def test_residual_contract_on_grid(self, grid_pair, rng):
        A, M, sigma = grid_pair
        op = factorize_shifted(A, M, sigma)
        b = rng.standard_normal(A.shape[0])
        res = (A - sigma * M) @ op.solve(b) - b
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(b)

    def test_ordering_built_once_per_mesh(self, prob1, rng):
        mesh = build_uniform_mesh(5)
        M = mass_interior(mesh, prob1)
        first = factorize_shifted(stiffness_interior(mesh, prob1, rng.random(8) - 0.5), M, 1.0)
        second = factorize_shifted(stiffness_interior(mesh, prob1, rng.random(8) - 0.5), M, 2.0)
        assert second.ordering is first.ordering
        assert not np.array_equal(first.ordering.perm, np.arange(mesh.n_interior))

    def test_threads_share_one_ordering(self, prob1):
        # a pattern no factorization has seen yet, factored from several
        # threads at once: all of them must get the one ordering built
        mesh = build_uniform_mesh(4)
        A = stiffness_interior(mesh, prob1, np.zeros(8)).copy()
        M = mass_interior(mesh, prob1)
        M = sp.csr_matrix((M.data, A.indices, A.indptr), shape=M.shape)
        orderings = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: orderings.extend(
                factorize_shifted(A, M, 1.0 + i).ordering for i in range(20)))
                for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(orderings) == 80
        assert all(o is orderings[0] for o in orderings)


class TestInnerProducts:
    def test_zero_vectors(self):
        M = sp.identity(3, format="csr")
        assert m_inner(np.zeros(3), np.zeros(3), M) == 0.0

    def test_identity_weight(self):
        M = sp.identity(2, format="csr")
        assert m_inner(np.array([1.0, 2.0]), np.array([3.0, 4.0]), M) == 11.0

    def test_matches_dense_oracle(self, rng):
        _, M = random_spd_pair(rng)
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        dense = u @ M.toarray() @ v
        assert m_inner(u, v, M) == pytest.approx(dense, abs=1e-12 * abs(dense))

    def test_symmetry(self, rng):
        _, M = random_spd_pair(rng)
        u = rng.standard_normal(20)
        v = rng.standard_normal(20)
        assert m_inner(u, v, M) == pytest.approx(m_inner(v, u, M), rel=1e-13)

    def test_dimension_mismatch(self):
        M = sp.identity(3, format="csr")
        with pytest.raises(ValueError):
            m_inner(np.zeros(2), np.zeros(3), M)


class TestRayleighQuotient:
    def test_diagonal_cases(self):
        A = sp.diags([1.0, 2.0]).tocsr()
        M = sp.identity(2, format="csr")
        assert rayleigh_quotient(A, M, np.array([1.0, 0.0])) == 1.0
        assert rayleigh_quotient(A, M, np.array([1.0, 1.0])) == 1.5

    def test_scaling_invariance(self, rng):
        A, M = random_spd_pair(rng)
        u = rng.standard_normal(20)
        r1 = rayleigh_quotient(A, M, u)
        r2 = rayleigh_quotient(A, M, 7.3 * u)
        assert r2 == pytest.approx(r1, rel=1e-14)

    def test_zero_vector_rejected(self):
        A = sp.identity(2, format="csr")
        with pytest.raises(ValueError):
            rayleigh_quotient(A, A, np.zeros(2))

    def test_bounded_by_spectrum(self, rng):
        import scipy.linalg
        A, M = random_spd_pair(rng)
        lams = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)
        for _ in range(20):
            u = rng.standard_normal(20)
            r = rayleigh_quotient(A, M, u)
            assert lams[0] - 1e-10 <= r <= lams[-1] + 1e-10
