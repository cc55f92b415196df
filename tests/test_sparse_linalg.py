import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu
from scipy.sparse.linalg._dsolve import _superlu

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
from mlqmc_eig import eigensolver, sparse_linalg
from mlqmc_eig import mesh_fem
from mlqmc_eig.mesh_fem import prolongation
from mlqmc_eig.sparse_linalg import (
    BandedCholesky,
    NotPositiveDefiniteError,
    csr_with_data,
    factorize_positive_definite,
    matvec,
    nested_dissection,
    shifted_operator,
)


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

    @pytest.mark.parametrize("cutoff", [sparse_linalg._BANDED_MAX_DOFS, 0])
    def test_positive_definite_refuses_a_zero_diagonal(self, cutoff, monkeypatch):
        # [[0, 1], [1, 0]] has eigenvalues -1 and 1; SuperLU exchanges its
        # rows, after which both pivots are 1
        monkeypatch.setattr(sparse_linalg, "_BANDED_MAX_DOFS", cutoff)
        pattern = ([0, 1, 0, 1], [0, 2, 4])
        A = sp.csr_matrix(([0.0, 1.0, 1.0, 0.0], *pattern), shape=(2, 2))
        M = sp.csr_matrix(([1.0, 0.0, 0.0, 1.0], *pattern), shape=(2, 2))
        with pytest.raises(NotPositiveDefiniteError, match="not below the spectrum"):
            factorize_positive_definite(A, M, 0.0)

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
    pair, _ = smallest_eigenpair_cold(A, M)
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

    def test_ordering_built_once_per_mesh(self, prob1, rng, monkeypatch):
        mesh = build_uniform_mesh(5)
        M = mass_interior(mesh, prob1)
        first = factorize_shifted(stiffness_interior(mesh, prob1, rng.random(8) - 0.5), M, 1.0)
        second = factorize_shifted(stiffness_interior(mesh, prob1, rng.random(8) - 0.5), M, 2.0)
        assert second.ordering is first.ordering
        assert not np.array_equal(first.ordering.perm, np.arange(mesh.n_interior))

        # a level sample alternates between its two meshes at fresh y: from an
        # empty cache each mesh builds one ordering and then finds it again
        built = []

        class Counted(sparse_linalg._Ordering):
            def __init__(self, indptr, indices, perm):
                built.append(indptr.size - 1)
                super().__init__(indptr, indices, perm)
        monkeypatch.setattr(sparse_linalg, "_Ordering", Counted)
        monkeypatch.setattr(sparse_linalg, "_orderings", {})
        orderings = {3: [], 5: []}
        for m in (3, 5, 3, 5):
            mesh = build_uniform_mesh(m)
            A = stiffness_interior(mesh, prob1, rng.random(8) - 0.5)
            orderings[m].append(factorize_shifted(A, mass_interior(mesh, prob1), 1.0).ordering)
        assert sorted(built) == [build_uniform_mesh(m).n_interior for m in (3, 5)]
        for m, found in orderings.items():
            assert found[1] is found[0]
            assert found[0].perm.size == build_uniform_mesh(m).n_interior

    def test_cache_drops_its_oldest_ordering(self, prob1, monkeypatch):
        # past _ORDERINGS_KEPT patterns the first one cached is dropped, and
        # the next factorization on that mesh builds its ordering again
        built = []

        class Counted(sparse_linalg._Ordering):
            def __init__(self, indptr, indices, perm):
                built.append(indptr.size - 1)
                super().__init__(indptr, indices, perm)
        monkeypatch.setattr(sparse_linalg, "_Ordering", Counted)
        monkeypatch.setattr(sparse_linalg, "_orderings", {})
        monkeypatch.setattr(sparse_linalg, "_ORDERINGS_KEPT", 2)
        ops = {}
        for m in (3, 4, 5, 3):
            mesh = build_uniform_mesh(m)
            A = stiffness_interior(mesh, prob1, np.full(8, 0.1))
            ops.setdefault(m, []).append(factorize_shifted(A, mass_interior(mesh, prob1), 1.0))
        sizes = [build_uniform_mesh(m).n_interior for m in (3, 4, 5, 3)]
        assert built == sizes
        assert len(sparse_linalg._orderings) == 2
        assert ops[3][1].ordering is not ops[3][0].ordering
        assert np.array_equal(ops[3][1].ordering.perm, ops[3][0].ordering.perm)

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


def ordered_csc(A, M, sigma):
    """A - sigma*M as a CSC matrix in the package's ordering, and the ordering."""
    ordering = sparse_linalg._cached_ordering(A.indptr, A.indices)
    shifted = sp.csc_matrix(((A.data - sigma * M.data)[ordering.gather],
                             ordering.indices, ordering.indptr), shape=A.shape)
    return shifted, ordering


def ordered_solve(lu, ordering):
    def solve(b):
        x = np.empty(b.size)
        x[ordering.perm] = lu.solve(b[ordering.perm])
        return x
    return solve


def splu_oracle(A, M, sigma):
    """The factorization through the public ``splu`` on the same ordered
    CSC input: (pivot ratio, fill, solve) with the package's pivot test, or
    None where that test rejects the shift."""
    shifted, ordering = ordered_csc(A, M, sigma)
    try:
        lu = splu(shifted, permc_spec="NATURAL")
    except RuntimeError:
        return None
    pivots = np.abs(lu.U.diagonal())
    ratio = float(pivots.min() / pivots.max()) if pivots.max() > 0 else 0.0
    if ratio < sparse_linalg._PIVOT_RTOL:
        return None
    return ratio, lu.nnz, ordered_solve(lu, ordering)


@pytest.fixture(scope="module")
def spectra(prob1, prob2):
    """(A, M, lambda_1 by the package's cold solve, lambda_2) per problem and mesh.

    lambda_1 is solved to an RQ tolerance of 1e-12, so that the shift
    lambda_1 is as near singular as the solver can place it."""
    out = {}
    for name, problem in (("p1", prob1), ("p2", prob2)):
        for m in range(3, 7):
            mesh = build_uniform_mesh(m)
            y = np.random.default_rng(m).random(16) - 0.5
            A = stiffness_interior(mesh, problem, y)
            M = mass_interior(mesh, problem)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(eigensolver, "RQ_TOL", 1e-12)
                pair, _ = smallest_eigenpair_cold(A, M)
            lam2 = eigsh(A.tocsc(), k=2, M=M.tocsc(), sigma=0.0, which="LM",
                         return_eigenvectors=False).max()
            out[name, m] = A, M, pair.lam, lam2
    return out


class TestLeanFactorization:
    """``FactorizedOperator`` calls SuperLU's ``gstrf`` itself and reads the
    pivots from the raw U buffers; the public ``splu`` is the oracle."""

    def test_gstrf_gets_the_options_of_splu(self, monkeypatch):
        # splu must still reach gstrf with exactly the options the package
        # passes; a scipy that renames or reshapes the call fails here
        calls = []
        gstrf = _superlu.gstrf

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return gstrf(*args, **kwargs)

        monkeypatch.setattr(_superlu, "gstrf", spy)
        splu(sp.identity(3, format="csc"), permc_spec="NATURAL")
        splu(sp.identity(3, format="csc"), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        assert len(calls) == 2
        assert calls[0]["options"] == sparse_linalg._GSTRF_OPTIONS
        assert calls[1]["options"] == sparse_linalg._GSTRF_DIAGONAL_OPTIONS
        assert [call["ilu"] for call in calls] == [False, False]

    @pytest.mark.parametrize("shift", ["zero", "mid_gap", "lambda_1"])
    @pytest.mark.parametrize("m", range(3, 7))
    @pytest.mark.parametrize("name", ["p1", "p2"])
    def test_matches_splu(self, spectra, name, m, shift, rng):
        A, M, lam1, lam2 = spectra[name, m]
        sigma = {"zero": 0.0, "mid_gap": 0.5 * (lam1 + lam2), "lambda_1": lam1}[shift]
        oracle = splu_oracle(A, M, sigma)
        try:
            op = factorize_shifted(A, M, sigma)
        except SingularShiftError:
            op = None
        assert (op is None) == (oracle is None)
        if shift == "lambda_1" and m == 3:
            # on the coarsest mesh the computed lambda_1 is singular to tolerance
            assert op is None
        if op is None:
            return
        ratio, nnz, solve = oracle
        assert op.singularity == ratio
        assert op.nnz == nnz
        b = rng.standard_normal(A.shape[0])
        assert op.solve(b).tobytes() == solve(b).tobytes()


    @pytest.mark.parametrize("shift", ["zero", "half", "below_lambda_1"])
    @pytest.mark.parametrize("m", range(3, 7))
    @pytest.mark.parametrize("name", ["p1", "p2"])
    def test_diagonal_pivots_match_splu(self, spectra, name, m, shift, rng):
        # the positive definite factorization above the banded cutoff
        # against splu(..., diag_pivot_thresh=0.0) on the same input
        A, M, lam1, _ = spectra[name, m]
        sigma = {"zero": 0.0, "half": lam1 / 2, "below_lambda_1": lam1 * (1 - 1e-6)}[shift]
        shifted, ordering = ordered_csc(A, M, sigma)
        lu = splu(shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0)
        op = sparse_linalg._DiagonalPivots(A, M, sigma)
        assert np.array_equal(lu.perm_r, np.arange(A.shape[0]))
        assert op.nnz == lu.nnz
        b = rng.standard_normal(A.shape[0])
        assert op.solve(b).tobytes() == ordered_solve(lu, ordering)(b).tobytes()


@pytest.fixture(scope="module")
def dense_spectra(prob1, prob2):
    """(A, M, lambda_1, lambda_2) per problem and mesh, the eigenvalues dense."""
    out = {}
    for name, problem in (("p1", prob1), ("p2", prob2)):
        for m in range(3, 6):
            mesh = build_uniform_mesh(m)
            A = stiffness_interior(mesh, problem, np.random.default_rng(m).random(16) - 0.5)
            M = mass_interior(mesh, problem)
            lams = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True,
                                     subset_by_index=[0, 1])
            out[name, m] = A, M, lams[0], lams[1]
    return out


class TestBandedCholesky:
    """``BandedCholesky`` against dense ``scipy.linalg`` on the mesh pairs."""

    def test_band_by_hand(self):
        # tridiagonal 3 x 3: half-bandwidth 1, AB[0] the diagonal, AB[1] the
        # subdiagonal with LAPACK's unused last entry
        A = sp.diags([[-1.0, -2.0], [4.0, 5.0, 6.0], [-1.0, -2.0]], [-1, 0, 1]).tocsr()
        band = sparse_linalg._Band(A.indptr, A.indices)
        ab = np.zeros((3, band.width + 1))
        ab.ravel()[band.target] = A.data[band.gather]
        assert band.width == 1
        assert ab.T.tolist() == [[4.0, 5.0, 6.0], [-1.0, -2.0, 0.0]]

    @pytest.mark.parametrize("m", range(3, 6))
    @pytest.mark.parametrize("name", ["p1", "p2"])
    def test_half_bandwidth_of_the_mesh_pattern(self, dense_spectra, name, m):
        A = dense_spectra[name, m][0]
        k = 2 ** m - 1
        assert sparse_linalg._Band(A.indptr, A.indices).width == k + 1

    @pytest.mark.parametrize("m", range(3, 6))
    @pytest.mark.parametrize("name", ["p1", "p2"])
    def test_solves_match_dense(self, dense_spectra, name, m, rng):
        A, M, lam1, _ = dense_spectra[name, m]
        b = rng.standard_normal(A.shape[0])
        for sigma in (0.0, lam1 / 2):
            x = BandedCholesky(A, M, sigma).solve(b)
            oracle = scipy.linalg.solve((A - sigma * M).toarray(), b, assume_a="pos")
            assert np.linalg.norm(x - oracle) <= 1e-13 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("m", range(3, 6))
    @pytest.mark.parametrize("name", ["p1", "p2"])
    def test_raises_exactly_from_the_smallest_eigenvalue(self, dense_spectra, name, m,
                                                         monkeypatch):
        # factorize_positive_definite on both sides of the cutoff: banded
        # Cholesky, then SuperLU with diagonal pivots
        A, M, lam1, lam2 = dense_spectra[name, m]
        for cutoff in (sparse_linalg._BANDED_MAX_DOFS, 0):
            monkeypatch.setattr(sparse_linalg, "_BANDED_MAX_DOFS", cutoff)
            for sigma in (0.0, lam1 / 2, lam1 * (1 - 1e-6)):
                factorize_positive_definite(A, M, sigma)
            for sigma in (lam1 * (1 + 1e-6), (lam1 + lam2) / 2):
                with pytest.raises(NotPositiveDefiniteError, match="not below the spectrum"):
                    factorize_positive_definite(A, M, sigma)

    def test_pair_on_different_patterns(self, rng):
        A = sp.diags(rng.random(5) + 4.0).tocsr()
        M = sp.diags([np.ones(4), 4.0 * np.ones(5), np.ones(4)], [-1, 0, 1]).tocsr()
        with pytest.raises(ValueError, match="pattern"):
            BandedCholesky(A, M, 0.3)

    @pytest.fixture()
    def built(self, monkeypatch):
        """Sizes of the patterns whose band gather is built, from an empty cache."""
        built = []

        class Counted(sparse_linalg._Band):
            def __init__(self, indptr, indices):
                built.append(indptr.size - 1)
                super().__init__(indptr, indices)
        monkeypatch.setattr(sparse_linalg, "_Band", Counted)
        monkeypatch.setattr(sparse_linalg, "_bands", {})
        return built

    def test_band_built_once_per_mesh(self, prob1, rng, built):
        for m in (3, 5, 3, 5):
            mesh = build_uniform_mesh(m)
            A = stiffness_interior(mesh, prob1, rng.random(8) - 0.5)
            BandedCholesky(A, mass_interior(mesh, prob1), 1.0)
        assert sorted(built) == [build_uniform_mesh(m).n_interior for m in (3, 5)]

    def test_threads_share_one_band(self, prob1, built):
        # a pattern no factorization has seen yet, factored from several
        # threads at once: the band gather is built once, and every thread
        # solves as a lone caller does
        mesh = build_uniform_mesh(4)
        A = stiffness_interior(mesh, prob1, np.zeros(8)).copy()
        M = mass_interior(mesh, prob1)
        M = sp.csr_matrix((M.data, A.indices, A.indptr), shape=M.shape)
        b = np.ones(A.shape[0])
        results = [None] * 4

        def work(t):
            results[t] = [BandedCholesky(A, M, 0.1 * i).solve(b) for i in range(20)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert built == [A.shape[0]]
        expected = [BandedCholesky(A, M, 0.1 * i).solve(b) for i in range(20)]
        for solutions in results:
            assert solutions is not None
            assert all(np.array_equal(x, e) for x, e in zip(solutions, expected, strict=True))


class TestCsrWithData:
    @pytest.mark.parametrize("m", [1, 3, 6])
    @pytest.mark.parametrize("name", ["prob1", "prob2"])
    def test_clone_matches_the_checked_constructor(self, name, m, rng, request):
        # assembled and shifted matrices are clones of a pattern; scipy's
        # checking constructor on the same arrays is the oracle
        problem = request.getfixturevalue(name)
        mesh = build_uniform_mesh(m)
        A = stiffness_interior(mesh, problem, rng.random(16) - 0.5)
        M = mass_interior(mesh, problem)
        K = shifted_operator(A, M, 3.0)
        for S in (A, M, K, csr_with_data(mesh_fem._geometry(mesh).pattern, A.data)):
            checked = sp.csr_matrix((S.data, S.indices, S.indptr), shape=S.shape)
            assert type(S) is type(checked)
            assert (S.shape, S.dtype, S.nnz) == (checked.shape, checked.dtype, checked.nnz)
            assert S.has_canonical_format and checked.has_canonical_format
            for a, b in ((S.data, checked.data), (S.indices, checked.indices),
                         (S.indptr, checked.indptr)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            x = rng.standard_normal(S.shape[1])
            assert (S @ x).tobytes() == (checked @ x).tobytes()

    def test_pattern_holds_no_values(self):
        geo = mesh_fem._geometry(build_uniform_mesh(4))
        assert "data" not in vars(geo.pattern)
        assert geo.pattern.indices is geo.indices and geo.pattern.indptr is geo.indptr

    def test_shifted_operator_is_the_subtraction_bitwise(self, prob2, rng):
        # sigma * M into the result, then A minus it in place: the two
        # roundings of A - sigma * M, on A's own index arrays
        mesh = build_uniform_mesh(5)
        A = stiffness_interior(mesh, prob2, rng.random(16) - 0.5)
        M = mass_interior(mesh, prob2)
        K = shifted_operator(A, M, 3.7)
        assert K.data.tobytes() == (A.data - 3.7 * M.data).tobytes()
        assert K.indices is A.indices and K.indptr is A.indptr
        assert not np.shares_memory(K.data, A.data)
        # and its one new array is the result: the extra memory at peak is
        # one array of values, where a temporary for sigma * M makes two
        tracemalloc.start()
        try:
            shifted_operator(A, M, 3.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * A.data.nbytes, peak / A.data.nbytes


class TestMatvec:
    @pytest.fixture(scope="class")
    def operators(self, prob2):
        coarse, fine = build_uniform_mesh(4), build_uniform_mesh(5)
        A = stiffness_interior(fine, prob2, np.random.default_rng(3).random(16) - 0.5)
        M = mass_interior(fine, prob2)
        P = prolongation(coarse, fine)
        return {"stiffness": A, "mass": M, "prolongation": P,
                "restriction": P.T.tocsr(), "shifted": shifted_operator(A, M, 3.0)}

    @pytest.mark.parametrize("which", ["stiffness", "mass", "prolongation",
                                       "restriction", "shifted"])
    def test_csr_is_bitwise_matmul(self, operators, which, rng):
        S = operators[which]
        assert S.format == "csr"
        x = rng.standard_normal(S.shape[1])
        assert matvec(S, x).tobytes() == (S @ x).tobytes()
        strided = rng.standard_normal(2 * S.shape[1])[::2]
        assert matvec(S, strided).tobytes() == (S @ strided).tobytes()

    def test_csc_is_bitwise_matmul(self, operators, rng):
        # the restriction as the V-cycle stores it: the CSC view on P's arrays
        P = operators["prolongation"]
        S = P.T
        assert S.format == "csc" and np.shares_memory(S.data, P.data)
        x = rng.standard_normal(S.shape[1])
        assert matvec(S, x).tobytes() == (S @ x).tobytes()
        strided = rng.standard_normal(2 * S.shape[1])[::2]
        assert matvec(S, strided).tobytes() == (S @ strided).tobytes()
        # and a square unsymmetric one, where the CSR kernel would give S^T x
        S = sp.random(30, 30, density=0.2, random_state=4, format="csc") \
            + sp.identity(30, format="csc")
        x = rng.standard_normal(30)
        assert S.format == "csc"
        assert matvec(S, x).tobytes() == (S @ x).tobytes()
        assert not np.allclose(matvec(S, x), S.T @ x)

    def test_other_formats_fall_back_to_matmul(self, rng):
        x = rng.standard_normal(30)
        S = sp.coo_matrix(sp.random(30, 30, density=0.2, random_state=4)
                          + sp.identity(30))
        assert S.format == "coo"
        assert matvec(S, x).tobytes() == (S @ x).tobytes()
        D = sp.diags([rng.random(30) + 1.0, rng.random(29)], [0, 1])
        assert D.format == "dia"
        assert matvec(D, x).tobytes() == (D @ x).tobytes()

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            matvec(sp.identity(3, format="csr"), np.ones(4))


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
