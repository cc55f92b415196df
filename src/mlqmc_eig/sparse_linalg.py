"""Shifted sparse factorizations, inner products and Rayleigh quotients.

The two-grid update solves (A - sigma*M) x = b with sigma between the
two smallest eigenvalues, so the operator is symmetric indefinite with
one negative eigenvalue.  A sparse LU with partial pivoting (SuperLU)
handles that robustly at desk scale; near-singular factorizations are
detected from the pivot magnitudes so callers can nudge the shift.

A and M must share one canonical CSR pattern: the interior stiffness
and mass matrices of a mesh do, so every shifted operator on that mesh
has the mesh's pattern, and a pair on two different patterns is
rejected with ``ValueError``.  The fill-reducing ordering is therefore
built once per pattern, on its first factorization, and kept with the
gather that takes values on the CSR pattern to the permuted CSC
pattern.  It is found again by the identity of the pattern's index
arrays, which every matrix of a mesh holds, not by their values.  The
ordering is the geometric nested dissection (George 1973) of a k x k
grid whenever the size n is a perfect square, n = k * k, as it is for
the interior DOFs of every mesh; it is the identity for any other n.
The pattern itself is not inspected.  Each factorization is then one
subtraction of value arrays, one gather and one call of SuperLU's
``gstrf``, which keeps the given column order.  Where the two-grid
update solves iteratively instead (see ``eigensolver``),
``shifted_operator`` forms A - sigma*M by the same subtraction, as a CSR
matrix on the pattern, and ``matvec`` applies it.  That matrix, like
every assembled one (see ``mesh_fem``), is made by ``csr_with_data``:
scipy keeps a CSR matrix's shape, index arrays and format flags in its
instance dict (verified on scipy 1.17.1), so a copy of that dict with
new values is the matrix its checking constructor would build.

Two private scipy entry points carry the hot paths, both verified on
scipy 1.17.1:

- ``scipy.sparse.linalg._dsolve._superlu.gstrf``, called with the
  ordering's int32 CSC arrays and exactly the options that
  ``splu(A, permc_spec="NATURAL")`` passes it, with
  ``diag_pivot_thresh=0.0`` added for a positive definite factorization
  above the banded cutoff.  The pivots are read
  from the raw buffers of U, so no CSC input, L or U matrix is built.
- ``scipy.sparse._sparsetools.csr_matvec``, the kernel that ``S @ x``
  runs for a CSR matrix S, without the dispatch around it.

``tests/test_sparse_linalg.py`` holds the public ``splu`` and ``@`` as
oracles for both: the same accept/reject decision, pivot ratio, fill
and solution bytes, and bitwise equal products.

Where A - sigma*M is symmetric positive definite, as it is at shift 0
and below the smallest eigenvalue, ``factorize_positive_definite``
factors it so that success itself proves the shift lies below every
eigenvalue of (A, M) (Sylvester's law of inertia): no row is exchanged,
so the factorization is L D L^T and every pivot of D is positive.  Up to
``_BANDED_MAX_DOFS`` interior DOFs (h = 1/128) that is ``BandedCholesky``,
LAPACK's banded Cholesky through scipy's public wrappers
``scipy.linalg.lapack.dpbtrf`` and ``dpbtrs``.  The interior DOFs of a
mesh are numbered row by row on a k x k grid, so the half-bandwidth is
k + 1 and the (k + 2) x n band stores about k^3 values: 17 MB at
h = 1/128 (m = 7), 134 MB at m = 8 and about 1 GB at m = 9, where the
fill of nested dissection is far smaller.  The band is read off the
pattern (the largest |i - j| of a stored entry), and the gather from CSR
values to LAPACK's lower band storage is built once per pattern and
cached beside the orderings, under the same lock and by the same key.
Above the cutoff it is SuperLU in the nested-dissection order with
diagonal pivots (``diag_pivot_thresh=0.0``): SuperLU then takes every
nonzero diagonal pivot, so it exchanges a row only at a zero one.  Its
fill is that of partial pivoting, which exchanges rows near the
smallest eigenvalue and so leaves the inertia unknown there.  Either
way a pivot that is not positive raises ``NotPositiveDefiniteError``,
and so does a SuperLU shift singular to tolerance.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu

_PIVOT_RTOL = 1e-14
_ND_LEAF_CELLS = 4
_ORDERINGS_KEPT = 16
# the options splu(A, permc_spec="NATURAL") passes to gstrf
_GSTRF_OPTIONS = {"DiagPivotThresh": None, "ColPerm": "NATURAL", "PanelSize": None,
                  "Relax": None, "SymmetricMode": True}
# ... and splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0)
_GSTRF_DIAGONAL_OPTIONS = {**_GSTRF_OPTIONS, "DiagPivotThresh": 0.0}
# positive definite factorizations on at most this many interior DOFs
# (h = 1/128) are banded Cholesky.  A whole cold solve, Problem 1 at a
# random y, one BLAS thread, banded against SuperLU: 18 vs 28 ms at
# h = 1/64 and 105 vs 144 ms at 1/128 (medians of three), but 942 vs
# 798 ms at 1/256 (two runs), where the band takes 134 MB
_BANDED_MAX_DOFS = 127 ** 2


class SingularShiftError(RuntimeError):
    """(A - sigma*M) is singular to working tolerance at this shift."""


class NotPositiveDefiniteError(RuntimeError):
    """(A - sigma*M) has a non-positive leading minor: an eigenvalue lies at or below sigma."""


def nested_dissection(k: int) -> np.ndarray:
    """Nested-dissection elimination order of the k x k grid.

    Cell (r, c) has index ``r*k + c``; entry i of the result is the index
    eliminated i-th.  A block of at most four cells is a leaf, taken in
    row-major order.  A larger block is cut along the middle line of its
    longer side (a column on a tie); its two halves come first, each
    ordered the same way, and the separator line last.
    """
    blocks = {}

    def block(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        # (row, col) within an h x w block, in elimination order; the
        # order depends only on the block's shape
        if (h, w) not in blocks:
            if h * w <= _ND_LEAF_CELLS:
                rows, cols = np.divmod(np.arange(h * w), w)
            elif w >= h:
                mid = w // 2
                r1, c1 = block(h, mid)
                r2, c2 = block(h, w - mid - 1)
                rows = np.concatenate([r1, r2, np.arange(h)])
                cols = np.concatenate([c1, c2 + mid + 1, np.full(h, mid)])
            else:
                mid = h // 2
                r1, c1 = block(mid, w)
                r2, c2 = block(h - mid - 1, w)
                rows = np.concatenate([r1, r2 + mid + 1, np.full(w, mid)])
                cols = np.concatenate([c1, c2, np.arange(w)])
            blocks[(h, w)] = rows, cols
        return blocks[(h, w)]

    rows, cols = block(k, k)
    return rows * k + cols


class _Ordering:
    """Symmetric permutation of one CSR pattern and its permuted CSC form.

    ``perm[i]`` is the original index of unknown i.  Values ``v`` on the
    CSR pattern become the CSC matrix P S P^T as ``v[gather]`` on
    (``indices``, ``indptr``).
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, perm: np.ndarray):
        n = indptr.size - 1
        rank = np.empty(n, dtype=np.intp)
        rank[perm] = np.arange(n)
        rows = rank[np.repeat(np.arange(n), np.diff(indptr))]
        cols = rank[indices]
        self.perm = perm
        self.gather = np.lexsort((rows, cols))
        self.indices = rows[self.gather].astype(np.int32)
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(cols, minlength=n)))).astype(np.int32)
        # the cache is keyed by the identity of the source pattern: holding
        # it keeps those ids from being reused while the entry lives
        self.source = (indptr, indices)


class _Band:
    """LAPACK lower band storage of one symmetric CSR pattern.

    ``width`` is the half-bandwidth kd.  Values ``v`` on the CSR pattern
    become the band of S, ``ab[i - j, j] = S[i, j]`` for j <= i <= j + kd,
    as ``ab.T.flat[target] = v[gather]`` on an (n, kd + 1) array of zeros;
    ``ab`` is then that array's Fortran-ordered transpose.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        n = indptr.size - 1
        offsets = np.repeat(np.arange(n), np.diff(indptr)) - indices
        self.gather = np.flatnonzero(offsets >= 0)
        self.width = int(offsets[self.gather].max(initial=0))
        self.target = indices[self.gather] * (self.width + 1) + offsets[self.gather]
        self.source = (indptr, indices)


_orderings: dict[tuple[int, int], _Ordering] = {}
_bands: dict[tuple[int, int], _Band] = {}
_orderings_lock = threading.Lock()


def _cached(cache: dict, build, indptr: np.ndarray, indices: np.ndarray):
    """``build(indptr, indices)`` of a canonical CSR pattern, made once per pattern.

    Patterns are recognised by the identity of their index arrays, so the
    matrices of one mesh, which hold the mesh's pattern arrays, find what
    its first factorization built.  The oldest of more than
    ``_ORDERINGS_KEPT`` entries is dropped.
    """
    key = (id(indptr), id(indices))
    with _orderings_lock:
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = build(indptr, indices)
            if len(cache) > _ORDERINGS_KEPT:
                del cache[next(iter(cache))]
        return entry


def _nested_dissection_ordering(indptr: np.ndarray, indices: np.ndarray) -> _Ordering:
    n = indptr.size - 1
    k = math.isqrt(n)
    perm = nested_dissection(k) if k * k == n else np.arange(n)
    return _Ordering(indptr, indices, perm)


def _cached_ordering(indptr: np.ndarray, indices: np.ndarray) -> _Ordering:
    """Ordering of a canonical CSR pattern shared by A and M, built once."""
    return _cached(_orderings, _nested_dissection_ordering, indptr, indices)


def _on_one_pattern(A: sp.spmatrix, M: sp.spmatrix):
    """A and M as CSR matrices; ValueError unless they share one canonical pattern."""
    if A.shape != M.shape or A.shape[0] != A.shape[1]:
        raise ValueError("A and M must be square matrices of equal size")
    A, M = A.tocsr(), M.tocsr()
    if not (A.has_canonical_format and M.has_canonical_format
            and all(a is b or np.array_equal(a, b)
                    for a, b in ((A.indptr, M.indptr), (A.indices, M.indices)))):
        raise ValueError("A and M must share one canonical CSR pattern")
    return A, M


def csr_with_data(pattern: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """A CSR matrix of ``pattern``'s type, shape, index arrays and format
    flags, holding ``data``, one value per stored entry.

    ``pattern`` needs no values of its own.  None of the checks of
    scipy's constructor run: 0.5 against 12 us at h = 1/8.
    """
    mat = type(pattern).__new__(type(pattern))
    mat.__dict__.update(pattern.__dict__)
    mat.data = data
    return mat


def shifted_operator(A: sp.spmatrix, M: sp.spmatrix, sigma: float) -> sp.csr_matrix:
    """A - sigma*M as one subtraction of the values on the pair's shared CSR pattern."""
    A, M = _on_one_pattern(A, M)
    # sigma * M, then A minus it in place: the roundings of A - sigma * M
    data = float(sigma) * M.data
    np.subtract(A.data, data, out=data)
    return csr_with_data(A, data)


def _raw_csc(arrays, shape):
    # gstrf's csc_construct_func: keep L and U as their raw CSC buffers
    return arrays


class FactorizedOperator:
    """Direct factorization of A - sigma*M, A and M on one CSR pattern.

    Shareable across solves; a pair on two patterns raises ValueError.
    """

    _options = _GSTRF_OPTIONS

    def __init__(self, A: sp.spmatrix, M: sp.spmatrix, sigma: float):
        A, M = _on_one_pattern(A, M)
        self.sigma = float(sigma)
        self.n = A.shape[0]
        ordering = self.ordering = _cached_ordering(A.indptr, A.indices)
        values = (A.data - self.sigma * M.data)[ordering.gather]
        try:
            self._lu = _superlu.gstrf(self.n, values.size, values, ordering.indices,
                                      ordering.indptr, csc_construct_func=_raw_csc,
                                      ilu=False, options=self._options)
        except RuntimeError as exc:   # exactly singular pivot
            raise SingularShiftError(
                f"factorization at shift {sigma:.17g} is singular: {exc}"
            ) from None
        # U's diagonal is the last stored entry of each column (no column is
        # empty: gstrf raises on an exactly zero pivot); a column whose last
        # stored row is not its own has no stored diagonal and a zero pivot
        data, rows, indptr = self._lu.U
        last = indptr[1:] - 1
        self._pivots = np.where(rows[last] == np.arange(self.n), data[last], 0.0)
        pivots = np.abs(self._pivots)
        pivot_max, pivot_min = pivots.max(), pivots.min()
        self.singularity = float(pivot_min / pivot_max) if pivot_max > 0 else 0.0
        if pivot_max == 0.0 or self.singularity < _PIVOT_RTOL:
            raise SingularShiftError(
                f"shift {sigma:.17g} is singular to tolerance "
                f"(pivot ratio {self.singularity:.3e})"
            )

    @property
    def nnz(self) -> int:
        """Stored entries of L + U, the fill of this factorization."""
        return self._lu.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"right-hand side must have length {self.n}")
        perm = self.ordering.perm
        x = np.empty(self.n)
        x[perm] = self._lu.solve(b[perm])
        return x


def factorize_shifted(A: sp.spmatrix, M: sp.spmatrix, sigma: float) -> FactorizedOperator:
    """Factorize A - sigma*M; raises SingularShiftError near eigenvalues."""
    return FactorizedOperator(A, M, sigma)


class _DiagonalPivots(FactorizedOperator):
    """SuperLU's factorization of a positive definite A - sigma*M, diagonal pivots only.

    Raises NotPositiveDefiniteError unless every pivot is positive: a
    negative one, a zero diagonal (which SuperLU replaces by an exchanged
    row) or a shift singular to tolerance.
    """

    _options = _GSTRF_DIAGONAL_OPTIONS

    def __init__(self, A: sp.spmatrix, M: sp.spmatrix, sigma: float):
        try:
            super().__init__(A, M, sigma)
        except SingularShiftError as exc:
            raise NotPositiveDefiniteError(
                f"shift {sigma:.17g} is not below the spectrum ({exc})") from None
        if not (np.array_equal(self._lu.perm_r, np.arange(self.n))
                and (self._pivots > 0.0).all()):
            raise NotPositiveDefiniteError(
                f"shift {sigma:.17g} is not below the spectrum (a pivot is not positive)")


class BandedCholesky:
    """Banded Cholesky factorization of A - sigma*M, A and M on one CSR pattern.

    Raises NotPositiveDefiniteError unless A - sigma*M is positive
    definite, that is unless sigma lies below every eigenvalue of (A, M);
    a pair on two patterns raises ValueError.
    """

    def __init__(self, A: sp.spmatrix, M: sp.spmatrix, sigma: float):
        A, M = _on_one_pattern(A, M)
        self.n = A.shape[0]
        band = _cached(_bands, _Band, A.indptr, A.indices)
        ab = np.zeros((self.n, band.width + 1))
        ab.ravel()[band.target] = (A.data - float(sigma) * M.data)[band.gather]
        self._factor, info = dpbtrf(ab.T, lower=1, overwrite_ab=1)
        if info > 0:
            raise NotPositiveDefiniteError(
                f"shift {sigma:.17g} is not below the spectrum "
                f"(leading minor {info} is not positive)"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"right-hand side must have length {self.n}")
        return dpbtrs(self._factor, b, lower=1)[0]


def factorize_positive_definite(A: sp.spmatrix, M: sp.spmatrix,
                                sigma: float) -> BandedCholesky | FactorizedOperator:
    """Factorize A - sigma*M; raises NotPositiveDefiniteError unless sigma lies below the spectrum.

    Banded Cholesky up to ``_BANDED_MAX_DOFS`` unknowns, SuperLU with
    diagonal pivots above.
    """
    if A.shape[0] <= _BANDED_MAX_DOFS:
        return BandedCholesky(A, M, sigma)
    return _DiagonalPivots(A, M, sigma)


_MATVEC_KERNELS = {"csr": _sparsetools.csr_matvec, "csc": _sparsetools.csc_matvec}


def matvec(S, x: np.ndarray) -> np.ndarray:
    """S @ x, bitwise.

    A float CSR or CSC matrix times a float vector of its width goes
    straight to ``_sparsetools.csr_matvec`` or ``csc_matvec``, the kernel
    that ``S @ x`` dispatches to; any other operand takes the ``@`` path.
    """
    kernel = _MATVEC_KERNELS.get(getattr(S, "format", None))
    if (kernel is not None and S.dtype == np.float64
            and isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.shape == (S.shape[1],)):
        y = np.zeros(S.shape[0])
        kernel(S.shape[0], S.shape[1], S.indptr, S.indices, S.data, x, y)
        return y
    return S @ x


def m_inner(u: np.ndarray, v: np.ndarray, M: sp.spmatrix) -> float:
    """Weighted inner product u^T M v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape != (M.shape[0],):
        raise ValueError("dimension mismatch in m_inner")
    return float(u @ matvec(M, v))


def m_norm(u: np.ndarray, M: sp.spmatrix) -> float:
    return float(np.sqrt(m_inner(u, u, M)))


def rayleigh_quotient(A: sp.spmatrix, M: sp.spmatrix, u: np.ndarray) -> float:
    """(u^T A u) / (u^T M u); invariant under rescaling of u."""
    u = np.asarray(u, dtype=float)
    den = m_inner(u, u, M)
    if den == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector")
    return float(u @ matvec(A, u)) / den
