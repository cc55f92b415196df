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
arrays, which every matrix of a mesh holds, not by their values.  For a
pair on the k x k interior grid the ordering is a geometric nested
dissection (George 1973); for any other pattern it is the identity.  Each factorization is then one subtraction of value
arrays, one gather and one call of SuperLU's ``gstrf``, which keeps the
given column order.  Where the two-grid update solves iteratively
instead (see ``eigensolver``), ``shifted_operator`` forms A - sigma*M by
the same subtraction, as a CSR matrix on the pattern, and ``matvec``
applies it.

Two private scipy entry points carry the hot paths, both verified on
scipy 1.17.1:

- ``scipy.sparse.linalg._dsolve._superlu.gstrf``, called with the
  ordering's int32 CSC arrays and exactly the options that
  ``splu(A, permc_spec="NATURAL")`` passes it.  The pivots are read
  from the raw buffers of U, so no CSC input, L or U matrix is built.
- ``scipy.sparse._sparsetools.csr_matvec``, the kernel that ``S @ x``
  runs for a CSR matrix S, without the dispatch around it.

``tests/test_sparse_linalg.py`` holds the public ``splu`` and ``@`` as
oracles for both: the same accept/reject decision, pivot ratio, fill
and solution bytes, and bitwise equal products.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu

_PIVOT_RTOL = 1e-14
_ND_LEAF_CELLS = 4
_ORDERINGS_KEPT = 16
# the options splu(A, permc_spec="NATURAL") passes to gstrf
_GSTRF_OPTIONS = {"DiagPivotThresh": None, "ColPerm": "NATURAL", "PanelSize": None,
                  "Relax": None, "SymmetricMode": True}


class SingularShiftError(RuntimeError):
    """(A - sigma*M) is singular to working tolerance at this shift."""


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


_orderings: dict[tuple[int, int], _Ordering] = {}
_orderings_lock = threading.Lock()


def _cached_ordering(indptr: np.ndarray, indices: np.ndarray) -> _Ordering:
    """Ordering of a canonical CSR pattern shared by A and M, built once.

    Patterns are recognised by the identity of their index arrays, so the
    matrices of one mesh, which hold the mesh's pattern arrays, find the
    ordering its first factorization built.  The oldest of more than
    ``_ORDERINGS_KEPT`` orderings is dropped.
    """
    key = (id(indptr), id(indices))
    with _orderings_lock:
        ordering = _orderings.get(key)
        if ordering is None:
            n = indptr.size - 1
            k = math.isqrt(n)
            perm = nested_dissection(k) if k * k == n else np.arange(n)
            ordering = _orderings[key] = _Ordering(indptr, indices, perm)
            if len(_orderings) > _ORDERINGS_KEPT:
                del _orderings[next(iter(_orderings))]
        return ordering


def _on_one_pattern(A: sp.spmatrix, M: sp.spmatrix):
    """A and M as CSR matrices; ValueError unless they share one canonical pattern."""
    A, M = A.tocsr(), M.tocsr()
    if not (A.has_canonical_format and M.has_canonical_format
            and all(a is b or np.array_equal(a, b)
                    for a, b in ((A.indptr, M.indptr), (A.indices, M.indices)))):
        raise ValueError("A and M must share one canonical CSR pattern")
    return A, M


def shifted_operator(A: sp.spmatrix, M: sp.spmatrix, sigma: float) -> sp.csr_matrix:
    """A - sigma*M as one subtraction of the values on the pair's shared CSR pattern."""
    A, M = _on_one_pattern(A, M)
    return sp.csr_matrix((A.data - float(sigma) * M.data, A.indices, A.indptr),
                         shape=A.shape)


def _raw_csc(arrays, shape):
    # gstrf's csc_construct_func: keep L and U as their raw CSC buffers
    return arrays


class FactorizedOperator:
    """Direct factorization of A - sigma*M, A and M on one CSR pattern.

    Shareable across solves; a pair on two patterns raises ValueError.
    """

    def __init__(self, A: sp.spmatrix, M: sp.spmatrix, sigma: float):
        if A.shape != M.shape or A.shape[0] != A.shape[1]:
            raise ValueError("A and M must be square matrices of equal size")
        self.sigma = float(sigma)
        self.n = A.shape[0]
        A, M = _on_one_pattern(A, M)
        ordering = self.ordering = _cached_ordering(A.indptr, A.indices)
        values = (A.data - self.sigma * M.data)[ordering.gather]
        try:
            self._lu = _superlu.gstrf(self.n, values.size, values, ordering.indices,
                                      ordering.indptr, csc_construct_func=_raw_csc,
                                      ilu=False, options=_GSTRF_OPTIONS)
        except RuntimeError as exc:   # exactly singular pivot
            raise SingularShiftError(
                f"factorization at shift {sigma:.17g} is singular: {exc}"
            ) from None
        # U's diagonal; the raw buffers run past the last column's end
        data, rows, indptr = self._lu.U
        end = indptr[-1]
        columns = np.repeat(np.arange(self.n, dtype=rows.dtype), np.diff(indptr))
        pivots = np.abs(data[:end][rows[:end] == columns])
        pivot_max = pivots.max(initial=0.0)
        # a column of U without a stored diagonal has a zero pivot
        pivot_min = pivots.min() if pivots.size == self.n else 0.0
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


def matvec(S, x: np.ndarray) -> np.ndarray:
    """S @ x, bitwise.

    A float CSR matrix times a float vector of its width goes straight to
    ``_sparsetools.csr_matvec``, the kernel that ``S @ x`` dispatches to;
    any other operand takes the ``@`` path.
    """
    if (getattr(S, "format", None) == "csr" and S.dtype == np.float64
            and isinstance(x, np.ndarray) and x.dtype == np.float64
            and x.shape == (S.shape[1],)):
        y = np.zeros(S.shape[0])
        _sparsetools.csr_matvec(S.shape[0], S.shape[1], S.indptr, S.indices, S.data,
                                x, y)
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
