"""Uniform P1 triangulations of the unit square and parametric assembly.

Each mesh halves the unit square into ``n = 2^m`` intervals per side and
splits every cell along the bottom-left to top-right diagonal, so meshes
are nested and island boundaries at multiples of 1/8 stay mesh-aligned.
Element integrals use the 3-point edge-midpoint rule (exact for
quadratic integrands), stated once: row q of ``_PHI`` is node q in
barycentric coordinates.  On a uniform mesh the quadrature nodes form
six tensor grids, one per node of a cell.  Coefficients are evaluated
on those grids, as pairs ``(x1, x2)`` of a row and a column of
coordinates (see ``problems``), so a term f(x1) g(x2) costs O(n) sines
and O(n^2) products on a mesh with n cells per side.

Assembly is interior-only: the stiffness and mass matrices live on the
interior DOFs (homogeneous Dirichlet boundary), and both are built on
one CSR pattern per mesh, so every shifted operator of that mesh shares
it (see ``sparse_linalg``).  The pattern comes from the 7-point stencil
of the mesh, with no sort: an interior node couples to itself and to
its interior neighbours at the (row, column) offsets of ``_NEIGHBOURS``,
whose columns ascend in that order.  Assembly needs no map from local
entries to the pattern: the value at offset k of every node is the sum
of the local entries that land on it (``_LOCAL_ENTRIES``), each a
window of the element values shifted by its cell, added in element
order.  It works through the node rows in blocks of a bounded size
(``_BLOCK_FLOATS``), so it makes no array of the size of the mesh but
the matrix values, and each matrix is a clone of the mesh's pattern
holding its values (``sparse_linalg.csr_with_data``).

The stiffness matrix for a parameter ``y`` treats a and b alike: each
field of the problem (``CoefficientSeries.fields``) keeps its base
values and a table of its terms, evaluated once per (mesh, problem,
truncation) at O(s n) sines, and is one mat-vec per sample, so the
per-sample cost scales like s * h^-2.  The mean field y = 0 needs no
tables: A(0) is assembled from a0 and b0 once per (mesh, problem) and
cached, like the mass matrix.  Tables larger than
``_TABLE_MAX_FLOATS`` (4 MB, so up to h = 1/32 at s = 64) are not
built; each field is then evaluated separably, from the rank-one 1-D
factors of its terms (``SeparableTerms.rank_one``), as one batched
matrix product over the six node grids.  A ``CoefficientSeries``
without ``separable`` therefore needs it from h = 1/64 on at s = 64.

Transfer between nested meshes is one matrix per (coarse, fine) pair,
``prolongation``, built once from the interpolation stencil on the
interior DOFs, for the two-grid start vector and the multigrid
hierarchy of ``eigensolver``.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp

from .problems import CoefficientSeries
from .sparse_linalg import csr_with_data

# row q: quadrature node q in barycentric coordinates, so the basis values there
_PHI = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])
_PHI_OUTER = np.einsum("qi,qj->qij", _PHI, _PHI)

# (column, row) offsets of the vertices of the lower (v00, v10, v11) and
# the upper (v00, v11, v01) triangle of a cell, in ``TriMesh`` order
_VERTICES = np.array([[[0, 0], [1, 0], [1, 1]],
                      [[0, 0], [1, 1], [0, 1]]])

# (row, column) offsets of the nodes a node couples to, columns ascending
_NEIGHBOURS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))

# for each offset of _NEIGHBOURS, the local entries that land on it, as
# (t, i, j, a, b): entry (t, i, j) of cell (r + a - 1, c + b - 1) lands
# on node (r, c).  They are in element order (by cell row, cell column,
# then triangle); the diagonal takes six, every other offset two
_LOCAL_ENTRIES = tuple(
    sorted(((t, i, j, 1 - int(ri), 1 - int(ci))
            for t, tri in enumerate(_VERTICES)
            for i, (ci, ri) in enumerate(tri)
            for j, (cj, rj) in enumerate(tri)
            if (rj - ri, cj - ci) == offset), key=lambda entry: (*entry[3:], entry[0]))
    for offset in _NEIGHBOURS)
_DIAGONAL = _NEIGHBOURS.index((0, 0))

# the order in which assembly sums them: the first of every offset, the
# second of every offset, then the rest of the diagonal's
_GATHER = tuple(np.array([*(entries[0] for entries in _LOCAL_ENTRIES),
                          *(entries[1] for entries in _LOCAL_ENTRIES),
                          *_LOCAL_ENTRIES[_DIAGONAL][2:]]).T)

# h^2 grad(phi_i).grad(phi_j) on the lower (v00, v10, v11) and the upper
# (v00, v11, v01) triangle of a cell; every mesh has only these two
_STENCILS = np.array([[[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
                      [[1, 0, -1], [0, 1, -1], [-1, -1, 2]]], dtype=float)

# coefficient tables are built only up to this size (floats; 4 MB, so
# up to h = 1/32 at s = 64).  Above it a field is one GEMM of the 1-D
# factors of its terms, which is faster at every size: per P1 field at
# s = 64, 0.12 ms against the table's 0.61 ms at h = 1/64 and 0.05 ms
# against 0.14 ms at h = 1/32 (one BLAS thread, shared 2-core x86-64 VM).
# Tables stay up to h = 1/32 only because the bitwise-pinned outputs
# (the Problem-2 estimate, whose finest mesh is h = 1/32) read them.
_TABLE_MAX_FLOATS = 2 ** 19

# assembly makes its arrays one block of node rows at a time, each of at
# most this many floats (512 kB).  A P1 stiffness at a random y (s = 64,
# one BLAS thread, best of 5, three rounds on a shared 2-core x86-64 VM)
# takes 0.37, 1.37-1.45, 5.3-5.5 and 21-22 ms at h = 1/64 .. 1/512,
# against 0.42-0.59, 1.5-1.6, 6.2-6.5 and 27-29 ms with 2^15 floats,
# 0.35, 1.28-1.34, 4.9-5.3 and 20-22 ms with 2^17, and 0.46-0.50,
# 1.7-1.9, 7.0-9.0 and 38-47 ms for the per-mesh slot map it replaced
_BLOCK_FLOATS = 2 ** 16


class CoefficientBoundError(ValueError):
    """A coefficient violated its positivity bound at a quadrature node."""


class TriMesh:
    """Uniform right-triangle mesh of (0,1)^2 with 2^m intervals per side.

    Nodes are ordered lexicographically by (row, column), i.e. index
    ``r*(n+1) + c`` sits at (c*h, r*h).  Every square cell is split into
    the two counterclockwise triangles (v00, v10, v11) and
    (v00, v11, v01), each of area h^2/2, and elements are numbered by
    cell (row-major), lower before upper.  The mesh stores no node or
    element arrays, only its counts and ``interior_index`` (the DOF of
    each node, -1 on the boundary); everything else follows from the
    structure.
    """

    def __init__(self, level_exponent: int):
        if level_exponent < 1:
            raise ValueError(f"level exponent must be >= 1, got {level_exponent}")
        n = 1 << level_exponent
        if (n + 1) ** 2 >= 2 ** 31:
            raise ValueError(f"level exponent {level_exponent} overflows node indices")
        self.level_exponent = level_exponent
        self.n_per_side = n
        self.h = 1.0 / n
        self.n_nodes = (n + 1) ** 2
        self.n_elements = 2 * n * n
        self.n_interior = (n - 1) ** 2
        index = np.full((n + 1, n + 1), -1, dtype=np.int64)
        index[1:n, 1:n] = np.arange(self.n_interior).reshape(n - 1, n - 1)
        self.interior_index = index.ravel()

    def __repr__(self):
        return f"TriMesh(m={self.level_exponent}, h=1/{self.n_per_side})"


@lru_cache(maxsize=None)
def build_uniform_mesh(level_exponent: int) -> TriMesh:
    """Mesh with meshwidth h = 2^-m; repeated calls return the same object."""
    return TriMesh(level_exponent)


class _Geometry:
    """Per-mesh quadrature geometry and the interior sparsity pattern.

    ``quad_x1[k, c]`` and ``quad_x2[k, r]`` are the coordinates of the
    quadrature node k = 3 t + q (triangle t, node q of ``_PHI``) of cell
    (r, c): sum_i _PHI[q, i] p_i over the vertices p_i of the triangle,
    so the nodes follow the table.

    ``indices`` and ``indptr`` (int32) are the interior CSR pattern,
    read off the 7-point stencil of ``_NEIGHBOURS`` with no sort: node
    row r of the interior couples to row r + dr of offset k when
    ``valid_rows[k, r - 1]``, and likewise for columns and
    ``valid_columns``.  ``pattern`` is a CSR matrix on them with no
    values, which ``assemble`` clones.  The geometry holds no array of
    the size of the mesh besides its pattern.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        n = mesh.n_per_side
        self.area = mesh.h * mesh.h / 2.0
        self.stencils = _STENCILS / (mesh.h * mesh.h)   # exact: h^2 = 4^-m
        line = np.arange(n + 1) * mesh.h                # node coordinates
        # node q of triangle t at sum_i _PHI[q, i] p_i, added left to right;
        # p[d, t, i] is coordinate d of vertex i in each cell
        p = line[np.arange(n) + np.moveaxis(_VERTICES, 2, 0)[..., None]]
        nodes = sum(_PHI[:, i, None] * p[:, :, i, None] for i in range(3))  # (d, t, q, cell)
        self.quad_x1, self.quad_x2 = nodes.reshape(2, 6, n)

        # interior CSR pattern: node (r, c) couples to (r + dr, c + dc)
        # of _NEIGHBOURS[k] when both are interior; row-major over
        # (r, c, k) the valid couplings are the CSR entries in order
        inner = np.arange(1, n)
        dr, dc = np.array(_NEIGHBOURS).T[..., None]
        self.valid_rows = (inner + dr >= 1) & (inner + dr <= n - 1)
        self.valid_columns = (inner + dc >= 1) & (inner + dc <= n - 1)
        valid = self._couplings(slice(None))
        dofs = np.arange(mesh.n_interior, dtype=np.int32).reshape(n - 1, n - 1, 1)
        self.indices = (dofs + (dr * (n - 1) + dc).astype(np.int32).ravel())[valid]
        self.indptr = np.zeros(mesh.n_interior + 1, dtype=np.int32)
        np.cumsum(valid.sum(axis=2, dtype=np.int32), out=self.indptr[1:])
        dim = mesh.n_interior
        self.pattern = sp.csr_matrix(
            (np.broadcast_to(0.0, self.indices.shape), self.indices, self.indptr),
            shape=(dim, dim))
        # the constructor keeps a view of indices; hold the mesh's own array,
        # so every matrix of the mesh shares its pattern by identity.  The
        # stencil columns ascend with no repeat, so the pattern is canonical
        self.pattern.indices = self.indices
        self.pattern.has_canonical_format = True
        del self.pattern.data

    def _couplings(self, rows: slice) -> np.ndarray:
        """Which couplings of the interior node rows ``rows`` (from 0) are
        in the pattern, as (row, column, offset)."""
        return (self.valid_rows[:, rows, None] & self.valid_columns[:, None]).transpose(1, 2, 0)

    def evaluate(self, fn, out: np.ndarray | None = None) -> np.ndarray:
        """``fn((x1, x2))`` at every quadrature node, flat in element order.

        ``fn`` is called once, on the six node grids stacked on a leading
        axis (x1 of shape (6, 1, n), x2 of shape (6, n, 1)); its values
        are moved into (cell row, cell column, node) order, written into
        ``out`` when given.
        """
        n = self.mesh.n_per_side
        vals = fn((self.quad_x1[:, None, :], self.quad_x2[:, :, None]))
        if out is None:
            out = np.empty(6 * n * n)
        out.reshape(n, n, 6)[...] = np.moveaxis(vals, 0, -1)
        return out

    def _local_values(self, cells, quads, rows: slice) -> np.ndarray:
        """The local entries of cell ``rows``, (t, i, j, cell row, cell column).

        ``cells[r, 2 c + t]`` and ``quads[r, 6 c + 3 t + q]`` hold the
        scalars of triangle t (at node q) of cell (r, c); either may be None.
        """
        n = self.mesh.n_per_side
        vals = None
        if cells is not None:
            vals = self.stencils[..., None, None] * \
                cells[rows].reshape(-1, n, 2).transpose(2, 0, 1)[:, None, None]
        if quads is not None:
            w = np.multiply(quads[rows].reshape(-1, n, 6).transpose(2, 0, 1), self.area / 3.0,
                            order="C")
            # a mass entry sums at most two nonzero products w_q / 4, each
            # exact, so its bits do not depend on the order of the sum
            mass = np.matmul(_PHI_OUTER.reshape(3, 9).T, w.reshape(2, 3, -1)).reshape(2, 3, 3, -1, n)
            # without a cell part the mass part is the values
            if vals is None:
                vals = mass
            else:
                vals += mass
        return vals

    def assemble(self, cell_scalars: np.ndarray | None,
                 quad_scalars: np.ndarray | None) -> sp.csr_matrix:
        """Sum ``cell * grad_i.grad_j + (area/3) * quad_q * phi_i phi_j``.

        Node rows go in blocks whose local entries, those of the block's
        cell rows and of the row below, take at most ``_BLOCK_FLOATS``
        floats (but at least one node row).  The value at offset k of
        node (r, c) sums the entries of ``_LOCAL_ENTRIES[k]`` left to
        right, so in element order, from the first entry (a sum into
        zeros gives the same bits: 0.0 + v is v for every v but -0.0,
        and no local entry is -0.0, as a > 0 and c > 0).  Each entry
        is a window of the block's local entries; the windows are
        gathered in ``_GATHER`` order and summed in place.  The valid
        couplings of a block's node rows are one slice of the values.
        """
        n = self.mesh.n_per_side
        width = len(_NEIGHBOURS)
        cells = None if cell_scalars is None else cell_scalars.reshape(n, 2 * n)
        quads = None if quad_scalars is None else quad_scalars.reshape(n, 6 * n)
        data = np.empty(self.indices.size)
        step = max(1, _BLOCK_FLOATS // (18 * n) - 1)
        for top in range(1, n, step):            # node rows top .. end - 1
            end = min(top + step, n)
            vals = self._local_values(cells, quads, slice(top - 1, end))
            # windows[t, i, j, a, b] holds the local entry (t, i, j) of cell
            # (r + a - 1, c + b - 1) at each node (r, c) of the block
            slab, row, column = vals.strides[:3], vals.strides[3], vals.strides[4]
            windows = np.ndarray((2, 3, 3, 2, 2, end - top, n - 1), buffer=vals,
                                 strides=(*slab, row, column, row, column))
            sums = windows[_GATHER]
            np.add(sums[:width], sums[width:2 * width], out=sums[:width])
            for window in sums[2 * width:]:
                sums[_DIAGONAL] += window
            lo, hi = self.indptr[(top - 1) * (n - 1)], self.indptr[(end - 1) * (n - 1)]
            data[lo:hi] = sums[:width].transpose(1, 2, 0)[self._couplings(slice(top - 1, end - 1))]
        return csr_with_data(self.pattern, data)


@lru_cache(maxsize=None)
def _geometry(mesh: TriMesh) -> _Geometry:
    return _Geometry(mesh)


@lru_cache(maxsize=32)
def _tables(mesh: TriMesh, problem: CoefficientSeries, s: int) -> tuple | None:
    """One (base values, term table) pair per field of ``problem``.

    The values are at the quadrature nodes, a first, then b when the
    problem has one; each of the s table rows is filled in place by one
    call of the term on the node grids, so the field at y is one
    mat-vec.  None when the tables would exceed ``_TABLE_MAX_FLOATS``;
    ``_factors`` serves those sizes.
    """
    n_quad = 3 * mesh.n_elements
    if s * n_quad > _TABLE_MAX_FLOATS:
        return None
    geo = _geometry(mesh)
    tables = []
    for base, term in problem.fields:
        base_q, table = geo.evaluate(base), np.empty((s, n_quad))
        for j in range(1, s + 1):
            geo.evaluate(partial(term, j), out=table[j - 1])
        tables.append((base_q, table))
    return tuple(tables)


@lru_cache(maxsize=32)
def _factors(mesh: TriMesh, problem: CoefficientSeries, s: int) -> tuple:
    """One (base values, index, weight, G, F^T) per field of ``problem``.

    The rank-one factors of terms 1..s (``SeparableTerms.rank_one``) on
    the six node grids: G (6, n, r) over x2 and F^T (6, r, n) over x1,
    so the field at y is base + G diag(weight * y[index]) F^T on each
    grid.
    """
    families = problem.separable
    if families is None:
        raise ValueError(
            f"{problem.name}: coefficient tables above _TABLE_MAX_FLOATS need "
            "term families stated as SeparableTerms"
        )
    geo = _geometry(mesh)
    factors = []
    for (base, _), family in zip(problem.fields, families):
        index, weight, F, G = family.rank_one(s, geo.quad_x1, geo.quad_x2)
        factors.append((geo.evaluate(base), index, weight, G,
                        np.ascontiguousarray(F.swapaxes(1, 2))))
    return tuple(factors)


def _separable_values(geo: _Geometry, base_q, index, weight, G, FT,
                      y: np.ndarray) -> np.ndarray:
    """base + sum_j y_j term_j at the quadrature nodes, from ``_factors``."""
    return base_q + geo.evaluate(lambda _: np.matmul(G * (weight * y[index]), FT))


def stiffness_interior(mesh: TriMesh, problem: CoefficientSeries, y) -> sp.csr_matrix:
    """Stiffness matrix on the interior DOFs (the eigenproblem operator).

    Entry (i, j) approximates the integral of
    a^s(x,y) grad(phi_i).grad(phi_j) + b^s(x,y) phi_i phi_j by the
    quadrature rule of ``_PHI``; the truncation dimension s is len(y).  A zero y
    of any length (also empty) gives the mean-field operator A(0): it is
    assembled once per (mesh, problem) from a0 and b0 alone, cached, and
    returned read-only, the same object on every call.  It is bitwise
    the matrix the coefficient tables would give, since a0 + 0 * a_j is
    a0 exactly.  Above the table-size bound each field is evaluated
    separably (``_factors``), within roundoff of the table mat-vec.
    """
    y = np.asarray(y, dtype=float)
    if not y.any():
        return _mean_field_stiffness(mesh, problem)
    tables = _tables(mesh, problem, y.size)
    if tables is None:
        geo = _geometry(mesh)
        fields = [_separable_values(geo, *factors, y)
                  for factors in _factors(mesh, problem, y.size)]
    else:
        fields = [base_q + y @ table for base_q, table in tables]
    return _stiffness(mesh, problem, *fields)


def _stiffness(mesh: TriMesh, problem: CoefficientSeries, a_q: np.ndarray,
               b_q: np.ndarray | None = None) -> sp.csr_matrix:
    """Stiffness from a and b at the quadrature nodes, after checking a > 0."""
    if np.any(a_q <= 0.0):
        worst = float(a_q.min())
        raise CoefficientBoundError(
            f"{problem.name}: a(x, y) = {worst:g} <= 0 at a quadrature node"
        )
    geo = _geometry(mesh)
    # left to right, bitwise the sum over a length-3 axis, then scaled
    cell = a_q[0::3] + a_q[1::3]
    cell += a_q[2::3]
    cell *= geo.area / 3.0
    return geo.assemble(cell, b_q)


@lru_cache(maxsize=64)
def _mean_field_stiffness(mesh: TriMesh, problem: CoefficientSeries) -> sp.csr_matrix:
    geo = _geometry(mesh)
    mat = _stiffness(mesh, problem, *(geo.evaluate(base) for base, _ in problem.fields))
    mat.data.setflags(write=False)
    return mat


@lru_cache(maxsize=64)
def mass_interior(mesh: TriMesh, problem: CoefficientSeries) -> sp.csr_matrix:
    """Mass matrix of the weight c on the interior DOFs; cached per mesh."""
    geo = _geometry(mesh)
    c = geo.evaluate(problem.c)
    if np.any(c <= 0.0):
        raise CoefficientBoundError(
            f"{problem.name}: c(x) <= 0 at a quadrature node"
        )
    mat = geo.assemble(None, c)
    mat.data.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def prolongation(coarse: TriMesh, fine: TriMesh) -> sp.csr_matrix:
    """Matrix that evaluates coarse piecewise-linear functions at the fine DOFs.

    Both meshes must belong to the uniform family with the coarse
    intervals dividing the fine ones; the interpolation respects the
    diagonal split, so coarse functions are reproduced exactly.  A fine
    node at local coordinates (xi, eta) of a coarse cell takes the
    weights 1-xi, xi-eta, eta of (v00, v10, v11) in the lower triangle
    (xi >= eta) and 1-eta, eta-xi, xi of (v00, v01, v11) in the upper
    one.  Columns ascend in every row, so a mat-vec sums the vertex
    values in that order.  The matrix maps interior DOFs to interior
    DOFs: boundary values are zero, so boundary columns are dropped.
    Zero weights are not stored; the matrix is cached and read-only.
    """
    if fine.n_per_side % coarse.n_per_side:
        raise ValueError(
            f"meshes are not nested: {coarse.n_per_side} does not divide "
            f"{fine.n_per_side}"
        )
    ratio = fine.n_per_side // coarse.n_per_side
    nf, nc = fine.n_per_side, coarse.n_per_side

    inner = np.arange(1, nf)                          # interior rows/columns
    cell = inner // ratio
    frac = inner / ratio - cell                       # local coordinate in the cell
    xi, eta = frac, frac[:, None]
    # the weights of (v00, v10 or v01, v11) at fine node (row, column):
    # 1 - max(xi, eta), |xi - eta| and min(xi, eta), bitwise the weights
    # of either triangle (a - b is exactly -(b - a))
    weights = np.empty((nf - 1, nf - 1, 3))
    np.subtract(1.0, np.maximum(xi, eta), out=weights[..., 0])
    np.abs(np.subtract(xi, eta, out=weights[..., 1]), out=weights[..., 1])
    np.minimum(xi, eta, out=weights[..., 2])
    # a vertex k cells on from the node's cell is interior when ok[k] holds
    ok = [(cell + k >= 1) & (cell + k <= nc - 1) for k in (0, 1)]
    lower = xi >= eta
    keep = weights != 0.0
    keep[..., 0] &= ok[0][:, None] & ok[0]
    keep[..., 1] &= np.where(lower, ok[0][:, None] & ok[1], ok[1][:, None] & ok[0])
    keep[..., 2] &= ok[1][:, None] & ok[1]
    data = weights[keep]
    del weights

    # interior index of v00, then v10 (+1) or v01 (+nc-1), and v11 (+nc)
    columns = np.empty((nf - 1, nf - 1, 3), dtype=np.int32)
    np.add(((cell - 1) * (nc - 1))[:, None], cell - 1, out=columns[..., 0])
    np.add(columns[..., 0], np.where(lower, 1, nc - 1), out=columns[..., 1])
    np.add(columns[..., 0], nc, out=columns[..., 2])
    indices = columns[keep]
    del columns
    indptr = np.zeros(fine.n_interior + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2, dtype=np.int32), out=indptr[1:])
    mat = sp.csr_matrix((data, indices, indptr), shape=(fine.n_interior, coarse.n_interior))
    mat.data.setflags(write=False)
    return mat


def prolongate(u_coarse: np.ndarray, coarse: TriMesh, fine: TriMesh) -> np.ndarray:
    """The coarse piecewise-linear function at the fine DOFs: ``P @ u``.

    ``u_coarse`` holds the values at the interior DOFs of the coarse
    mesh (zero boundary values); the result holds those at the interior
    DOFs of the fine mesh (see ``prolongation``).
    """
    u_coarse = np.asarray(u_coarse, dtype=float)
    if u_coarse.shape != (coarse.n_interior,):
        raise ValueError("coarse vector has wrong length")
    return prolongation(coarse, fine) @ u_coarse
