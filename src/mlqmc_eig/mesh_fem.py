"""Uniform P1 triangulations of the unit square and parametric assembly.

Each mesh halves the unit square into ``n = 2^m`` intervals per side and
splits every cell along the bottom-left to top-right diagonal, so meshes
are nested and island boundaries at multiples of 1/8 stay mesh-aligned.
Element integrals use the 3-point edge-midpoint rule (exact for
quadratic integrands).  On a uniform mesh the quadrature nodes form six
tensor grids, one per node of a cell: node q of cell (r, c) sits at
((c + xi_q) h, (r + eta_q) h).  Coefficients are evaluated on those
grids, as pairs ``(x1, x2)`` of a row and a column of coordinates (see
``problems``), so a term f(x1) g(x2) costs O(n) sines and O(n^2)
products on a mesh with n cells per side.

Assembly is interior-only: the stiffness and mass matrices live on the
interior DOFs (homogeneous Dirichlet boundary), and both are built on
one CSR pattern per mesh, so every shifted operator of that mesh shares
it (see ``sparse_linalg``).  The pattern comes from the 7-point stencil
of the mesh, with no sort: an interior node couples to itself and to
its interior neighbours at the (row, column) offsets of ``_NEIGHBOURS``,
whose columns ascend in that order.  Local entries whose row or column
is a boundary node go to one extra bin past the pattern, which assembly
drops.

The stiffness matrix for a parameter ``y`` combines per-term
coefficient tables, evaluated once per (mesh, problem, truncation) at
O(s n) sines, with a single mat-vec per sample, so the per-sample cost
scales like s * h^-2.  The mean field y = 0 needs no
tables: A(0) is assembled from a0 and b0 once per (mesh, problem) and
cached, like the mass matrix.  Tables larger than
``_TABLE_MAX_FLOATS`` are not kept; the coefficient is then evaluated
term by term on the grids on every call (``CoefficientSeries.a_values``),
which skips the zero entries of y.

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

# basis values at the edge midpoints (p0+p1)/2, (p1+p2)/2, (p2+p0)/2
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

# h^2 grad(phi_i).grad(phi_j) on the lower (v00, v10, v11) and the upper
# (v00, v11, v01) triangle of a cell; every mesh has only these two
_STENCILS = np.array([[[1, -1, 0], [-1, 2, -1], [0, -1, 1]],
                      [[1, 0, -1], [0, 1, -1], [-1, -1, 2]]], dtype=float)

# coefficient tables are kept only below this size (floats)
_TABLE_MAX_FLOATS = 2 ** 25


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
    (r, c): the midpoint of the edge from vertex q to vertex q + 1,
    computed as 0.5 * (p_q + p_{q+1}) from the node coordinates.

    ``indices`` and ``indptr`` (int32) are the interior CSR pattern,
    read off the 7-point stencil of ``_NEIGHBOURS`` with no sort.
    ``slots[k]`` is the data slot of local entry k of the 9 * n_el, in
    element order; an entry whose row or column is a boundary node has
    slot nnz, the extra bin that ``assemble`` drops.  Every slot sums
    its contributions in element order.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        n = mesh.n_per_side
        self.area = mesh.h * mesh.h / 2.0
        self.stencils = _STENCILS / (mesh.h * mesh.h)   # exact: h^2 = 4^-m
        line = np.arange(n + 1) * mesh.h                # node coordinates
        cells = np.arange(n)
        start = _VERTICES.reshape(6, 2)                 # vertex q of node 3t + q
        end = np.roll(_VERTICES, -1, axis=1).reshape(6, 2)  # vertex q + 1
        self.quad_x1 = 0.5 * (line[cells + start[:, :1]] + line[cells + end[:, :1]])
        self.quad_x2 = 0.5 * (line[cells + start[:, 1:]] + line[cells + end[:, 1:]])

        # interior CSR pattern: node (r, c) couples to (r + dr, c + dc)
        # of _NEIGHBOURS[k] when both are interior; row-major over
        # (r, c, k) the valid couplings are the CSR entries in order
        index = mesh.interior_index.reshape(n + 1, n + 1)
        column = np.full((n + 1, n + 1, len(_NEIGHBOURS)), -1, dtype=np.int32)
        for k, (dr, dc) in enumerate(_NEIGHBOURS):
            column[1:n, 1:n, k] = index[1 + dr:n + dr, 1 + dc:n + dc]
        valid = column >= 0
        self.indices = column[valid]
        del column
        self.indptr = np.zeros(mesh.n_interior + 1, dtype=np.int32)
        np.cumsum(valid[1:n, 1:n].sum(axis=2), out=self.indptr[1:])
        nnz = self.indices.size

        # slot of every local entry (cell row, cell column, triangle t,
        # i, j) in the data array; entries off the pattern go to bin nnz
        slot = np.full(valid.shape, nnz, dtype=np.intp)
        slot[valid] = np.arange(nnz)
        del valid
        slots = np.empty((n, n, 2, 3, 3), dtype=np.intp)
        for t, tri in enumerate(_VERTICES):
            for i, (ci, ri) in enumerate(tri):
                for j, (cj, rj) in enumerate(tri):
                    k = _NEIGHBOURS.index((rj - ri, cj - ci))
                    slots[:, :, t, i, j] = slot[ri:ri + n, ci:ci + n, k]
        self.slots = slots.ravel()

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

    def assemble(self, cell_scalars: np.ndarray | None,
                 quad_scalars: np.ndarray | None) -> sp.csr_matrix:
        """Sum ``cell * grad_i.grad_j + (area/3) * quad_q * phi_i phi_j``."""
        # elements alternate lower, upper per cell
        vals = np.zeros((self.mesh.n_elements, 3, 3)) if cell_scalars is None else \
            (self.stencils * cell_scalars.reshape(-1, 2, 1, 1)).reshape(-1, 3, 3)
        if quad_scalars is not None:
            w = quad_scalars.reshape(-1, 3) * (self.area / 3.0)
            vals = vals + np.einsum("eq,qij->eij", w, _PHI_OUTER)
        nnz = self.indices.size
        data = np.bincount(self.slots, weights=vals.ravel(), minlength=nnz + 1)[:nnz]
        dim = self.mesh.n_interior
        mat = sp.csr_matrix((data, self.indices, self.indptr), shape=(dim, dim))
        # the constructor keeps a view of indices; hold the mesh's own array,
        # so every matrix of the mesh shares its pattern by identity
        mat.indices = self.indices
        return mat


@lru_cache(maxsize=None)
def _geometry(mesh: TriMesh) -> _Geometry:
    return _Geometry(mesh)


class _CoefficientTables:
    """Values of every coefficient term at the quadrature nodes.

    Per-term tables are kept when ``s`` of them fit in
    ``_TABLE_MAX_FLOATS``; each row is filled in place by one call of
    the term on the node grids, and the coefficient at y is one mat-vec.
    Otherwise it is evaluated term by term on every call.
    """

    def __init__(self, mesh: TriMesh, problem: CoefficientSeries, s: int):
        geo = _geometry(mesh)
        n_quad = 3 * mesh.n_elements
        self.problem = problem
        self._geo = geo
        self.aj = None
        self.bj = None
        if s * n_quad <= _TABLE_MAX_FLOATS:
            self.a0 = geo.evaluate(problem.a0)
            self.aj = self._terms(problem.a_term, s, n_quad)
            if problem.has_b:
                self.b0 = geo.evaluate(problem.b0)
                self.bj = self._terms(problem.b_term, s, n_quad)

    def _terms(self, term, s: int, n_quad: int) -> np.ndarray:
        table = np.empty((s, n_quad))
        for j in range(1, s + 1):
            self._geo.evaluate(partial(term, j), out=table[j - 1])
        return table

    def a_at_quad(self, y: np.ndarray) -> np.ndarray:
        if self.aj is None:
            return self._geo.evaluate(partial(self.problem.a_values, y=y))
        return self.a0 + y @ self.aj

    def b_at_quad(self, y: np.ndarray) -> np.ndarray | None:
        if not self.problem.has_b:
            return None
        if self.bj is None:
            return self._geo.evaluate(partial(self.problem.b_values, y=y))
        return self.b0 + y @ self.bj


@lru_cache(maxsize=32)
def _tables(mesh: TriMesh, problem: CoefficientSeries, s: int) -> _CoefficientTables:
    return _CoefficientTables(mesh, problem, s)


def stiffness_interior(mesh: TriMesh, problem: CoefficientSeries, y) -> sp.csr_matrix:
    """Stiffness matrix on the interior DOFs (the eigenproblem operator).

    Entry (i, j) approximates the integral of
    a^s(x,y) grad(phi_i).grad(phi_j) + b^s(x,y) phi_i phi_j by the
    edge-midpoint rule; the truncation dimension s is len(y).  A zero y
    of any length (also empty) gives the mean-field operator A(0): it is
    assembled once per (mesh, problem) from a0 and b0 alone, cached, and
    returned read-only, the same object on every call.  It is bitwise
    the matrix the coefficient tables would give, since a0 + 0 * a_j is
    a0 exactly.
    """
    y = np.asarray(y, dtype=float)
    if not y.any():
        return _mean_field_stiffness(mesh, problem)
    tab = _tables(mesh, problem, y.size)
    return _stiffness(mesh, problem, tab.a_at_quad(y), tab.b_at_quad(y))


def _stiffness(mesh: TriMesh, problem: CoefficientSeries, a_q: np.ndarray,
               b_q: np.ndarray | None) -> sp.csr_matrix:
    """Stiffness from a and b at the quadrature nodes, after checking a > 0."""
    if np.any(a_q <= 0.0):
        worst = float(a_q.min())
        raise CoefficientBoundError(
            f"{problem.name}: a(x, y) = {worst:g} <= 0 at a quadrature node"
        )
    geo = _geometry(mesh)
    # left to right, bitwise the sum over a length-3 axis
    cell = (geo.area / 3.0) * (a_q[0::3] + a_q[1::3] + a_q[2::3])
    return geo.assemble(cell, b_q)


@lru_cache(maxsize=64)
def _mean_field_stiffness(mesh: TriMesh, problem: CoefficientSeries) -> sp.csr_matrix:
    geo = _geometry(mesh)
    b_q = geo.evaluate(problem.b0) if problem.has_b else None
    mat = _stiffness(mesh, problem, geo.evaluate(problem.a0), b_q)
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

    idx = np.arange(1, nf)                            # interior rows/columns
    cell = idx // ratio
    frac = idx / ratio - cell
    cell_c, cell_r = np.meshgrid(cell, cell)          # column/row cell index
    xi, eta = np.meshgrid(frac, frac)                 # local coords in the cell
    xi, eta = xi.ravel(), eta.ravel()
    v00 = (cell_r * (nc + 1) + cell_c).ravel()
    lower = xi >= eta

    cols = np.column_stack([v00, np.where(lower, v00 + 1, v00 + nc + 1), v00 + nc + 2])
    weights = np.column_stack([np.where(lower, 1.0 - xi, 1.0 - eta),
                               np.where(lower, xi - eta, eta - xi),
                               np.where(lower, eta, xi)])
    rows = np.repeat(np.arange(fine.n_interior), 3)
    cols, weights = coarse.interior_index[cols.ravel()], weights.ravel()
    keep = (weights != 0.0) & (cols >= 0)
    shape = (fine.n_interior, coarse.n_interior)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=shape[0]))))
    mat = sp.csr_matrix((weights[keep], cols[keep], indptr), shape=shape)
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
