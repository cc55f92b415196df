import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from mlqmc_eig import (
    CoefficientSeries,
    build_uniform_mesh,
    mass_interior,
    problem1,
    problem2,
    prolongate,
    stiffness_interior,
)
from mlqmc_eig import mesh_fem
from mlqmc_eig.mesh_fem import CoefficientBoundError
from series import a_values, b_values, constant_terms


def constant_series(a0=1.0, c=1.0, b0=None):
    def const(v):
        return lambda x: np.full(np.broadcast(*x).shape, v)
    return CoefficientSeries(
        name=f"const(a={a0},c={c},b={b0})",
        a0=const(a0),
        a_term=constant_terms(),
        c=const(c),
        a_min=min(a0, c),
        b0=None if b0 is None else const(b0),
        b_term=None if b0 is None else constant_terms(),
    )


def mesh_nodes(mesh):
    """Coordinates of every node, (n_nodes, 2): index r*(n+1) + c sits at
    (c*h, r*h)."""
    n = mesh.n_per_side
    cols, rows = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    return np.column_stack([cols.ravel() * mesh.h, rows.ravel() * mesh.h])


def mesh_elements(mesh):
    """Vertex indices of every element, (nel, 3): per cell (row-major) the
    lower (v00, v10, v11), then the upper (v00, v11, v01) triangle."""
    n = mesh.n_per_side
    cell_r, cell_c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = (cell_r * (n + 1) + cell_c).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    return np.column_stack([lower, upper]).reshape(-1, 3)


def boundary_mask(mesh):
    """Which nodes lie on the boundary, from their coordinates."""
    pts = mesh_nodes(mesh) / mesh.h
    r, c = np.rint(pts[:, 1]), np.rint(pts[:, 0])
    n = mesh.n_per_side
    return (r == 0) | (r == n) | (c == 0) | (c == n)


def interior_nodes(mesh):
    """Node indices of the interior DOFs, in DOF order."""
    return np.flatnonzero(~boundary_mask(mesh))


def interior_index(mesh):
    """The DOF of every node, -1 on the boundary: the interior nodes are
    the DOFs, in node order."""
    index = np.full(mesh.n_nodes, -1, dtype=np.int64)
    index[interior_nodes(mesh)] = np.arange(mesh.n_interior)
    return index


def sort_pattern(mesh):
    """The interior CSR pattern by the sort-based build that the stencil
    pattern of ``mesh_fem`` replaced: ``(indices, indptr, slots, keep)``,
    where the local entry ``keep[k]`` of the 9 * nel lands in data slot
    ``slots[k]``."""
    ele, index = mesh_elements(mesh), interior_index(mesh)
    rows = index[np.repeat(ele, 3, axis=1).ravel()]
    cols = index[np.tile(ele, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    dim = mesh.n_interior
    keys = rows[keep] * dim + cols[keep]
    unique_keys, slots = np.unique(keys, return_inverse=True)
    indices = (unique_keys % dim).astype(np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.add.at(indptr, (unique_keys // dim) + 1, 1)
    return indices, np.cumsum(indptr, dtype=np.int32), slots, keep


# the quadrature nodes of a triangle in barycentric coordinates, row q for
# node q: the edge midpoints (p0+p1)/2, (p1+p2)/2, (p2+p0)/2.  The oracles'
# own statement of the rule, apart from ``mesh_fem._PHI``
QUAD_NODES = np.array([[0.5, 0.5, 0.0],
                       [0.0, 0.5, 0.5],
                       [0.5, 0.0, 0.5]])


def naive_assembly(mesh, a_fn, b_fn, c_fn):
    """Dense per-element assembly oracle with its own basis-function math.

    Affine basis coefficients come from solving 3x3 Vandermonde systems,
    and the coefficients a, b, c are evaluated by the caller-supplied
    closed-form functions at the nodes of ``QUAD_NODES``.
    """
    n = mesh.n_nodes
    A = np.zeros((n, n))
    M = np.zeros((n, n))
    nodes = mesh_nodes(mesh)
    for tri in mesh_elements(mesh):
        coords = nodes[tri]
        vand = np.column_stack([np.ones(3), coords])
        basis = np.linalg.solve(vand, np.eye(3))   # column i: coeffs of phi_i
        area = 0.5 * abs(np.linalg.det(vand))
        nodes_q = QUAD_NODES @ coords
        w = area / 3.0
        for q in range(3):
            x = nodes_q[q]
            phi = basis[0] + basis[1] * x[0] + basis[2] * x[1]
            grads = basis[1:]                       # (2, 3), column i: grad phi_i
            aq, bq, cq = a_fn(x), b_fn(x), c_fn(x)
            for i in range(3):
                for j in range(3):
                    gij = grads[:, i] @ grads[:, j]
                    A[tri[i], tri[j]] += w * (aq * gij + bq * phi[i] * phi[j])
                    M[tri[i], tri[j]] += w * cq * phi[i] * phi[j]
    return A, M


def element_coords(mesh):
    """Vertex coordinates of every element, (nel, 3, 2)."""
    return mesh_nodes(mesh)[mesh_elements(mesh)]


def signed_areas(mesh):
    p = element_coords(mesh)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def embed(mesh, u_interior):
    """Extend an interior-DOF vector by zero boundary values."""
    full = np.zeros(mesh.n_nodes)
    full[interior_nodes(mesh)] = u_interior
    return full


def restrict_vec(mesh, u_full):
    """The values of a nodal vector at the interior nodes."""
    return u_full[interior_nodes(mesh)]


def general_grad_dot(mesh):
    """grad(phi_i).grad(phi_j) per element from each element's Jacobian.

    The formula of the general-geometry assembly that the two stencils
    of ``mesh_fem`` replace; kept to show that they agree bitwise.
    """
    p = element_coords(mesh)
    b = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=1)
    det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    inv = np.empty_like(b)
    inv[:, 0, 0] = b[:, 1, 1]
    inv[:, 0, 1] = -b[:, 0, 1]
    inv[:, 1, 0] = -b[:, 1, 0]
    inv[:, 1, 1] = b[:, 0, 0]
    inv /= det[:, None, None]
    ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.einsum("eab,ib->eia", inv, ref_grads)
    return np.einsum("eia,eja->eij", grads, grads)


def general_assembly_data(geo, grad_dot, cell_scalars, quad_scalars):
    """CSR data of ``geo.assemble`` computed from per-element ``grad_dot``
    and scattered on the sort-based pattern."""
    indices, _, slots, keep = sort_pattern(geo.mesh)
    vals = grad_dot * cell_scalars[:, None, None] if cell_scalars is not None \
        else np.zeros_like(grad_dot)
    w = quad_scalars.reshape(-1, 3) * (geo.area / 3.0)
    vals = vals + np.einsum("eq,qij->eij", w, mesh_fem._PHI_OUTER)
    return np.bincount(slots, weights=vals.ravel()[keep], minlength=indices.size)


def bincount_assembly_data(geo, cell_scalars, quad_scalars):
    """CSR data of ``geo.assemble`` by the formula that the per-mesh slot
    map of the local entries served: every local entry in element order,
    a zero-filled buffer for the mass part when there is no cell part,
    and ``np.bincount`` on the slots of the sort-based pattern, so each
    value is summed in element order."""
    vals = np.zeros((geo.mesh.n_elements, 3, 3)) if cell_scalars is None else \
        (geo.stencils * cell_scalars.reshape(-1, 2, 1, 1)).reshape(-1, 3, 3)
    if quad_scalars is not None:
        w = quad_scalars.reshape(-1, 3) * (geo.area / 3.0)
        vals = vals + np.einsum("eq,qij->eij", w, mesh_fem._PHI_OUTER)
    indices, _, slots, keep = sort_pattern(geo.mesh)
    return np.bincount(slots, weights=vals.ravel()[keep], minlength=indices.size)


def pointwise_quad_points(mesh):
    """The quadrature nodes of every element, (nel, 3, 2), computed from
    the element coordinates and ``QUAD_NODES``, as the point-wise
    assembly held them: node q is sum_i QUAD_NODES[q, i] p_i, summed
    left to right."""
    w = QUAD_NODES[:, :, None]
    p = element_coords(mesh)[:, None]
    return w[:, 0] * p[:, :, 0] + w[:, 1] * p[:, :, 1] + w[:, 2] * p[:, :, 2]


def pointwise_coefficients(mesh, problem, y):
    """Term tables and a, b at the quadrature nodes by the point-wise
    build that the grid evaluation replaced: each term called once on
    the flat node list and the rows ``np.stack``-ed, so a field is one
    mat-vec; the base alone when s = 0."""
    pts = pointwise_quad_points(mesh).reshape(-1, 2)
    x = (pts[:, 0], pts[:, 1])
    ref = {"b": None}
    if y.size == 0:
        ref["a"] = a_values(problem, x, y)
        if problem.has_b:
            ref["b"] = b_values(problem, x, y)
        return ref
    ref["a0"] = np.asarray(problem.a0(x), dtype=float)
    ref["aj"] = np.stack([problem.a_term(j, x) for j in range(1, y.size + 1)])
    ref["a"] = ref["a0"] + y @ ref["aj"]
    if problem.has_b:
        ref["b0"] = np.asarray(problem.b0(x), dtype=float)
        ref["bj"] = np.stack([problem.b_term(j, x) for j in range(1, y.size + 1)])
        ref["b"] = ref["b0"] + y @ ref["bj"]
    return ref


def pointwise_stiffness(mesh, a_quad, b_quad):
    """Stiffness CSR data from coefficient values at the quadrature nodes."""
    geo = mesh_fem._geometry(mesh)
    cell = (geo.area / 3.0) * a_quad.reshape(-1, 3).sum(axis=1)
    return geo.assemble(cell, b_quad).data


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def interior_block(mesh, matrix):
    """The rows and columns of a full nodal matrix at the interior nodes."""
    idx = interior_nodes(mesh)
    return matrix[np.ix_(idx, idx)]


def far_from_boundary(mesh):
    """Interior-DOF indices of the nodes with no boundary neighbour."""
    ele = mesh_elements(mesh)
    near = np.zeros(mesh.n_nodes, dtype=bool)
    near[ele[boundary_mask(mesh)[ele].any(axis=1)]] = True
    return interior_index(mesh)[~near]


def fields_and_stiffness(monkeypatch, mesh, problem, y):
    """The fields handed to ``_stiffness`` and the stiffness matrix at y."""
    stiffness, seen = mesh_fem._stiffness, []

    def spy(mesh, problem, *fields):
        seen.append(fields)
        return stiffness(mesh, problem, *fields)

    with monkeypatch.context() as patch:
        patch.setattr(mesh_fem, "_stiffness", spy)
        A = stiffness_interior(mesh, problem, y)
    return seen.pop(), A


class TestMesh:
    def test_counts_m1(self):
        mesh = build_uniform_mesh(1)
        assert mesh.n_nodes == 9
        assert mesh.n_elements == 8
        assert mesh.n_interior == 1

    def test_counts_m3(self):
        mesh = build_uniform_mesh(3)
        assert mesh.h == 1 / 8
        assert mesh.n_interior == 49
        assert np.allclose(signed_areas(mesh), 1 / 128)

    def test_elements_counterclockwise(self):
        for m in (1, 2, 4):
            mesh = build_uniform_mesh(m)
            assert np.all(signed_areas(mesh) > 0)

    def test_node_ordering_lexicographic(self):
        mesh = build_uniform_mesh(2)
        # index r*(n+1)+c at (c*h, r*h)
        nodes = mesh_nodes(mesh)
        assert np.allclose(nodes[0], [0, 0])
        assert np.allclose(nodes[1], [0.25, 0])
        assert np.allclose(nodes[5], [0, 0.25])

    def test_interior_index_roundtrip(self):
        # the DOF numbering that the sort-based pattern oracle reads
        mesh = build_uniform_mesh(3)
        index = interior_index(mesh)
        assert index[boundary_mask(mesh)].max() == -1
        interior = np.flatnonzero(~boundary_mask(mesh))
        assert np.array_equal(np.flatnonzero(index >= 0), interior)
        assert index[interior[5]] == 5
        # row-major over the interior: node (r, c) is DOF (r-1)(n-1) + c-1
        n = mesh.n_per_side
        assert index[2 * (n + 1) + 3] == (n - 1) + 2

    def test_dof_scaling(self):
        # M_h ~ h^-2
        for m in (2, 3, 4, 5):
            mesh = build_uniform_mesh(m)
            assert mesh.n_interior == (2 ** m - 1) ** 2

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            build_uniform_mesh(0)
        with pytest.raises(ValueError):
            build_uniform_mesh(20)


class TestPattern:
    @pytest.mark.parametrize("m", range(1, 10))
    def test_matches_sort_oracle(self, m):
        mesh = build_uniform_mesh(m)
        geo = mesh_fem._geometry(mesh)
        indices, indptr, slots, keep = sort_pattern(mesh)
        assert geo.indices.dtype == geo.indptr.dtype == np.int32
        assert geo.indices.tobytes() == indices.tobytes()
        assert geo.indptr.tobytes() == indptr.tobytes()

    def test_matrices_hold_the_mesh_pattern_by_identity(self, prob1, prob2):
        # every matrix of a mesh holds the geometry's own index arrays, so
        # a pair on one pattern is recognised by identity
        mesh = build_uniform_mesh(4)
        geo = mesh_fem._geometry(mesh)
        y = np.random.default_rng(4).random(8) - 0.5
        for problem in (prob1, prob2):
            for mat in (stiffness_interior(mesh, problem, y),
                        stiffness_interior(mesh, problem, np.zeros(0)),
                        mass_interior(mesh, problem)):
                assert mat.indices is geo.indices and mat.indptr is geo.indptr
                assert mat.has_canonical_format

    def test_geometry_peak_memory_within_3x_retained(self):
        mesh = build_uniform_mesh(8)
        tracemalloc.start()
        try:
            geo = mesh_fem._Geometry(mesh)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert geo.indices.size > 0
        assert peak <= 3 * retained, (peak, retained)

    def test_geometry_holds_no_mesh_sized_array_but_its_pattern(self):
        # assembly needs no map of the local entries: besides indices and
        # indptr every array the geometry holds has O(n) entries
        mesh = mesh_fem.TriMesh(8)
        geo = mesh_fem._Geometry(mesh)
        held = [v for v in [*vars(geo).values(), *vars(geo.pattern).values()]
                if isinstance(v, np.ndarray)]
        assert any(v is geo.indices for v in held) and any(v is geo.indptr for v in held)
        others = [v for v in held if v is not geo.indices and v is not geo.indptr]
        assert others and max(v.size for v in others) <= 7 * mesh.n_per_side


class TestAssembly:
    @pytest.mark.parametrize("problem, m", [
        *((problem, m) for m in range(3, 9)
          for problem in (problem1(2.0), problem1(1.4), problem2())),
        (problem1(2.0), 9)],
        ids=[*(f"{name}-{m}" for m in range(3, 9) for name in ("p1", "p1-slow-decay", "p2")),
             "p1-9"])
    def test_matches_the_bincount_formula_bitwise(self, problem, m, monkeypatch):
        # the stencil windows sum every CSR value in element order, as
        # np.bincount on the slots of the sort-based pattern does: the
        # stiffness at a random y (cell part, plus the mass part of b for
        # Problem 2), and the mass matrix (mass part only); m = 9 spans
        # several blocks of node rows
        mesh = build_uniform_mesh(m)
        geo = mesh_fem._geometry(mesh)
        y = np.random.default_rng(m).random(64) - 0.5
        (a, *b), A = fields_and_stiffness(monkeypatch, mesh, problem, y)
        cell = (geo.area / 3.0) * (a[0::3] + a[1::3] + a[2::3])
        b = b[0] if b else None
        assert np.array_equal(bits(A.data), bits(bincount_assembly_data(geo, cell, b)))
        c = geo.evaluate(problem.c)
        assert np.array_equal(bits(mass_interior(mesh, problem).data),
                              bits(bincount_assembly_data(geo, None, c)))

    def test_mass_peak_memory(self, prob1, monkeypatch):
        # the local values, 9 * n_el floats, are made one block of node
        # rows at a time, so the mass matrix holds c at the quadrature
        # nodes, its CSR values and one block.  On a fresh m = 8 geometry
        # the peak is 0.90x the local values, under a bound of 1x; the
        # whole local values with a per-mesh slot map gave 1.72x, and a
        # zero-filled buffer plus the copy that adding the einsum to it
        # makes gave 2.67x
        mesh = mesh_fem.TriMesh(8)
        geo = mesh_fem._Geometry(mesh)
        monkeypatch.setattr(mesh_fem, "_geometry", lambda _: geo)
        tracemalloc.start()
        try:
            mesh_fem.mass_interior.__wrapped__(mesh, prob1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        local_values = 9 * mesh.n_elements * 8
        assert peak <= 1.0 * local_values, peak / local_values

    def test_stiffness_annihilates_constants(self, prob1, rng):
        # a row whose node has no boundary neighbour holds the whole
        # stencil, which sums to zero
        mesh = build_uniform_mesh(4)
        far = far_from_boundary(mesh)
        assert far.size == (mesh.n_per_side - 3) ** 2
        A = stiffness_interior(mesh, prob1, rng.random(8) - 0.5)
        row_sums = A @ np.ones(mesh.n_interior)
        assert np.abs(row_sums[far]).max() < 1e-12 * np.abs(A.diagonal()).max()

    def test_restricted_positive_definite(self, prob1):
        mesh = build_uniform_mesh(3)
        A = stiffness_interior(mesh, prob1, np.zeros(4))
        smallest = scipy.linalg.eigvalsh(A.toarray())[0]
        assert smallest > 0

    def test_stiffness_matches_naive_oracle(self, prob1):
        mesh = build_uniform_mesh(3)
        y = np.array([0.5, 0.0])

        def a_fn(x):
            return 1.0 + 0.5 * math.sin(math.pi * x[0]) * math.sin(2 * math.pi * x[1])

        A_oracle, _ = naive_assembly(mesh, a_fn, lambda x: 0.0, lambda x: 1.0)
        A = stiffness_interior(mesh, prob1, y).toarray()
        assert np.allclose(A, interior_block(mesh, A_oracle), atol=1e-12)

    def test_mass_matches_naive_oracle(self, prob1):
        mesh = build_uniform_mesh(3)
        _, M_oracle = naive_assembly(
            mesh, lambda x: 1.0, lambda x: 0.0, lambda x: 1.0
        )
        M = mass_interior(mesh, prob1).toarray()
        assert np.allclose(M, interior_block(mesh, M_oracle), atol=1e-12)

    def test_mass_partition_of_unity(self, prob1):
        # a row of a node with no boundary neighbour sums to the integral
        # of its basis function, h^2, since the basis functions sum to 1
        mesh = build_uniform_mesh(3)
        far = far_from_boundary(mesh)
        row_sums = mass_interior(mesh, prob1) @ np.ones(mesh.n_interior)
        assert np.allclose(row_sums[far], mesh.h ** 2, rtol=1e-13, atol=0)

    def test_mass_linearity_in_c(self):
        mesh = build_uniform_mesh(2)
        m1 = mass_interior(mesh, constant_series(c=1.0)).toarray()
        m2 = mass_interior(mesh, constant_series(c=2.0)).toarray()
        assert np.allclose(m2, 2.0 * m1, rtol=1e-14)

    def test_reaction_term_included(self):
        mesh = build_uniform_mesh(2)
        series = constant_series(a0=1.0, c=1.0, b0=3.0)
        A = stiffness_interior(mesh, series, np.zeros(2)).toarray()
        A0 = stiffness_interior(mesh, constant_series(), np.zeros(2)).toarray()
        M = mass_interior(mesh, series).toarray()
        assert np.allclose(A - A0, 3.0 * M, atol=1e-13)

    def test_symmetry(self, prob1, rng):
        mesh = build_uniform_mesh(4)
        y = rng.random(64) - 0.5
        A = stiffness_interior(mesh, prob1, y)
        diff = (A - A.T).toarray()
        assert np.abs(diff).max() <= 1e-13 * np.abs(A.toarray()).max()

    def test_restriction_matches_interior_assembly(self, prob1, prob2, rng):
        # the interior-only assembly equals the full nodal oracle restricted
        # to the interior nodes, at a random y and with a reaction term;
        # m = 4, because every Problem-2 term vanishes at the edge
        # midpoints of the m = 3 mesh
        mesh = build_uniform_mesh(4)
        for problem in (prob1, prob2):
            y = rng.random(6) - 0.5
            A_oracle, M_oracle = naive_assembly(
                mesh,
                lambda x: float(a_values(problem, x, y)),
                lambda x: float(b_values(problem, x, y)),
                lambda x: float(problem.c(x)),
            )
            A = stiffness_interior(mesh, problem, y).toarray()
            M = mass_interior(mesh, problem).toarray()
            scale = np.abs(A).max()
            assert np.allclose(A, interior_block(mesh, A_oracle),
                               rtol=0, atol=1e-13 * scale)
            assert np.allclose(M, interior_block(mesh, M_oracle),
                               rtol=0, atol=1e-13 * np.abs(M).max())

    @pytest.mark.parametrize("m", range(3, 10))
    def test_stencils_match_general_geometry_bitwise(self, m):
        mesh = build_uniform_mesh(m)
        geo = mesh_fem._geometry(mesh)
        grad_dot = general_grad_dot(mesh)
        # elements alternate lower, upper triangle per cell
        assert np.array_equal(grad_dot.reshape(-1, 2, 3, 3),
                              np.broadcast_to(geo.stencils, (mesh.n_elements // 2, 2, 3, 3)))
        assert np.array_equal(geo.stencils * mesh.h ** 2, mesh_fem._STENCILS)
        rng = np.random.default_rng(m)
        cell = rng.uniform(0.5, 2.0, mesh.n_elements)
        quad = rng.uniform(0.5, 2.0, 3 * mesh.n_elements)
        for cell_scalars in (cell, None):       # stiffness with reaction, mass
            data = geo.assemble(cell_scalars, quad).data
            assert np.array_equal(data, general_assembly_data(geo, grad_dot,
                                                              cell_scalars, quad))

    def test_signals_nonpositive_a(self):
        bad = CoefficientSeries(
            name="bad",
            a0=lambda x: np.full(np.broadcast(*x).shape, 0.1),
            a_term=constant_terms(1.0),
            c=lambda x: np.ones(np.broadcast(*x).shape),
            a_min=0.1,
        )
        mesh = build_uniform_mesh(2)
        with pytest.raises(CoefficientBoundError):
            stiffness_interior(mesh, bad, np.array([-0.5]))

    def test_signals_nonpositive_c(self):
        def c(x):
            x1, x2 = x
            return np.broadcast_to(x1 - 0.5, np.broadcast(x1, x2).shape)  # negative on the left half
        bad = CoefficientSeries(
            name="badc",
            a0=lambda x: np.ones(np.broadcast(*x).shape),
            a_term=constant_terms(),
            c=c,
            a_min=1.0,
        )
        with pytest.raises(CoefficientBoundError):
            mass_interior(build_uniform_mesh(2), bad)

    def test_laplacian_ritz_values_above_exact(self, prob1):
        # FE eigenvalues converge from above: three smallest Ritz values
        # at least 2 pi^2, 5 pi^2, 5 pi^2
        mesh = build_uniform_mesh(3)
        A = stiffness_interior(mesh, prob1, np.zeros(1)).toarray()
        M = mass_interior(mesh, prob1).toarray()
        lams = scipy.linalg.eigh(A, M, eigvals_only=True)[:3]
        exact = np.array([2, 5, 5]) * math.pi ** 2
        assert np.all(lams >= exact - 1e-9)

    def test_refinement_monotone(self, prob1):
        lams = []
        for m in (2, 3, 4):
            A = stiffness_interior(build_uniform_mesh(m), prob1, np.zeros(1))
            M = mass_interior(build_uniform_mesh(m), prob1)
            lams.append(scipy.linalg.eigh(A.toarray(), M.toarray(),
                                          eigvals_only=True)[0])
        assert lams[0] >= lams[1] >= lams[2]


class TestGridCoefficients:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_grids_hold_the_quad_points_bitwise(self, m):
        mesh = build_uniform_mesh(m)
        geo = mesh_fem._geometry(mesh)
        assert geo.quad_x1.shape == geo.quad_x2.shape == (6, mesh.n_per_side)
        pts = pointwise_quad_points(mesh).reshape(-1, 2)
        for d in (0, 1):
            on_grid = geo.evaluate(lambda x: np.broadcast_arrays(*x)[d])
            assert np.array_equal(bits(on_grid), bits(pts[:, d]))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_nodes_follow_the_basis_table(self, m, monkeypatch):
        # with the interior 3-point Gauss rows in _PHI, node q of every
        # triangle sits at (4 p_q + p_(q+1) + p_(q+2)) / 6
        gauss = np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]]) / 6.0
        monkeypatch.setattr(mesh_fem, "_PHI", gauss)
        geo = mesh_fem._Geometry(build_uniform_mesh(m))
        p = element_coords(geo.mesh)
        expected = (4.0 * p + np.roll(p, -1, axis=1) + np.roll(p, -2, axis=1)) / 6.0
        for d in (0, 1):
            on_grid = geo.evaluate(lambda x: np.broadcast_arrays(*x)[d])
            assert np.abs(on_grid - expected[:, :, d].ravel()).max() <= 1e-15

    @pytest.mark.parametrize("m", range(3, 7))
    @pytest.mark.parametrize("problem", [problem1(2.0), problem1(1.4), problem2()],
                             ids=["p1", "p1-slow-decay", "p2"])
    def test_matches_pointwise_build_bitwise(self, problem, m, monkeypatch):
        # bitwise at y = 0 and for the mass; at a random y the fields are
        # one GEMM of the term factors, within roundoff of the point-wise
        # term tables
        mesh = build_uniform_mesh(m)
        rng = np.random.default_rng(m)
        for y in (rng.random(64) - 0.5, np.zeros(64), np.zeros(0), rng.random(5) - 0.5):
            ref = pointwise_coefficients(mesh, problem, y)
            if y.any():
                fields, _ = fields_and_stiffness(monkeypatch, mesh, problem, y)
                refs = (ref["a"], ref["b"])[:1 + problem.has_b]
                assert len(fields) == len(refs)
                for field, expected in zip(fields, refs):
                    assert np.abs(field - expected).max() <= 1e-14 * np.abs(expected).max()
            else:
                A = stiffness_interior(mesh, problem, y)
                assert np.array_equal(bits(A.data),
                                      bits(pointwise_stiffness(mesh, ref["a"], ref["b"])))
        pts = pointwise_quad_points(mesh).reshape(-1, 2)
        c = problem.c((pts[:, 0], pts[:, 1]))
        assert np.array_equal(bits(mass_interior(mesh, problem).data),
                              bits(mesh_fem._geometry(mesh).assemble(None, c).data))

    @pytest.mark.parametrize("m", range(3, 8))
    @pytest.mark.parametrize("problem", [problem1(2.0), problem2()], ids=["p1", "p2"])
    def test_cell_sums_match_the_axis_sum_bitwise(self, problem, m, monkeypatch):
        # the stiffness adds the three node values of a cell left to right,
        # as numpy's sum over a length-3 axis does
        mesh = build_uniform_mesh(m)
        geo = mesh_fem._geometry(mesh)
        y = np.random.default_rng(m).random(16) - 0.5
        (a, *b), A = fields_and_stiffness(monkeypatch, mesh, problem, y)
        axis_sum = a.reshape(-1, 3).sum(axis=1)
        assert np.array_equal(bits(a[0::3] + a[1::3] + a[2::3]), bits(axis_sum))
        expected = geo.assemble((geo.area / 3.0) * axis_sum, b[0] if b else None)
        assert np.array_equal(bits(A.data), bits(expected.data))

    @pytest.mark.parametrize("m", range(3, 10))
    @pytest.mark.parametrize("problem", [problem1(2.0), problem1(1.4), problem2()],
                             ids=["p1", "p1-slow-decay", "p2"])
    def test_zero_y_is_the_cached_mean_field(self, problem, m, monkeypatch):
        # a zero y of any length is A(0), assembled from a0 and b0 alone; the
        # point-wise build at y = 0 is the oracle for every length, since
        # a0 + 0 * a_j is a0 exactly.  No term factors are made at any m
        mesh = build_uniform_mesh(m)
        ref = pointwise_coefficients(mesh, problem, np.zeros(0))
        expected = bits(pointwise_stiffness(mesh, ref["a"], ref["b"]))

        def no_factors(*args):
            raise AssertionError("term factors made at y = 0")

        monkeypatch.setattr(mesh_fem, "_factors", no_factors)
        first = stiffness_interior(mesh, problem, np.zeros(0))
        assert not first.data.flags.writeable
        assert np.array_equal(bits(first.data), expected)
        for s in (0, 8, 64):
            assert stiffness_interior(mesh, problem, np.zeros(s)) is first


class TestSeparableFields:
    """At y != 0 a field is base + G diag(y) F^T per node grid."""

    @pytest.mark.parametrize("m", range(3, 7))
    @pytest.mark.parametrize("problem", [problem1(2.0), problem1(1.4), problem2()],
                             ids=["p1", "p1-slow-decay", "p2"])
    def test_matches_the_tables(self, problem, m, monkeypatch):
        # the fields and the stiffness within roundoff of the point-wise
        # term tables of ``pointwise_coefficients``
        mesh = build_uniform_mesh(m)
        rng = np.random.default_rng(m)
        y = rng.random(64) - 0.5
        ys = [y]
        if problem.has_b:
            # even terms only: the exterior terms, two rank-one parts each
            exterior = y.copy()
            exterior[0::2] = 0.0
            ys.append(exterior)
        for y in ys:
            ref = pointwise_coefficients(mesh, problem, y)
            fields, A = fields_and_stiffness(monkeypatch, mesh, problem, y)
            refs = (ref["a"], ref["b"])[:1 + problem.has_b]
            assert len(fields) == len(refs)
            for field, expected in zip(fields, refs):
                assert np.abs(field - expected).max() <= 1e-14 * np.abs(expected).max()
            expected = pointwise_stiffness(mesh, ref["a"], ref["b"])
            assert np.abs(A.data - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_wrapped_terms_are_looked_through(self, prob1, prob2):
        # wrapping the terms, as a call counter does, keeps the series
        # valid and the stiffness bitwise, and the wrappers are never
        # called: the fields come from the factors behind them
        calls = []

        def wrap(term):
            if term is None:
                return None

            @functools.wraps(term)
            def counted(j, x):
                calls.append(j)
                return term(j, x)
            return counted

        mesh, y = build_uniform_mesh(4), np.random.default_rng(4).random(16) - 0.5
        for problem in (prob1, prob2):
            wrapped = dataclasses.replace(problem, a_term=wrap(problem.a_term),
                                          b_term=wrap(problem.b_term))
            assert wrapped.separable == problem.separable
            A = stiffness_interior(mesh, problem, y)
            A_wrapped = stiffness_interior(mesh, wrapped, y)
            assert np.array_equal(bits(A_wrapped.data), bits(A.data))
        assert calls == []

    def test_refuses_terms_without_factors(self, prob2):
        # a lambda term family is refused when the series is made, for a
        # and for b alike
        for field in ("a_term", "b_term"):
            with pytest.raises(ValueError, match="SeparableTerms"):
                dataclasses.replace(prob2, **{field: lambda j, x: np.zeros(np.shape(x[0]))})


def stencil_prolongate(u_coarse, coarse, fine):
    """The coarse function at the fine nodes by the stencil formula that
    ``prolongate`` evaluated before it became a matrix."""
    ratio = fine.n_per_side // coarse.n_per_side
    nf, nc = fine.n_per_side, coarse.n_per_side
    idx = np.arange(nf + 1)
    cell = np.minimum(idx // ratio, nc - 1)
    frac = idx / ratio - cell
    cell_c, cell_r = np.meshgrid(cell, cell)
    xi, eta = np.meshgrid(frac, frac)
    v00 = u_coarse[(cell_r * (nc + 1) + cell_c).ravel()]
    v10 = u_coarse[(cell_r * (nc + 1) + cell_c + 1).ravel()]
    v01 = u_coarse[((cell_r + 1) * (nc + 1) + cell_c).ravel()]
    v11 = u_coarse[((cell_r + 1) * (nc + 1) + cell_c + 1).ravel()]
    xi, eta = xi.ravel(), eta.ravel()
    lower = v00 * (1.0 - xi) + v10 * (xi - eta) + v11 * eta
    upper = v00 * (1.0 - eta) + v01 * (eta - xi) + v11 * xi
    return np.where(xi >= eta, lower, upper)


def interior_coords(mesh):
    """Coordinates of the interior DOFs, (n_interior, 2), in DOF order."""
    return mesh_nodes(mesh)[interior_nodes(mesh)]


def away_from_boundary(coarse, fine):
    """Which fine DOFs lie in [H, 1 - H]^2: every coarse vertex that such a
    DOF is interpolated from is a coarse DOF."""
    pts = interior_coords(fine)
    return np.all((pts >= coarse.h) & (pts <= 1.0 - coarse.h), axis=1)


class TestProlongate:
    @pytest.mark.parametrize("mc, mf", [(mc, mf) for mc in (1, 2, 3)
                                        for mf in range(mc, min(mc + 6, 7) + 1)])
    def test_matrix_matches_stencil_formula_bitwise(self, mc, mf):
        coarse, fine = build_uniform_mesh(mc), build_uniform_mesh(mf)
        rng = np.random.default_rng(8 * mc + mf)
        for _ in range(20):
            u = rng.standard_normal(coarse.n_interior)
            assert prolongate(u, coarse, fine).tobytes() == \
                restrict_vec(fine, stencil_prolongate(embed(coarse, u), coarse,
                                                      fine)).tobytes()

    @pytest.mark.parametrize("mc", [3, 7])
    def test_peak_memory_within_3x_retained(self, mc):
        # the weights and columns of the three candidate vertices of every
        # fine node, each freed once its kept entries are taken
        coarse, fine = build_uniform_mesh(mc), build_uniform_mesh(8)
        tracemalloc.start()
        try:
            P = mesh_fem.prolongation.__wrapped__(coarse, fine)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert P.indices.dtype == P.indptr.dtype == np.int32
        assert peak <= 3 * retained, (peak, retained)

    def test_constant_preserved(self):
        # the rows of P sum to 1 where no coarse boundary vertex takes part;
        # elsewhere the zero boundary values pull the constant down
        coarse, fine = build_uniform_mesh(2), build_uniform_mesh(4)
        out = prolongate(np.full(coarse.n_interior, 3.7), coarse, fine)
        inner = away_from_boundary(coarse, fine)
        assert np.allclose(out[inner], 3.7)
        assert out[~inner].max() < 3.7

    def test_identity_when_same_mesh(self):
        mesh = build_uniform_mesh(3)
        u = np.arange(mesh.n_interior, dtype=float)
        assert np.array_equal(prolongate(u, mesh, mesh), u)

    def test_linear_function_exact(self):
        coarse, fine = build_uniform_mesh(2), build_uniform_mesh(4)
        f = lambda pts: pts[:, 0] + pts[:, 1]
        out = prolongate(f(interior_coords(coarse)), coarse, fine)
        inner = away_from_boundary(coarse, fine)
        assert np.allclose(out[inner], f(interior_coords(fine))[inner], atol=1e-15)

    def test_max_norm_preserved_for_linears(self):
        coarse, fine = build_uniform_mesh(3), build_uniform_mesh(5)
        nodes = interior_coords(coarse)
        vals = 2.0 * nodes[:, 0] - nodes[:, 1]
        out = prolongate(vals, coarse, fine)
        assert np.abs(out).max() == pytest.approx(np.abs(vals).max(), abs=1e-15)
        # a coarse hat function peaks at 1, at its own vertex
        for i in (0, coarse.n_interior // 2, coarse.n_interior - 1):
            hat = prolongate(np.eye(coarse.n_interior)[i], coarse, fine)
            assert hat.max() == 1.0 and hat.min() == 0.0

    def test_rejects_non_nested(self):
        finer, coarser = build_uniform_mesh(3), build_uniform_mesh(2)
        with pytest.raises(ValueError, match="nested"):
            prolongate(np.zeros(finer.n_interior), finer, coarser)
        for wrong in (np.zeros(5), np.zeros(coarser.n_nodes)):    # nodal too
            with pytest.raises(ValueError, match="length"):
                prolongate(wrong, coarser, finer)
