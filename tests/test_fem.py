"""Tests for mesh construction and Q1 finite element assembly.

Frozen fixtures come from the standard closed forms on uniform grids:
the 1D mass stencil (h/6)[1, 4, 1], the 1D stiffness stencil
(1/h)[-1, 2, -1], and the 2D Q1 stiffness stencil 8/3 with -1/3 on all
eight neighbours (h-independent in 2D).  The Poisson fixture reuses the
dual-route value from test_sparselin through the assembly path.

The scatter oracle is scipy's COO to CSR conversion (conftest.coo_scatter) of
the very element blocks that each assembly hands to the scatter.  Assembly
returns an operator's DIA data on the mesh; conftest.csr rebuilds the scipy
matrix where a test reads rows or indexes blocks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracpot import fem
from fracpot.fem import (
    Mesh,
    NodalField,
    assemble_load,
    assemble_operators,
    build_mesh,
    evaluate_at,
    interpolate_nodal,
    mass_matrix,
    mass_norm,
    weighted_mass_matrix,
)
from fracpot.expressions import ExprError, parse_field_expr
from conftest import coo_scatter, csr, dia_arrays, dia_csr

POISSON_M4_SOLUTION = np.array([0.09375, 0.125, 0.09375])


def eliminate_boundary(data, rhs, lift):
    """Dense interior system (A_ii, r_i - A_ib x_b) for prescribed boundary values,
    where A has DIA data `data` on the mesh."""
    mesh = lift.mesh
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    matrix = csr(mesh, data)
    return matrix[np.ix_(ii, ii)].toarray(), rhs[ii] - matrix[np.ix_(ii, bb)] @ lift.values[bb]


class TestBuildMesh:
    def test_1d_geometry(self):
        mesh = build_mesh((0.0, 2.0), 5)
        assert mesh.dim == 1
        assert mesh.h == pytest.approx(0.4, abs=0.0)
        assert mesh.n_nodes == 6
        np.testing.assert_allclose(mesh.node_coords[:, 0], np.linspace(0.0, 2.0, 6), atol=1e-15)
        assert mesh.node_coords[-1, 0] == 2.0  # endpoint pinned exactly
        np.testing.assert_array_equal(mesh.boundary_nodes, [0, 5])
        np.testing.assert_array_equal(mesh.interior_nodes, [1, 2, 3, 4])
        np.testing.assert_array_equal(mesh.elements, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])

    def test_2d_geometry(self):
        mesh = build_mesh((0.0, 1.0), 2, dim=2)
        assert mesh.n_nodes == 9
        # Lexicographic node order: x fastest, then y.
        np.testing.assert_allclose(mesh.node_coords[1], [0.5, 0.0])
        np.testing.assert_allclose(mesh.node_coords[3], [0.0, 0.5])
        assert mesh.interior_nodes.tolist() == [4]
        assert sorted(mesh.boundary_nodes) == [0, 1, 2, 3, 5, 6, 7, 8]
        # Each element lists its corners counterclockwise from the lower left.
        np.testing.assert_array_equal(mesh.elements[0], [0, 1, 3, 4])

    def test_element_count(self):
        assert build_mesh((0.0, 1.0), 7).elements.shape == (7, 2)
        assert build_mesh((0.0, 1.0), 3, dim=2).elements.shape == (9, 4)

    @pytest.mark.parametrize(
        "bounds, cells, dim",
        [
            ((1.0, 0.0), 4, 1),
            ((0.0, 1.0), 1, 1),
            ((0.0, 1.0), 4, 3),
            ((0.0, 0.0), 4, 1),
            ((0.0, 1e400), 4, 1),
            ((-1e308, 1e308), 4, 1),
            ((float("nan"), 1.0), 4, 1),
            ((0.0, 1.0), 4, 2.0),
            ((0.0, 1.0), 4, True),
        ],
    )
    def test_validation(self, bounds, cells, dim):
        with pytest.raises(ValueError):
            build_mesh(bounds, cells, dim)

    def test_the_messages_name_the_bad_bounds_and_dim(self):
        with pytest.raises(ValueError, match=r"must be finite, got \(-1e\+308, 1e\+308\)"):
            build_mesh((-1e308, 1e308), 4)
        for dim in (2.0, True):
            with pytest.raises(ValueError, match=f"dim must be the integer 1 or 2, got {dim!r}"):
                build_mesh((0.0, 1.0), 4, dim)
        assert build_mesh((0.0, 1.0), 4, np.int64(2)).dim == 2

    def test_a_cell_count_must_be_an_integer(self):
        for cells in (2.7, 4.0):
            with pytest.raises(ValueError, match=f"cells per axis must be an integer, got {cells}"):
                build_mesh((0.0, 1.0), cells)
        assert build_mesh((0.0, 1.0), np.int64(4)).cells_per_axis == 4

    def test_meshes_compare_by_value(self):
        a = build_mesh((0.0, 1.0), 4)
        b = build_mesh((0.0, 1.0), 4)
        assert a == b and hash(a) == hash(b)
        assert a != build_mesh((0.0, 1.0), 5)
        assert a != build_mesh((0.0, 2.0), 4)
        assert a != build_mesh((0.0, 1.0), 4, 2)


def traced_peak(build) -> int:
    """The tracemalloc peak of `build()` above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMeshPreflight:
    """build_mesh checks an upper bound of its arrays against the memory budget
    before it allocates any of them.  The budget is injected; nothing large is
    allocated."""

    def test_a_mesh_over_the_budget_is_refused_before_anything_is_allocated(self, monkeypatch):
        # 300 million cells in 1D: 2.4 GB an array, against a 1 MiB budget.
        monkeypatch.setattr(fem, "memory_budget", lambda: 1 << 20)
        message = (
            r"^Unable to allocate 103 GiB for the mesh \(300000000 cells per axis in 1D\) "
            r"within 0\.000977 GiB$"
        )

        def refused():
            with pytest.raises(MemoryError, match=message):
                build_mesh((0.0, 1.0), 300_000_000)

        assert traced_peak(refused) < 1 << 20

    @pytest.mark.parametrize("dim, cells", [(1, 7), (2, 5)])
    def test_a_budget_equal_to_the_estimate_builds_the_same_mesh(self, monkeypatch, dim, cells):
        expected = build_mesh((0.0, 2.0), cells, dim)
        estimate = fem._mesh_bytes(cells, dim) + fem._operator_bytes(cells, dim)
        monkeypatch.setattr(fem, "memory_budget", lambda: estimate)
        mesh = build_mesh((0.0, 2.0), cells, dim)
        for name in ("node_coords", "elements", "boundary_nodes", "interior_nodes"):
            np.testing.assert_array_equal(getattr(mesh, name), getattr(expected, name))
        assert (mesh.dim, mesh.bounds, mesh.cells_per_axis, mesh.h) == (
            expected.dim, expected.bounds, expected.cells_per_axis, expected.h
        )
        monkeypatch.setattr(fem, "memory_budget", lambda: estimate - 1)
        with pytest.raises(MemoryError, match="for the mesh"):
            build_mesh((0.0, 2.0), cells, dim)

    def test_a_mesh_whose_operators_exceed_the_budget_is_refused(self, monkeypatch):
        # 3000^2 cells: a budget that holds the mesh's own arrays (1.34 GiB)
        # but not the operators it builds on first use.
        monkeypatch.setattr(fem, "memory_budget", lambda: fem._mesh_bytes(3000, 2))
        message = (
            r"^Unable to allocate 8\.25 GiB for the mesh \(3000 cells per axis in 2D\) "
            r"within 1\.34 GiB$"
        )

        def refused():
            with pytest.raises(MemoryError, match=message):
                build_mesh((0.0, 1.0), 3000, 2)

        assert traced_peak(refused) < 1 << 20

    @pytest.mark.parametrize("dim, cells", [(1, 100_000), (2, 300)])
    def test_the_estimate_bounds_what_the_build_allocates(self, dim, cells):
        peak = traced_peak(lambda: build_mesh((0.0, 1.0), cells, dim))
        assert peak <= fem._mesh_bytes(cells, dim)

    @pytest.mark.parametrize("dim, cells", [(1, 100_000), (2, 300)])
    def test_the_operator_estimate_bounds_what_the_operators_allocate(self, dim, cells):
        mesh = build_mesh((0.0, 1.0), cells, dim)

        def operators():
            return mesh.slot, mesh.mass, mesh.stiffness, mesh.interior_block(mesh.mass)

        assert traced_peak(operators) <= fem._operator_bytes(cells, dim)


class TestNodalField:
    def test_length_checked(self):
        mesh = build_mesh((0.0, 1.0), 4)
        with pytest.raises(ValueError):
            NodalField(np.zeros(3), mesh)

    def test_finiteness_checked(self):
        mesh = build_mesh((0.0, 1.0), 4)
        values = np.zeros(5)
        values[2] = np.nan
        with pytest.raises(ValueError):
            NodalField(values, mesh)

    def test_interpolate_affine_exact(self):
        mesh = build_mesh((0.0, 2.0), 8)
        field = interpolate_nodal(lambda x: 3.0 * x - 1.0, mesh)
        np.testing.assert_allclose(field.values, 3.0 * mesh.node_coords[:, 0] - 1.0, atol=1e-14)

    def test_interpolate_scalar_broadcast(self):
        mesh = build_mesh((0.0, 1.0), 4)
        field = interpolate_nodal(lambda x: 2.5, mesh)
        np.testing.assert_array_equal(field.values, 2.5)

    def test_interpolate_rejects_nonfinite(self):
        mesh = build_mesh((0.0, 1.0), 4)
        with pytest.raises(ValueError):
            interpolate_nodal(lambda x: np.where(x > 0.6, np.inf, 1.0), mesh)


class TestEvaluateAt:
    def test_constant_broadcast_to_array(self):
        out = evaluate_at(parse_field_expr("5"), np.zeros((7, 1)))
        assert out.shape == (7,)
        np.testing.assert_array_equal(out, 5.0)

    def test_non_finite_value_names_the_field_and_the_first_point(self):
        coords = np.array([[1.0, 2.0], [0.0, 3.0], [0.0, 4.0]])
        message = r"^'y/x' evaluates to a non-finite value at \(0.0, 3.0\)"
        with pytest.raises(ExprError, match=message):
            evaluate_at(parse_field_expr("y/x"), coords)


class TestAssembly1D:
    def test_mass_stencil(self):
        mesh = build_mesh((0.0, 1.0), 4)
        h = 0.25
        row = csr(mesh, mass_matrix(mesh)).toarray()[2]
        np.testing.assert_allclose(row, [0, h / 6, 4 * h / 6, h / 6, 0], atol=1e-15)

    def test_stiffness_stencil(self):
        mesh = build_mesh((0.0, 1.0), 4)
        h = 0.25
        _, stiff, _ = assemble_operators(mesh, interpolate_nodal(lambda x: 0.0, mesh))
        row = csr(mesh, stiff).toarray()[2]
        np.testing.assert_allclose(row, [0, -1 / h, 2 / h, -1 / h, 0], atol=1e-12)

    def test_weighted_mass_with_unit_weight_equals_mass(self):
        mesh = build_mesh((0.0, 3.0), 6)
        mass, _, wmass = assemble_operators(mesh, interpolate_nodal(lambda x: 1.0, mesh))
        assert np.max(np.abs(wmass - mass)) <= 1e-15

    def test_mass_total_is_measure(self):
        mesh = build_mesh((0.0, 10.0), 13)
        assert mass_matrix(mesh).sum() == pytest.approx(10.0, abs=1e-12)

    def test_stiffness_annihilates_constants(self):
        mesh = build_mesh((0.0, 1.0), 9)
        _, stiff, _ = assemble_operators(mesh, interpolate_nodal(lambda x: 0.0, mesh))
        np.testing.assert_allclose(csr(mesh, stiff) @ np.ones(mesh.n_nodes), 0.0, atol=1e-12)

    def test_load_of_cubic_sums_to_integral(self):
        # Partition of unity: sum_i (f, phi_i) = integral of f; the 2-point
        # Gauss rule is exact for cubics, so this holds to rounding.
        mesh = build_mesh((0.0, 1.0), 7)
        load = assemble_load(mesh, lambda x: x**3)
        assert load.sum() == pytest.approx(0.25, abs=1e-14)

    def test_load_rejects_nonfinite_source(self):
        mesh = build_mesh((0.0, 1.0), 4)
        with np.errstate(divide="ignore"), pytest.raises(ExprError, match="non-finite"):
            assemble_load(mesh, lambda x: 1.0 / (x - x[0]))


class TestAssembly2D:
    def test_stiffness_stencil(self):
        mesh = build_mesh((0.0, 1.0), 4, dim=2)
        _, stiff, _ = assemble_operators(mesh, interpolate_nodal(lambda x, y: 0.0, mesh))
        center = 2 * 5 + 2  # interior node (2, 2)
        row = csr(mesh, stiff).toarray()[center]
        assert row[center] == pytest.approx(8.0 / 3.0, abs=1e-12)
        neighbours = [center - 6, center - 5, center - 4, center - 1,
                      center + 1, center + 4, center + 5, center + 6]
        np.testing.assert_allclose(row[neighbours], -1.0 / 3.0, atol=1e-12)
        assert row.sum() == pytest.approx(0.0, abs=1e-12)

    def test_mass_total_is_area(self):
        mesh = build_mesh((0.0, 3.0), 5, dim=2)
        assert mass_matrix(mesh).sum() == pytest.approx(9.0, abs=1e-11)

    def test_weighted_mass_with_unit_weight_equals_mass(self):
        mesh = build_mesh((0.0, 1.0), 3, dim=2)
        mass, _, wmass = assemble_operators(mesh, interpolate_nodal(lambda x, y: 1.0, mesh))
        assert np.max(np.abs(wmass - mass)) <= 1e-14

    def test_load_total_is_integral(self):
        mesh = build_mesh((0.0, 1.0), 6, dim=2)
        load = assemble_load(mesh, lambda x, y: x * y)
        assert load.sum() == pytest.approx(0.25, abs=1e-13)


# 2 and 3 cells per axis in 2D give interior offsets that coincide.
SCATTER_SIZES = [(1, 2), (1, 3), (1, 7), (1, 50), (1, 300), (2, 2), (2, 3), (2, 7), (2, 12), (2, 90)]
SCATTER_MESHES = pytest.mark.parametrize(
    "dim, cells", SCATTER_SIZES, ids=[f"{dim}d_{cells}" for dim, cells in SCATTER_SIZES]
)


class TestScatterOracle:
    @SCATTER_MESHES
    def test_operators_equal_the_coo_path(self, monkeypatch, dim, cells):
        mesh = build_mesh((0.0, 1.0), cells, dim)
        q = NodalField(np.random.default_rng(cells).uniform(0.0, 5.0, mesh.n_nodes), mesh)
        scatter, blocks = fem._scatter, []

        def recording(local, mesh):
            nsh = mesh.elements.shape[1]
            blocks.append(np.broadcast_to(local, (*mesh.elements.shape, nsh)))
            return scatter(local, mesh)

        monkeypatch.setattr(fem, "_scatter", recording)
        operators = [mass_matrix(mesh), mesh.stiffness, weighted_mass_matrix(mesh, q)]
        assert len(blocks) == len(operators)
        for operator, local in zip(operators, blocks):
            reference = coo_scatter(local, mesh.elements, mesh.n_nodes)
            # An operator is scipy's DIA data of that matrix, its zeros included.
            offsets, data = dia_arrays(reference)
            np.testing.assert_array_equal(mesh.offsets, offsets)
            np.testing.assert_array_equal(operator, data)
            assert (csr(mesh, operator) != reference).nnz == 0

    @SCATTER_MESHES
    def test_block_maps_cut_the_blocks_scipy_indexes(self, dim, cells):
        """An operator's interior block is scipy's fancy-indexed block, and its
        product is bitwise that block's, where interior offsets coincide too."""
        mesh = build_mesh((0.0, 1.0), cells, dim)
        ii = mesh.interior_nodes
        rng = np.random.default_rng(cells)
        q = NodalField(rng.uniform(0.0, 5.0, mesh.n_nodes), mesh)
        for data in (mesh.stiffness, weighted_mass_matrix(mesh, q)):
            offsets, block = mesh.interior_block(data)
            expected = csr(mesh, data)[np.ix_(ii, ii)]
            assert block.shape == (mesh.offsets.size, ii.size)
            assert block.flags.c_contiguous  # the kernel would copy any other layout
            assert (dia_csr(offsets, block) != expected).nnz == 0
            v = rng.standard_normal(ii.size)
            out = fem.dia_matvec(offsets, block, v, np.full(ii.size, np.nan))
            np.testing.assert_array_equal(out, expected @ v)

    @SCATTER_MESHES
    def test_product_at_the_interior_is_the_interior_rows_product(self, dim, cells):
        """Read at the interior nodes, the mesh product is bitwise the product
        with scipy's fancy-indexed interior rows, which is what the march and
        compute_psi_h read of it."""
        mesh = build_mesh((0.0, 1.0), cells, dim)
        ii = mesh.interior_nodes
        rng = np.random.default_rng(cells)
        v = rng.standard_normal(mesh.n_nodes)
        q = NodalField(rng.uniform(0.0, 5.0, mesh.n_nodes), mesh)
        for data in (mesh.stiffness, weighted_mass_matrix(mesh, q)):
            out = np.full(mesh.n_nodes, np.nan)
            assert mesh.product(data, v, out) is out
            np.testing.assert_array_equal(out[ii], csr(mesh, data)[ii] @ v)


def reference_mesh(bounds, m, dim):
    """build_mesh written out per dimension, as it stood before grid_index."""
    a, b = bounds
    h = (b - a) / m
    axis = a + h * np.arange(m + 1)
    axis[-1] = b
    if dim == 1:
        coords = axis[:, None]
        cell = np.arange(m)
        elements = np.column_stack([cell, cell + 1])
        on_boundary = np.zeros(m + 1, dtype=bool)
        on_boundary[[0, m]] = True
    else:
        xs, ys = np.meshgrid(axis, axis, indexing="xy")
        coords = np.column_stack([xs.ravel(), ys.ravel()])
        ex, ey = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
        n00 = (ey * (m + 1) + ex).ravel()
        elements = np.column_stack([n00, n00 + 1, n00 + m + 1, n00 + m + 2])
        ix, iy = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="xy")
        on_boundary = ((ix == 0) | (ix == m) | (iy == 0) | (iy == m)).ravel()
    return Mesh(
        dim=dim,
        bounds=(a, b),
        cells_per_axis=m,
        node_coords=coords,
        elements=elements.astype(np.int64),
        boundary_nodes=np.flatnonzero(on_boundary),
        interior_nodes=np.flatnonzero(~on_boundary),
    )


def reference_arrays(dim, h):
    """Mesh.reference written out per dimension, as it stood before
    grid_index."""
    g, w = fem._GAUSS_PTS, fem._GAUSS_WTS
    vals1 = np.stack([1.0 - g, g])
    ders1 = np.stack([-np.ones_like(g), np.ones_like(g)])
    if dim == 1:
        return vals1, (ders1 / h)[None], h * w, g[:, None]
    ax = np.array([0, 1, 0, 1])
    ay = np.array([0, 0, 1, 1])
    px, py = [idx.ravel() for idx in np.meshgrid([0, 1], [0, 1], indexing="xy")]
    phi = vals1[ax][:, px] * vals1[ay][:, py]
    dx = (ders1 / h)[ax][:, px] * vals1[ay][:, py]
    dy = vals1[ax][:, px] * (ders1 / h)[ay][:, py]
    wq = (h * w)[px] * (h * w)[py]
    ref_pts = np.column_stack([g[px], g[py]])
    return phi, np.stack([dx, dy]), wq, ref_pts


class TestTensorOracle:
    """The grid_index path reproduces the per-dimension bodies bit for bit.

    The operators are compared as assembled data, not only as reference
    arrays: einsum's sum order follows its operands' memory layout, so equal
    reference arrays in another layout can still change the last bits.  The
    oracle mesh's cached reference cell is seeded with the per-dimension arrays,
    so its M, S, M_q and load are assembled from them."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("cells", [2, 3, 30, 90])
    def test_mesh_and_operators_equal_the_per_dimension_path(self, dim, cells):
        bounds = (0.0, 3.0)
        mesh, reference = build_mesh(bounds, cells, dim), reference_mesh(bounds, cells, dim)
        for name in ("node_coords", "elements", "boundary_nodes", "interior_nodes"):
            new, old = getattr(mesh, name), getattr(reference, name)
            assert new.dtype == old.dtype, name
            np.testing.assert_array_equal(new, old, err_msg=name)
        q = np.random.default_rng(cells).uniform(0.0, 5.0, mesh.n_nodes)
        f = parse_field_expr("exp(x) * cos(3*x)" if dim == 1 else "exp(x) * cos(3*y) + x*y")

        def operators(mesh):
            return [
                mass_matrix(mesh),
                mesh.stiffness,
                weighted_mass_matrix(mesh, NodalField(q, mesh)),
                assemble_load(mesh, f),
            ]

        reference.__dict__["reference"] = reference_arrays(dim, reference.h)
        for name, a, b in zip(["M", "S", "M_q", "load"], operators(mesh), operators(reference)):
            np.testing.assert_array_equal(a, b, err_msg=name)


class TestSharedArrays:
    """The node arrays, the reference cell, the offsets and slots of the
    layout, the interior stencil, M and S are shared by every operator,
    system and caller of a mesh, and prepare_spd keeps what it is given: an
    in-place write into any of them must fail."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_in_place_writes_raise(self, dim):
        mesh = build_mesh((0.0, 1.0), 4, dim)
        names = ("node_coords", "elements", "boundary_nodes", "interior_nodes",
                 "offsets", "slot", "mass", "stiffness")
        arrays = {name: getattr(mesh, name) for name in names}
        for name in ("interior_stencil", "reference"):
            arrays.update((f"{name}[{k}]", array) for k, array in enumerate(getattr(mesh, name)))
        assert len(arrays) == 14
        assert [name for name, array in arrays.items() if array.flags.writeable] == []
        for array in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


class TestNormsAndBoundary:
    @pytest.mark.parametrize("dim, cells", [(1, 50), (2, 12)])
    def test_norm_is_the_scipy_product(self, dim, cells):
        mesh = build_mesh((0.0, 1.0), cells, dim)
        v = np.random.default_rng(cells).standard_normal(mesh.n_nodes)
        expected = np.sqrt(v @ (csr(mesh, mass_matrix(mesh)) @ v))
        assert mass_norm(v, mesh) == expected

    def test_norm_of_constant(self):
        mesh = build_mesh((0.0, 10.0), 12)
        field = interpolate_nodal(lambda x: 1.0, mesh)
        assert mass_norm(field.values, mesh) == pytest.approx(np.sqrt(10.0), abs=1e-12)

    def test_norm_of_single_hat(self):
        # One interior hat on (0,1) with M=2: ||phi||^2 = 2h/3 = 1/3.
        mesh = build_mesh((0.0, 1.0), 2)
        field = NodalField(np.array([0.0, 1.0, 0.0]), mesh)
        assert mass_norm(field.values, mesh) == pytest.approx(
            0.5773502691896258, abs=1e-15
        )

    def test_poisson_through_assembly(self):
        # Assemble -u'' = 1 on (0,1), M=4, homogeneous boundary, and solve
        # the eliminated system densely; nodal values are exact for Q1.
        mesh = build_mesh((0.0, 1.0), 4)
        _, stiff, _ = assemble_operators(mesh, interpolate_nodal(lambda x: 0.0, mesh))
        load = assemble_load(mesh, lambda x: 1.0)
        zero = interpolate_nodal(lambda x: 0.0, mesh)
        reduced, rhs = eliminate_boundary(stiff, load, zero)
        interior = np.linalg.solve(reduced, rhs)
        np.testing.assert_allclose(interior, POISSON_M4_SOLUTION, atol=1e-13)

    def test_dirichlet_lifting_moves_boundary_data(self):
        # With u = x on (0,1) and f = 0, elimination must reproduce u = x:
        # S_ii x_i = -S_ib x_b has the affine interpolant as exact solution.
        mesh = build_mesh((0.0, 1.0), 5)
        _, stiff, _ = assemble_operators(mesh, interpolate_nodal(lambda x: 0.0, mesh))
        lift = interpolate_nodal(lambda x: x, mesh)
        reduced, rhs = eliminate_boundary(stiff, np.zeros(mesh.n_nodes), lift)
        interior = np.linalg.solve(reduced, rhs)
        np.testing.assert_allclose(interior, mesh.node_coords[mesh.interior_nodes, 0], atol=1e-13)


class TestProperties:
    @given(cells=st.integers(min_value=2, max_value=30))
    def test_mass_rows_sum_to_hat_integrals_1d(self, cells):
        mesh = build_mesh((0.0, 1.0), cells)
        sums = np.asarray(csr(mesh, mass_matrix(mesh)).sum(axis=1)).ravel()
        expected = np.full(mesh.n_nodes, mesh.h)
        expected[mesh.boundary_nodes] = mesh.h / 2.0
        np.testing.assert_allclose(sums, expected, atol=1e-14)

    @given(cells=st.integers(min_value=2, max_value=20), dim=st.sampled_from([1, 2]))
    def test_stiffness_symmetric_positive_semidefinite(self, cells, dim):
        mesh = build_mesh((0.0, 1.0), cells, dim=dim)
        q = interpolate_nodal((lambda x: 0.0) if dim == 1 else (lambda x, y: 0.0), mesh)
        _, stiff, _ = assemble_operators(mesh, q)
        dense = csr(mesh, stiff).toarray()
        assert np.max(np.abs(dense - dense.T)) <= 1e-13
        assert np.linalg.eigvalsh(dense).min() >= -1e-10

    @given(
        cells=st.integers(min_value=2, max_value=25),
        slope=st.floats(min_value=-5.0, max_value=5.0),
        offset=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_affine_interpolation_exact_at_nodes(self, cells, slope, offset):
        mesh = build_mesh((0.0, 2.0), cells)
        field = interpolate_nodal(lambda x: slope * x + offset, mesh)
        exact = slope * mesh.node_coords[:, 0] + offset
        assert np.max(np.abs(field.values - exact)) <= 1e-12
