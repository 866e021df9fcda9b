"""Tests for mesh construction and Q1 finite element assembly.

Frozen fixtures come from the standard closed forms on uniform grids:
the 1D mass stencil (h/6)[1, 4, 1], the 1D stiffness stencil
(1/h)[-1, 2, -1], and the 2D Q1 stiffness stencil 8/3 with -1/3 on all
eight neighbours (h-independent in 2D).  The Poisson fixture reuses the
dual-route value from test_sparselin through the assembly path.

The scatter oracle is scipy's COO to CSR conversion (conftest.coo_scatter) of
the very element blocks that each assembly hands to the scatter.  Assembly
returns an operator's data in the mesh's pattern; conftest.csr rebuilds the
scipy matrix where a test reads rows or indexes blocks.
"""

import dataclasses

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
    stiffness_matrix,
    weighted_mass_matrix,
)
from fracpot.expressions import ExprError, parse_field_expr
from conftest import coo_scatter, csr

POISSON_M4_SOLUTION = np.array([0.09375, 0.125, 0.09375])


def eliminate_boundary(data, rhs, lift):
    """Dense interior system (A_ii, r_i - A_ib x_b) for prescribed boundary values,
    where A has data `data` in the mesh's pattern."""
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
        [((1.0, 0.0), 4, 1), ((0.0, 1.0), 1, 1), ((0.0, 1.0), 4, 3), ((0.0, 0.0), 4, 1)],
    )
    def test_validation(self, bounds, cells, dim):
        with pytest.raises(ValueError):
            build_mesh(bounds, cells, dim)

    def test_matches_is_structural(self):
        a = build_mesh((0.0, 1.0), 4)
        b = build_mesh((0.0, 1.0), 4)
        c = build_mesh((0.0, 1.0), 5)
        assert a.matches(b)
        assert not a.matches(c)


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


SCATTER_MESHES = pytest.mark.parametrize(
    "dim, cells", [(1, 50), (1, 300), (2, 12), (2, 90)], ids=["1d_50", "1d_300", "2d_12", "2d_90"]
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
        pattern = mesh.pattern
        operators = [mass_matrix(mesh), stiffness_matrix(mesh), weighted_mass_matrix(mesh, q)]
        assert len(blocks) == len(operators)
        for operator, local in zip(operators, blocks):
            reference = coo_scatter(local, mesh.elements, mesh.n_nodes)
            # An operator is its data in the pattern, whose arrays are scipy's.
            np.testing.assert_array_equal(pattern.indptr, reference.indptr)
            np.testing.assert_array_equal(pattern.indices, reference.indices)
            np.testing.assert_array_equal(operator, reference.data)

    @SCATTER_MESHES
    def test_block_maps_cut_the_blocks_scipy_indexes(self, dim, cells):
        mesh = build_mesh((0.0, 1.0), cells, dim)
        ii = mesh.interior_nodes
        stiff = stiffness_matrix(mesh)
        matrix = csr(mesh, stiff)
        blocks = [(mesh.interior_block, matrix[np.ix_(ii, ii)]), (mesh.interior_rows, matrix[ii])]
        for block_map, expected in blocks:
            np.testing.assert_array_equal(block_map.indptr, expected.indptr)
            np.testing.assert_array_equal(block_map.indices, expected.indices)
            np.testing.assert_array_equal(stiff[block_map.take], expected.data)
            assert block_map.take.dtype == np.intp  # data[take] casts no index


class TestSharedArrays:
    """The pattern, both block maps and M are shared by every operator, system
    and caller of a mesh, and prepare_spd keeps what it is given: an in-place
    write into any of them must fail."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_in_place_writes_raise(self, dim):
        mesh = build_mesh((0.0, 1.0), 4, dim)
        owners = {"pattern": mesh.pattern, "interior_block": mesh.interior_block,
                  "interior_rows": mesh.interior_rows}
        arrays = {
            f"{owner}.{field.name}": getattr(obj, field.name)
            for owner, obj in owners.items()
            for field in dataclasses.fields(obj)
        }
        arrays["mass"] = mesh.mass
        assert len(arrays) == 10
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
