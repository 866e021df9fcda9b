"""Tests for the data Laplacian and the clamped fixed-point reconstruction.

The psi_h oracles exploit nodal exactness: central second differences are
exact on quadratics, so for quadratic data the interior solve must return
the constant Laplacian exactly (up to solver tolerance).  Reconstruction
fixtures use crime-free small cases plus the self-consistent delta=0 setup
where the fixed point recovers the interpolated truth almost exactly.  The
monotonicity oracle records the potential of every march and checks that the
iterates fall at every node from the upper-bound start.

`reference_psi_h` is compute_psi_h as it was before the mesh kept M and the
maps of its blocks: a fresh M, fancy-indexed blocks and scipy products, on
the matrices that conftest.csr rebuilds, whose interior block
conftest.dia_arrays hands to prepare_spd.  It solves with the prepare_spd and
solve_spd that inverse holds when it runs, so compute_psi_h must reproduce it
bit for bit with the CG and with a dense direct solve.
"""

import copy
import warnings

import numpy as np
import pytest

from fracpot.experiments import make_observation, relative_error
from fracpot.expressions import ExprError, parse_field_expr
from fracpot.fem import (
    NodalField,
    build_mesh,
    interpolate_nodal,
    mass_matrix,
    mass_norm,
)
from fracpot.forward import solve_forward
from fracpot.inverse import (
    DataFloorError,
    ObservationData,
    boundary_psi,
    compute_psi_h,
    fixed_point_update,
    reconstruct,
)
from fracpot import inverse
from fracpot.sparselin import SolveFailure
from conftest import (
    INDICATOR_POTENTIAL,
    SMOOTH_POTENTIAL,
    SMOOTH_POTENTIAL_2D,
    TRIANGLE_POTENTIAL,
    ZERO_BOUNDARY,
    benchmark_problem_1d,
    benchmark_problem_2d,
    csr,
    dia_arrays,
    recon_1d_small_t,
    small_2d,
    use_dense_solver,
)


def reference_psi_h(mesh, g_delta, psi_b):
    """The body of compute_psi_h with scipy's fancy indexing, kept verbatim as
    the oracle."""
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    mass, stiff = csr(mesh, mass_matrix(mesh)), csr(mesh, mesh.stiffness)
    rhs = -(stiff @ g_delta.values)[ii] - mass[np.ix_(ii, bb)] @ psi_b
    block = mass[np.ix_(ii, ii)]
    system = inverse.prepare_spd(*dia_arrays(block))
    interior, _ = inverse.solve_spd(system, rhs)
    full = np.empty(mesh.n_nodes)
    full[ii] = interior
    full[bb] = psi_b
    return full


class TestPsiH:
    def test_quadratic_data_gives_constant_laplacian(self):
        mesh = build_mesh((0.0, 1.0), 10)
        g = interpolate_nodal(lambda x: x**2, mesh)
        psi = compute_psi_h(mesh, ObservationData(g, [2.0, 2.0]))
        np.testing.assert_allclose(psi.values, 2.0, atol=1e-10)

    def test_benchmark_initial_profile(self):
        # g = x(10-x)/50 + 1 has constant Laplacian -0.04.
        mesh = build_mesh((0.0, 10.0), 20)
        g = interpolate_nodal(lambda x: x * (10.0 - x) / 50.0 + 1.0, mesh)
        psi = compute_psi_h(mesh, ObservationData(g, [-0.04, -0.04]))
        np.testing.assert_allclose(psi.values, -0.04, atol=1e-10)

    def test_affine_data_gives_exact_zero(self):
        mesh = build_mesh((0.0, 1.0), 8)
        g = interpolate_nodal(lambda x: 3.0 * x + 1.0, mesh)
        psi = compute_psi_h(mesh, ObservationData(g, np.zeros(2)))
        np.testing.assert_array_equal(psi.values, 0.0)

    def test_2d_quadratic(self):
        mesh = build_mesh((0.0, 1.0), 6, dim=2)
        g = interpolate_nodal(lambda x, y: x**2 + y**2, mesh)
        psi_b = np.full(mesh.boundary_nodes.size, 4.0)
        psi = compute_psi_h(mesh, ObservationData(g, psi_b))
        np.testing.assert_allclose(psi.values, 4.0, atol=1e-9)

    def test_mesh_alignment_checked(self):
        mesh = build_mesh((0.0, 1.0), 8)
        other = build_mesh((0.0, 1.0), 9)
        g = interpolate_nodal(lambda x: x, other)
        with pytest.raises(ValueError, match="aligned"):
            compute_psi_h(mesh, ObservationData(g, np.zeros(2)))

    def test_overflowing_right_hand_side_is_named(self):
        # |psi_b| = 1e300 keeps every entry finite, but the norm overflows.
        mesh = build_mesh((0.0, 1.0), 10)
        g = interpolate_nodal(lambda x: 1.0 + x, mesh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolveFailure) as failure:
                compute_psi_h(mesh, ObservationData(g, np.full(2, 1e300)))
        assert str(failure.value) == (
            "mass solve for the data Laplacian: the right-hand side has a non-finite norm"
        )

    def test_boundary_shape_checked(self):
        # The observation checks its boundary trace; compute_psi_h reads it checked.
        mesh = build_mesh((0.0, 1.0), 8)
        g = interpolate_nodal(lambda x: x, mesh)
        with pytest.raises(ValueError, match="boundary"):
            ObservationData(g, np.zeros(3))


def noisy_observation(problem):
    """The problem's mesh and an observation of its potential with noise added
    everywhere and a nonzero boundary trace."""
    spec, q = problem()
    mesh = spec.mesh
    rng = np.random.default_rng(11)
    noisy = q.values + 1e-3 * rng.standard_normal(mesh.n_nodes)
    psi_b = rng.uniform(-2.0, 2.0, mesh.boundary_nodes.size)
    assert np.all(psi_b != 0.0)
    return mesh, ObservationData(NodalField(noisy, mesh), psi_b)


PSI_PROBLEMS = pytest.mark.parametrize(
    "problem", [recon_1d_small_t, small_2d], ids=["1d_small_T", "2d"]
)


class TestPsiHOracle:
    @PSI_PROBLEMS
    def test_bitwise_equal_to_the_fancy_indexed_body(self, problem):
        mesh, obs = noisy_observation(problem)
        psi = compute_psi_h(mesh, obs)
        np.testing.assert_array_equal(
            psi.values, reference_psi_h(mesh, obs.g_delta, obs.psi_boundary)
        )

    @PSI_PROBLEMS
    def test_the_reference_follows_the_solver(self, monkeypatch, problem):
        mesh, obs = noisy_observation(problem)
        use_dense_solver(monkeypatch)
        psi = compute_psi_h(mesh, obs)
        np.testing.assert_array_equal(
            psi.values, reference_psi_h(mesh, obs.g_delta, obs.psi_boundary)
        )


class TestPointwiseOps:
    def test_update_quotient(self):
        # (f - w + psi) / g = (10 - 2 + (-4)) / 2 = 2.
        out = fixed_point_update(
            np.array([10.0]), np.array([2.0]), np.array([-4.0]), np.array([2.0]), 5.0
        )
        assert out[0] == 2.0

    def test_update_clamps_both_sides(self):
        f = np.array([100.0, -100.0])
        out = fixed_point_update(f, np.zeros(2), np.zeros(2), np.ones(2), 5.0)
        np.testing.assert_array_equal(out, [5.0, 0.0])


class TestObservationData:
    def observation(self, **overrides):
        mesh = build_mesh((0.0, 1.0), 4)
        g = NodalField(np.full(5, 2.0), mesh)
        kwargs = {"g_delta": g, "psi_boundary": [0.0, 0.0]}
        kwargs.update(overrides)
        return ObservationData(**kwargs)

    def test_valid_roundtrip(self):
        obs = self.observation()
        np.testing.assert_array_equal(obs.g_delta.values, 2.0)
        assert obs.psi_boundary.dtype == float
        np.testing.assert_array_equal(obs.psi_boundary, [0.0, 0.0])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            self.observation(psi_boundary=np.zeros(3))


class TestBoundaryPsi:
    @pytest.mark.parametrize(
        "q",
        [parse_field_expr("1/x"), lambda x: np.where(x > 0.0, 1.0, np.inf)],
        ids=["expr", "callable"],
    )
    def test_non_finite_boundary_value_is_rejected(self, q):
        spec = benchmark_problem_1d(cells=10)  # on (0, 10): a boundary node at x = 0
        with pytest.raises(ExprError, match=r"non-finite value at \(0.0,\)"):
            boundary_psi(spec, q)


def crime_free_setup(cells=25, num_steps=20, delta=0.0, **spec_overrides):
    spec = benchmark_problem_1d(alpha=0.5, cells=cells, num_steps=num_steps, **spec_overrides)
    obs = make_observation(spec, SMOOTH_POTENTIAL, 1, delta, fine_step_factor=1)
    return spec, obs


class TestReconstruct:
    def test_self_consistent_data_recovers_truth(self):
        spec, obs = crime_free_setup()
        result = reconstruct(spec, obs, q_true=SMOOTH_POTENTIAL)
        assert result.converged
        assert result.iterations <= 30
        assert relative_error(result.q_star, SMOOTH_POTENTIAL, spec.mesh) <= 0.02

    def test_the_iteration_stops_at_the_first_increment_within_fp_tol(self):
        spec, obs = crime_free_setup()
        increments = reconstruct(spec, obs).increments
        assert inverse.FP_TOL == 1e-10
        assert increments[-1] <= inverse.FP_TOL < increments[-2]

    def test_records_that_hold_arrays_compare_and_hash_by_identity(self):
        spec, obs = crime_free_setup()
        result = reconstruct(spec, obs)
        forward = solve_forward(spec, result.q_star)
        for record in (obs, result, result.q_star, forward, spec.discretization):
            twin = copy.copy(record)  # another record over the same arrays
            assert record == record and record != twin, type(record).__name__
            assert {record: 1, twin: 2}[record] == 1
            assert record in [twin, record] and twin not in [record]

    def test_increments_decay_geometrically(self):
        spec, obs = crime_free_setup()
        result = reconstruct(spec, obs)
        inc = result.increments
        ratios = inc[2:-1] / inc[1:-2]
        assert (ratios < 0.7).all()

    def test_errors_vs_truth_are_absolute_mass_norms(self):
        spec, obs = crime_free_setup()
        result = reconstruct(spec, obs, q_true=SMOOTH_POTENTIAL)
        truth = interpolate_nodal(SMOOTH_POTENTIAL, spec.mesh)
        direct = mass_norm(result.q_star.values - truth.values, spec.mesh)
        assert result.errors_vs_truth[-1] == pytest.approx(direct, abs=1e-15)
        assert len(result.errors_vs_truth) == result.iterations + 1

    def test_fixed_point_residual_small_at_convergence(self):
        spec, obs = crime_free_setup()
        result = reconstruct(spec, obs)
        psi_h = compute_psi_h(spec.mesh, obs)
        forward = solve_forward(spec, result.q_star)
        again = fixed_point_update(
            interpolate_nodal(spec.f_expr, spec.mesh).values,
            forward.frac_deriv_terminal.values,
            psi_h.values,
            obs.g_delta.values,
            spec.M1,
        )
        residual = mass_norm(again - result.q_star.values, spec.mesh)
        assert residual <= 1e-9

    def test_deterministic(self):
        spec, obs = crime_free_setup()
        a = reconstruct(spec, obs)
        b = reconstruct(spec, obs)
        np.testing.assert_array_equal(a.q_star.values, b.q_star.values)
        assert a.iterations == b.iterations

    def test_initial_guess_overrides_agree(self):
        spec, obs = crime_free_setup()
        from_default = reconstruct(spec, obs)
        from_low = reconstruct(spec, obs, q0=lambda x: np.full_like(x, 2.0))
        from_high = reconstruct(spec, obs, q0=lambda x: np.full_like(x, 10.0))  # clamped to M1
        for other in (from_low, from_high):
            assert other.converged
            diff = mass_norm(other.q_star.values - from_default.q_star.values, spec.mesh)
            assert diff <= 1e-8

    def test_noisy_data_still_converges(self):
        spec, obs = crime_free_setup(cells=50, num_steps=40, delta=1e-3)
        result = reconstruct(spec, obs, q_true=SMOOTH_POTENTIAL)
        assert result.converged
        assert result.iterations <= 60
        assert relative_error(result.q_star, SMOOTH_POTENTIAL, spec.mesh) <= 0.15

    def test_data_floor_guard(self):
        spec, obs = crime_free_setup(**ZERO_BOUNDARY)
        with pytest.raises(DataFloorError, match="reaches 0.000e[+]00, below the admissible floor"):
            reconstruct(spec, obs)

    def test_observation_mesh_checked(self):
        spec, obs = crime_free_setup()
        other_spec = benchmark_problem_1d(alpha=0.5, cells=30, num_steps=20)
        with pytest.raises(ValueError, match="aligned"):
            reconstruct(other_spec, obs)
        # The same number of nodes on another domain.
        mesh = build_mesh((0.0, 5.0), spec.mesh.cells_per_axis)
        moved = ObservationData(NodalField(obs.g_delta.values, mesh), obs.psi_boundary)
        with pytest.raises(ValueError, match="aligned"):
            reconstruct(spec, moved)


POTENTIALS_1D = {
    "smooth": SMOOTH_POTENTIAL,
    "triangle": TRIANGLE_POTENTIAL,
    "indicator": INDICATOR_POTENTIAL,
}
# Each case: the spec builder, its changes on top of 20 steps, the potential.
MONOTONE_CASES = [
    *(
        pytest.param(benchmark_problem_1d, dict(alpha=alpha, cells=25), q, id=f"1d-{alpha}-{name}")
        for alpha in (0.25, 0.5, 1.0)
        for name, q in POTENTIALS_1D.items()
    ),
    pytest.param(benchmark_problem_2d, dict(cells=12), SMOOTH_POTENTIAL_2D, id="2d"),
]


# Noise-free data at fine factor 1 (the exact fixed point), and noisy data
# from a mesh and a march twice as fine.
@pytest.mark.parametrize("fine_factor, delta", [(1, 0.0), (2, 1e-3)], ids=["exact", "noisy"])
@pytest.mark.parametrize("problem, changes, q_true", MONOTONE_CASES)
def test_the_iterates_fall_at_every_node_from_the_upper_bound(
    monkeypatch, problem, changes, q_true, fine_factor, delta
):
    """The fixed-point map is monotone and the default start is its upper bound,
    so every iterate lies below the one before it, node by node."""
    spec = problem(num_steps=20, **changes)
    obs = make_observation(spec, q_true, fine_factor, delta)
    marched = []  # the potential each march of reconstruct receives

    def record(spec, q):
        marched.append(q.values.copy())
        return solve_forward(spec, q)

    monkeypatch.setattr(inverse, "solve_forward", record)
    result = reconstruct(spec, obs)
    assert result.converged
    iterates = np.array([*marched, result.q_star.values])
    assert len(iterates) == result.iterations + 1
    assert np.all(np.diff(iterates, axis=0) <= 1e-12)
