"""Tests for the fully discrete forward solver.

The main oracle re-derives the first two steps of the scheme with dense
numpy linear algebra straight from the definition

    tau^{-alpha} M sum_j b_j (u^{n-j} - u^0) + (S + M_q) u^n = F

(interior rows, boundary pinned), so any sign or indexing slip in the
history convolution shows up as a mismatch.  For alpha = 1 the scheme
must coincide with classic backward Euler, which is rolled by hand.

`reference_march` is the march as it was before the interior blocks came
from maps built once per mesh: fancy-indexed blocks and scipy products on an
M that it assembles itself.  The march must reproduce it bit for bit.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from fracpot import fem, forward, sparselin
from fracpot.cq import cq_weights, discrete_caputo
from fracpot.fem import (
    assemble_load,
    assemble_operators,
    build_mesh,
    interpolate_nodal,
    mass_matrix,
    stiffness_matrix,
    weighted_mass_matrix,
)
from fracpot.forward import ForwardSolution, ProblemSpec, restrict_to_mesh, solve_forward
from fracpot.sparselin import prepare_spd, solve_spd
from conftest import (
    SMOOTH_POTENTIAL,
    SMOOTH_POTENTIAL_2D,
    benchmark_problem_1d,
    benchmark_problem_2d,
    recon_1d_small_t,
    small_2d,
)


def small_spec(alpha=0.7, cells=4, num_steps=2, tau_total=0.2):
    return ProblemSpec(
        alpha=alpha,
        T=tau_total,
        num_steps=num_steps,
        mesh=build_mesh((0.0, 1.0), cells),
        v_expr=lambda x: 1.0 + x * (1.0 - x),
        b_expr=lambda x: np.ones_like(x),
        f_expr=lambda x: 2.0 + x,
        M1=5.0,
    )


def dense_march(spec, q_values):
    """Reference march of the scheme with dense numpy solves."""
    mesh = spec.mesh
    q = interpolate_nodal(lambda x: np.interp(x, mesh.node_coords[:, 0], q_values), mesh)
    mass, stiff, wmass = (m.toarray() for m in assemble_operators(mesh, q))
    load = assemble_load(mesh, spec.f_expr)
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    scale = spec.tau ** (-spec.alpha)
    w = cq_weights(spec.alpha, spec.num_steps, spec.tau).weights

    u = interpolate_nodal(spec.v_expr, mesh).values.copy()
    u[bb] = interpolate_nodal(spec.b_expr, mesh).values[bb]
    states = [u.copy()]
    system = scale * w[0] * mass + stiff + wmass
    for n in range(1, spec.num_steps + 1):
        # Everything except the b_0 u^n term of the convolution:
        past = sum(w[j] * (states[n - j] - states[0]) for j in range(1, n + 1))
        past = past - w[0] * states[0]
        rhs = load - scale * mass @ past - system[:, bb] @ states[0][bb]
        un = states[0].copy()
        un[ii] = np.linalg.solve(system[np.ix_(ii, ii)], rhs[ii])
        states.append(un)
    return np.array(states)


def reference_march(spec, q):
    """The march loop with scipy's sum, fancy indexing and products, kept as
    the oracle; returns (history, terminal derivative, system).  It assembles
    its own M, and (M @ past)[ii] sums each interior row in the order
    M[ii] @ past does."""
    setup = spec.discretization
    mesh = spec.mesh
    n_steps = spec.num_steps
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    w0 = cq_weights(spec.alpha, spec.num_steps, spec.tau).weights[0]
    mass = mass_matrix(mesh)
    base = (setup.scale * w0) * mass + stiffness_matrix(mesh)
    system = base + weighted_mass_matrix(mesh, q)
    system_ii = prepare_spd(system[np.ix_(ii, ii)])
    rhs_base = setup.load_int - system[np.ix_(ii, bb)] @ setup.boundary_values

    history = np.empty((n_steps + 1, mesh.n_nodes))
    history[0] = setup.u0
    history[1:, bb] = setup.boundary_values
    x = setup.u0[ii]
    for n in range(1, n_steps + 1):
        past = setup.weights_reversed[n_steps - n : n_steps] @ history[:n]
        past -= setup.partial[n] * history[0]
        rhs = rhs_base - setup.scale * (mass @ past)[ii]
        x, report = solve_spd(system_ii, rhs, x0=x)
        assert report.converged
        history[n, ii] = x
    frac = np.zeros(mesh.n_nodes)
    frac[ii] = setup.scale * (x + past[ii])
    return history, frac, system


class TestAgainstDenseOracle:
    def test_two_steps_match(self):
        spec = small_spec()
        q = interpolate_nodal(lambda x: 1.0 + x, spec.mesh)
        solution = solve_forward(spec, q)
        reference = dense_march(spec, q.values)
        np.testing.assert_allclose(solution.history, reference, atol=1e-10)

    def test_five_steps_fractional(self):
        spec = small_spec(alpha=0.4, cells=6, num_steps=5, tau_total=0.5)
        q = interpolate_nodal(lambda x: 2.0 * x, spec.mesh)
        solution = solve_forward(spec, q)
        reference = dense_march(spec, q.values)
        np.testing.assert_allclose(solution.history, reference, atol=1e-9)

    def test_alpha_one_is_backward_euler(self):
        spec = small_spec(alpha=1.0, cells=5, num_steps=3, tau_total=0.3)
        q = interpolate_nodal(lambda x: 0.5 + x, spec.mesh)
        mesh = spec.mesh
        mass, stiff, wmass = (m.toarray() for m in assemble_operators(mesh, q))
        load = assemble_load(mesh, spec.f_expr)
        ii, bb = mesh.interior_nodes, mesh.boundary_nodes
        u = interpolate_nodal(spec.v_expr, mesh).values.copy()
        system = mass / spec.tau + stiff + wmass
        states = [u.copy()]
        for _ in range(3):
            rhs = load + mass @ u / spec.tau - system[:, bb] @ u[bb]
            nxt = u.copy()
            nxt[ii] = np.linalg.solve(system[np.ix_(ii, ii)], rhs[ii])
            states.append(nxt)
            u = nxt
        solution = solve_forward(spec, q)
        np.testing.assert_allclose(solution.history, np.array(states), atol=1e-10)


class TestInvariants:
    def test_constant_state_is_preserved(self):
        # With v = b = 3, q = 2 and f = q*b = 6 the exact solution is u = 3.
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            num_steps=10,
            mesh=build_mesh((0.0, 1.0), 8),
            v_expr=lambda x: np.full_like(x, 3.0),
            b_expr=lambda x: np.full_like(x, 3.0),
            f_expr=lambda x: np.full_like(x, 6.0),
            M1=5.0,
        )
        q = interpolate_nodal(lambda x: np.full_like(x, 2.0), spec.mesh)
        solution = solve_forward(spec, q)
        np.testing.assert_allclose(solution.history, 3.0, atol=1e-10)
        np.testing.assert_allclose(solution.frac_deriv_terminal.values, 0.0, atol=1e-8)

    def test_frac_deriv_vanishes_on_boundary(self):
        spec = small_spec(num_steps=4, tau_total=0.4)
        q = interpolate_nodal(lambda x: x, spec.mesh)
        solution = solve_forward(spec, q)
        np.testing.assert_array_equal(
            solution.frac_deriv_terminal.values[spec.mesh.boundary_nodes], 0.0
        )

    def test_benchmark_terminal_stays_physical(self):
        spec = benchmark_problem_1d(alpha=0.5, cells=40, num_steps=20)
        q = interpolate_nodal(SMOOTH_POTENTIAL, spec.mesh)
        solution = solve_forward(spec, q)
        assert solution.terminal.values.min() >= 0.5
        assert solution.terminal.values.max() <= 5.0

    def test_deterministic(self):
        spec = small_spec()
        q = interpolate_nodal(lambda x: 1.0 + x, spec.mesh)
        a = solve_forward(spec, q)
        b = solve_forward(spec, q)
        np.testing.assert_array_equal(a.history, b.history)

    def test_temporal_error_decreases(self):
        spec = benchmark_problem_1d(alpha=0.5, cells=20, num_steps=160)
        q = interpolate_nodal(SMOOTH_POTENTIAL, spec.mesh)
        reference = solve_forward(spec, q).terminal.values
        errors = []
        for steps in [10, 20, 40]:
            coarse = dataclasses.replace(spec, num_steps=steps)
            errors.append(np.linalg.norm(solve_forward(coarse, q).terminal.values - reference))
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.6)


class TestTerminalDerivative:
    """The march takes dbar^alpha u^N from its last step; a separate pass of
    cq.discrete_caputo over the whole history is the reference."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_discrete_caputo_of_the_history(self, alpha, dim):
        if dim == 1:
            spec = benchmark_problem_1d(alpha=alpha, cells=20, num_steps=30)
            q = interpolate_nodal(SMOOTH_POTENTIAL, spec.mesh)
        else:
            spec = benchmark_problem_2d(alpha=alpha, cells=8, num_steps=20)
            q = interpolate_nodal(SMOOTH_POTENTIAL_2D, spec.mesh)
        solution = solve_forward(spec, q)
        weights = cq_weights(spec.alpha, spec.num_steps, spec.tau)
        reference = discrete_caputo(solution.history, weights, spec.num_steps)
        ii, bb = spec.mesh.interior_nodes, spec.mesh.boundary_nodes
        frac = solution.frac_deriv_terminal.values
        np.testing.assert_allclose(frac[ii], reference[ii], rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(frac[bb], 0.0)


class TestSetupLifetime:
    def test_setup_is_built_once_per_spec(self, monkeypatch):
        calls = []
        original = forward.assemble_load

        def counting_load(mesh, f):
            calls.append(f)
            return original(mesh, f)

        monkeypatch.setattr(forward, "assemble_load", counting_load)
        spec = small_spec(num_steps=4)
        q = interpolate_nodal(lambda x: 1.0 + x, spec.mesh)
        first = solve_forward(spec, q)
        second = solve_forward(spec, q)
        assert len(calls) == 1
        np.testing.assert_array_equal(first.history, second.history)

        changed = dataclasses.replace(spec, f_expr=lambda x: 4.0 - x)
        third = solve_forward(changed, q)
        assert len(calls) == 2
        assert changed.discretization is not spec.discretization
        assert not np.array_equal(third.terminal.values, first.terminal.values)

    def test_a_changed_spec_keeps_the_mesh_operators(self, monkeypatch):
        calls = []
        original = fem.mass_matrix

        def counting_mass(mesh):
            calls.append(mesh)
            return original(mesh)

        monkeypatch.setattr(fem, "mass_matrix", counting_mass)
        spec = small_spec(num_steps=4)
        q = interpolate_nodal(lambda x: 1.0 + x, spec.mesh)
        solve_forward(spec, q)
        changed = dataclasses.replace(spec, f_expr=lambda x: 4.0 - x)
        solve_forward(changed, q)
        assert changed.discretization is not spec.discretization
        assert changed.mesh.mass is spec.mesh.mass
        assert changed.mesh.interior_block is spec.mesh.interior_block
        assert len(calls) == 1

    def test_one_march_prepares_one_system(self, monkeypatch):
        prepared, solved = [], []

        def counting_prepare(a):
            prepared.append(sparselin.prepare_spd(a))
            return prepared[-1]

        def counting_solve(system, rhs, x0=None):
            solved.append(system)
            return sparselin.solve_spd(system, rhs, x0)

        monkeypatch.setattr(forward, "prepare_spd", counting_prepare)
        monkeypatch.setattr(forward, "solve_spd", counting_solve)
        spec = small_spec(num_steps=4)
        solve_forward(spec, interpolate_nodal(lambda x: 1.0 + x, spec.mesh))
        assert len(prepared) == 1
        assert len(solved) == spec.num_steps
        assert all(system is prepared[0] for system in solved)


MARCH_PROBLEMS = pytest.mark.parametrize(
    "problem", [recon_1d_small_t, small_2d], ids=["1d_small_T", "2d_12x8"]
)


class TestMarchOracle:
    @MARCH_PROBLEMS
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_bitwise_equal_to_the_reference_march(self, monkeypatch, problem, alpha):
        spec, q = problem()
        spec = dataclasses.replace(spec, alpha=alpha)
        prepared = []

        def recording_prepare(a):
            prepared.append(a)
            return sparselin.prepare_spd(a)

        monkeypatch.setattr(forward, "prepare_spd", recording_prepare)
        solution = solve_forward(spec, q)
        monkeypatch.undo()
        history, frac, system = reference_march(spec, q)
        np.testing.assert_array_equal(solution.history, history)
        np.testing.assert_array_equal(solution.terminal.values, history[-1])
        np.testing.assert_array_equal(solution.frac_deriv_terminal.values, frac)

        ii = spec.mesh.interior_nodes
        (gathered,) = prepared
        expected = system[np.ix_(ii, ii)]
        assert gathered.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(gathered, name), getattr(expected, name))


SPARSE_TYPES = [
    cls for name in dir(sp)
    if name.endswith(("_matrix", "_array")) and isinstance(cls := getattr(sp, name), type)
]
SPARSE_OPERATORS = ("__getitem__", "__matmul__", "__add__", "__sub__", "__mul__", "__rmul__")


def sparse_calls(monkeypatch, march, spec, q):
    """Calls of scipy.sparse operators made by one march of a set-up spec."""
    spec.discretization  # the once-per-spec setup is not counted
    originals = {
        (cls, op): getattr(cls, op)
        for cls in SPARSE_TYPES
        for op in SPARSE_OPERATORS
        if hasattr(cls, op)
    }
    counts = Counter()
    for (cls, op), original in originals.items():
        def counting(self, *args, _op=op, _original=original):
            counts[_op] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, op, counting)
    march(spec, q)
    monkeypatch.undo()
    return counts


class TestSparseFreeMarch:
    """No sparse indexing, and no sparse operator whose count grows with the
    number of steps, may come back into the march."""

    @MARCH_PROBLEMS
    def test_calls_do_not_grow_with_the_steps(self, monkeypatch, problem):
        spec, q = problem()
        short, long = (
            sparse_calls(monkeypatch, solve_forward, dataclasses.replace(spec, num_steps=n), q)
            for n in (4, 8)
        )
        assert short == long
        assert short["__getitem__"] == 0

    def test_the_count_sees_the_reference_march_grow(self, monkeypatch):
        spec, q = small_2d()
        short, long = (
            sparse_calls(monkeypatch, reference_march, dataclasses.replace(spec, num_steps=n), q)
            for n in (4, 8)
        )
        assert short["__getitem__"] == long["__getitem__"] == 2
        assert long["__matmul__"] - short["__matmul__"] == 4


class TestValidation:
    def test_initial_value_must_match_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            ProblemSpec(
                alpha=0.5,
                T=1.0,
                num_steps=4,
                mesh=build_mesh((0.0, 1.0), 4),
                v_expr=lambda x: x,  # v(1)=1 but b=0 everywhere
                b_expr=lambda x: np.zeros_like(x),
                f_expr=lambda x: np.ones_like(x),
                M1=5.0,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", 0.0),
            ("alpha", 1.5),
            ("T", -1.0),
            ("T", float("nan")),
            ("T", float("inf")),
            ("num_steps", 0),
            ("M1", 0.0),
            ("M1", float("nan")),
            ("M1", float("inf")),
            ("M2_floor", 0.0),
            ("M2_floor", float("nan")),
            ("fp_tol", -1.0),
            ("fp_tol", float("nan")),
            ("seed", -1),
        ],
    )
    def test_parameter_validation(self, field, value):
        good = small_spec()
        with pytest.raises(ValueError):
            dataclasses.replace(good, **{field: value})

    @pytest.mark.parametrize(
        "T, alpha, match",
        [(1e-320, 1.0, "overflows"), (5e-324, 0.7, "underflows")],
    )
    def test_time_step_must_give_a_finite_scale(self, T, alpha, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(small_spec(), T=T, alpha=alpha)

    def test_tau_property(self):
        assert small_spec(num_steps=2, tau_total=0.2).tau == pytest.approx(0.1, abs=0.0)

    def test_potential_out_of_range_rejected(self):
        spec = small_spec()
        too_big = interpolate_nodal(lambda x: np.full_like(x, 6.0), spec.mesh)
        with pytest.raises(ValueError, match="admissible"):
            solve_forward(spec, too_big)
        negative = interpolate_nodal(lambda x: np.full_like(x, -0.5), spec.mesh)
        with pytest.raises(ValueError, match="admissible"):
            solve_forward(spec, negative)

    def test_potential_mesh_mismatch_rejected(self):
        spec = small_spec()
        other = interpolate_nodal(lambda x: np.zeros_like(x), build_mesh((0.0, 1.0), 5))
        with pytest.raises(ValueError, match="mesh"):
            solve_forward(spec, other)


class TestRestriction:
    def test_1d_injection_exact(self):
        fine = build_mesh((0.0, 2.0), 12)
        coarse = build_mesh((0.0, 2.0), 4)
        field = interpolate_nodal(lambda x: np.cos(x) + x**2, fine)
        restricted = restrict_to_mesh(field, coarse)
        expected = interpolate_nodal(lambda x: np.cos(x) + x**2, coarse)
        np.testing.assert_array_equal(restricted.values, expected.values)

    def test_2d_injection_exact(self):
        fine = build_mesh((0.0, 3.0), 6, dim=2)
        coarse = build_mesh((0.0, 3.0), 3, dim=2)
        field = interpolate_nodal(lambda x, y: x + 10.0 * y, fine)
        restricted = restrict_to_mesh(field, coarse)
        expected = interpolate_nodal(lambda x, y: x + 10.0 * y, coarse)
        np.testing.assert_array_equal(restricted.values, expected.values)

    def test_identity_restriction(self):
        mesh = build_mesh((0.0, 1.0), 5)
        field = interpolate_nodal(lambda x: x, mesh)
        np.testing.assert_array_equal(restrict_to_mesh(field, mesh).values, field.values)

    def test_non_nested_rejected(self):
        fine = build_mesh((0.0, 1.0), 10)
        coarse = build_mesh((0.0, 1.0), 4)
        field = interpolate_nodal(lambda x: x, fine)
        with pytest.raises(ValueError, match="nested"):
            restrict_to_mesh(field, coarse)

    def test_domain_mismatch_rejected(self):
        fine = build_mesh((0.0, 1.0), 8)
        coarse = build_mesh((0.0, 2.0), 4)
        field = interpolate_nodal(lambda x: x, fine)
        with pytest.raises(ValueError, match="domain"):
            restrict_to_mesh(field, coarse)
