"""Tests for the fully discrete forward solver.

The main oracle re-derives the first two steps of the scheme with dense
numpy linear algebra straight from the definition

    tau^{-alpha} M sum_j b_j (u^{n-j} - u^0) + (S + M_q) u^n = F

(interior rows, boundary pinned), so any sign or indexing slip in the
history convolution shows up as a mismatch.  For alpha = 1 the scheme
must coincide with classic backward Euler, which is rolled by hand.

The march keeps its history local and returns u^N and dbar^alpha u^N alone.
The oracles read state n as the terminal state of an n-step march with the
same time step (`marched_history`), or read the history of `reference_march`:
the march as it was before the interior blocks came from maps built once per
mesh, with fancy-indexed blocks and scipy products on an M that it assembles
itself.  It solves with the prepare_spd and solve_spd that forward holds when
it runs, so it pins the loop's arithmetic, not the solver: the march must
reproduce it bit for bit, with the CG and with a dense direct solve.
Assembly returns an operator's DIA data on the mesh; conftest.csr rebuilds
the scipy matrices of these oracles, and conftest.dia_arrays hands their
interior block to prepare_spd.
"""

import dataclasses
import os
import resource
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from fracpot import fem, forward
from fracpot.cq import cq_weights, discrete_caputo
from fracpot.fem import (
    assemble_load,
    assemble_operators,
    build_mesh,
    interpolate_nodal,
    mass_matrix,
    weighted_mass_matrix,
)
from fracpot.forward import ProblemSpec, restrict_to_mesh, solve_forward
from fracpot.inverse import ObservationData, compute_psi_h, reconstruct
from conftest import (
    SMOOTH_POTENTIAL,
    SMOOTH_POTENTIAL_2D,
    benchmark_problem_1d,
    benchmark_problem_2d,
    coo_scatter,
    csr,
    dia_arrays,
    dia_csr,
    recon_1d_small_t,
    small_2d,
    use_dense_solver,
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
    mass, stiff, wmass = (csr(mesh, m).toarray() for m in assemble_operators(mesh, q))
    load = assemble_load(mesh, spec.f_expr)
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    scale = spec.tau ** (-spec.alpha)
    w = cq_weights(spec.alpha, spec.num_steps)

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


def convolution_past(spec, history, n):
    """The march's history part of step n: sum_{j>=1} b_j u^{n-j} - (b_0 + ... + b_n) u^0."""
    setup, n_steps = spec.discretization, spec.num_steps
    past = setup.weights_reversed[n_steps - n : n_steps] @ history[:n]
    past -= setup.partial[n] * history[0]
    return past


def reference_march(spec, q, history_part=convolution_past):
    """The march loop with scipy's sum, fancy indexing and products, kept as
    the oracle; returns (history, terminal derivative, system).  It assembles
    its own M, and (M @ past)[ii] sums each interior row in the order
    M[ii] @ past does.  history_part(spec, history, n) forms step n's past."""
    setup = spec.discretization
    mesh = spec.mesh
    n_steps = spec.num_steps
    ii, bb = mesh.interior_nodes, mesh.boundary_nodes
    w0 = cq_weights(spec.alpha, spec.num_steps)[0]
    mass = csr(mesh, mass_matrix(mesh))
    base = (spec.scale * w0) * mass + csr(mesh, mesh.stiffness)
    system = base + csr(mesh, weighted_mass_matrix(mesh, q))
    block = system[np.ix_(ii, ii)]
    system_ii = forward.prepare_spd(*dia_arrays(block))
    rhs_base = setup.load_int - system[np.ix_(ii, bb)] @ setup.u0[bb]

    history = np.empty((n_steps + 1, mesh.n_nodes))
    history[0] = setup.u0
    history[1:, bb] = setup.u0[bb]
    x = setup.u0[ii]
    for n in range(1, n_steps + 1):
        past = history_part(spec, history, n)
        rhs = rhs_base - spec.scale * (mass @ past)[ii]
        x, _ = forward.solve_spd(system_ii, rhs, x0=x)
        history[n, ii] = x
    frac = np.zeros(mesh.n_nodes)
    frac[ii] = spec.scale * (x + past[ii])
    return history, frac, system


def short_march(spec, q, k):
    """The march of the first k steps of spec: the same time step, T = k tau."""
    return solve_forward(dataclasses.replace(spec, num_steps=k, T=k * spec.tau), q)


def marched_history(spec, q):
    """u^0..u^N of spec's march, u^k the terminal state of a k-step march."""
    states = [short_march(spec, q, k).terminal.values for k in range(1, spec.num_steps + 1)]
    return np.array([spec.discretization.u0, *states])


class TestAgainstDenseOracle:
    def test_two_steps_match(self):
        spec = small_spec()
        q = interpolate_nodal(lambda x: 1.0 + x, spec.mesh)
        reference = dense_march(spec, q.values)
        np.testing.assert_allclose(marched_history(spec, q), reference, atol=1e-10)

    def test_five_steps_fractional(self):
        spec = small_spec(alpha=0.4, cells=6, num_steps=5, tau_total=0.5)
        q = interpolate_nodal(lambda x: 2.0 * x, spec.mesh)
        reference = dense_march(spec, q.values)
        np.testing.assert_allclose(marched_history(spec, q), reference, atol=1e-9)

    def test_alpha_one_is_backward_euler(self):
        spec = small_spec(alpha=1.0, cells=5, num_steps=3, tau_total=0.3)
        q = interpolate_nodal(lambda x: 0.5 + x, spec.mesh)
        mesh = spec.mesh
        mass, stiff, wmass = (csr(mesh, m).toarray() for m in assemble_operators(mesh, q))
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
        np.testing.assert_allclose(marched_history(spec, q), np.array(states), atol=1e-10)


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
        np.testing.assert_allclose(marched_history(spec, q), 3.0, atol=1e-10)
        frac = solve_forward(spec, q).frac_deriv_terminal.values
        np.testing.assert_allclose(frac, 0.0, atol=1e-8)

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
        np.testing.assert_array_equal(a.terminal.values, b.terminal.values)
        np.testing.assert_array_equal(a.frac_deriv_terminal.values, b.frac_deriv_terminal.values)

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
    cq.discrete_caputo over the whole history of reference_march, which is
    bitwise that of the march, is the reference."""

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
        history, _, _ = reference_march(spec, q)
        reference = discrete_caputo(history, spec.alpha, spec.tau, spec.num_steps)
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
        np.testing.assert_array_equal(first.terminal.values, second.terminal.values)
        np.testing.assert_array_equal(
            first.frac_deriv_terminal.values, second.frac_deriv_terminal.values
        )

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
        assert changed.mesh.slot is spec.mesh.slot
        assert changed.mesh.mass is spec.mesh.mass
        assert changed.mesh.stiffness is spec.mesh.stiffness
        assert changed.mesh.interior_stencil is spec.mesh.interior_stencil
        assert len(calls) == 1

    def test_the_march_keeps_no_history(self):
        spec, q = small_2d()
        spec = dataclasses.replace(spec, num_steps=40, T=40 * spec.tau)
        solve_forward(spec, q)  # builds the spec's setup and the mesh's interior block
        tracemalloc.start()
        try:
            solution = solve_forward(spec, q)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert solution.terminal.values.size == spec.mesh.n_nodes
        assert kept < (spec.num_steps + 1) * spec.mesh.n_nodes * 8

    def test_one_march_prepares_one_system(self, monkeypatch):
        prepared, solved = [], []
        prepare, solve = forward.prepare_spd, forward.solve_spd  # whichever pair forward holds

        def counting_prepare(*arrays):
            prepared.append(prepare(*arrays))
            return prepared[-1]

        def counting_solve(system, *args, **kwargs):
            solved.append(system)
            return solve(system, *args, **kwargs)

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
        prepare = forward.prepare_spd  # whichever solver forward holds

        def recording_prepare(*arrays):
            prepared.append(arrays)
            return prepare(*arrays)

        monkeypatch.setattr(forward, "prepare_spd", recording_prepare)
        solution = solve_forward(spec, q)
        monkeypatch.undo()
        history, frac, system = reference_march(spec, q)
        np.testing.assert_array_equal(solution.terminal.values, history[-1])
        np.testing.assert_array_equal(solution.frac_deriv_terminal.values, frac)
        for k in (1, 2, spec.num_steps // 2):
            np.testing.assert_array_equal(short_march(spec, q, k).terminal.values, history[k])

        ii = spec.mesh.interior_nodes
        (gathered,) = prepared
        assert (dia_csr(*gathered) != system[np.ix_(ii, ii)]).nnz == 0

    @MARCH_PROBLEMS
    def test_the_reference_follows_the_solver(self, monkeypatch, problem):
        spec, q = problem()
        use_dense_solver(monkeypatch)
        solution = solve_forward(spec, q)
        history, frac, _ = reference_march(spec, q)
        np.testing.assert_array_equal(solution.terminal.values, history[-1])
        np.testing.assert_array_equal(solution.frac_deriv_terminal.values, frac)


def sweep_2d_20_steps():
    """configs/sweep_2d.json on 12^2 cells x 20 steps, with its true potential."""
    spec = benchmark_problem_2d(cells=12, num_steps=20)
    return spec, interpolate_nodal(SMOOTH_POTENTIAL_2D, spec.mesh)


class TestAlphaOne:
    """At alpha 1 the weights are [1, -1, 0, ...] and partial[n] = 0 for
    n >= 1, so the history part of step n is exactly -u^{n-1}: the march
    needs no convolution to give the same u^N and dbar u^N, bit for bit."""

    @pytest.mark.parametrize(
        "problem", [recon_1d_small_t, sweep_2d_20_steps], ids=["1d_small_T", "2d_12x20"]
    )
    def test_the_history_part_is_minus_the_previous_state(self, problem):
        spec, q = problem()
        spec = dataclasses.replace(spec, alpha=1.0)
        setup = spec.discretization
        assert setup.weights_reversed[-2:].tolist() == [-1.0, 1.0]
        assert not setup.weights_reversed[:-2].any() and not setup.partial[1:].any()
        solution = solve_forward(spec, q)
        history, frac, _ = reference_march(
            spec, q, history_part=lambda spec, history, n: -history[n - 1]
        )
        np.testing.assert_array_equal(solution.terminal.values, history[-1])
        np.testing.assert_array_equal(solution.frac_deriv_terminal.values, frac)


SPARSE_TYPES = [
    cls for name in dir(sp)
    if name.endswith(("_matrix", "_array")) and isinstance(cls := getattr(sp, name), type)
]
SPARSE_OPERATORS = (
    "__getitem__", "__matmul__", "__add__", "__sub__", "__mul__", "__rmul__", "tocsr"
)


def sparse_calls(monkeypatch, march, spec, q):
    """Calls of scipy.sparse operators made by march(spec, q) on a set-up spec,
    with each construction of a sparse matrix or array counted under the name
    of its class."""
    spec.discretization  # the once-per-spec setup is not counted
    originals = {
        (cls, op): getattr(cls, op)
        for cls in SPARSE_TYPES
        for op in SPARSE_OPERATORS
        if hasattr(cls, op)
    }
    originals.update({(cls, cls.__name__): cls.__init__ for cls in SPARSE_TYPES})
    counts = Counter()
    for (cls, op), original in originals.items():
        def counting(self, *args, _op=op, _original=original, **kwargs):
            counts[_op] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, op if op in SPARSE_OPERATORS else "__init__", counting)
    march(spec, q)
    monkeypatch.undo()
    return counts


def constructions(counts):
    """The number of sparse matrices and arrays built, from sparse_calls' counts."""
    return sum(counts[cls.__name__] for cls in SPARSE_TYPES)


class TestSparseFreeMarch:
    """No sparse indexing, no COO assembly, and no sparse operator whose count
    grows with the number of steps, may come back into the march."""

    @MARCH_PROBLEMS
    def test_calls_do_not_grow_with_the_steps(self, monkeypatch, problem):
        spec, q = problem()
        short, long = (
            sparse_calls(monkeypatch, solve_forward, dataclasses.replace(spec, num_steps=n), q)
            for n in (4, 8)
        )
        assert short == long
        assert short["__getitem__"] == 0

    @MARCH_PROBLEMS
    def test_builds_no_coo_matrix(self, monkeypatch, problem):
        spec, q = problem()
        counts = sparse_calls(monkeypatch, solve_forward, spec, q)
        assert counts["coo_matrix"] == counts["coo_array"] == counts["tocsr"] == 0

    def test_the_count_sees_a_coo_assembly(self, monkeypatch):
        spec, q = small_2d()
        mesh = spec.mesh
        local = np.ones((*mesh.elements.shape, mesh.elements.shape[1]))
        counts = sparse_calls(
            monkeypatch, lambda *_: coo_scatter(local, mesh.elements, mesh.n_nodes), spec, q
        )
        assert counts["coo_matrix"] == counts["tocsr"] == 1

    def test_the_count_sees_the_reference_march_grow(self, monkeypatch):
        spec, q = small_2d()
        short, long = (
            sparse_calls(monkeypatch, reference_march, dataclasses.replace(spec, num_steps=n), q)
            for n in (4, 8)
        )
        assert short["__getitem__"] == long["__getitem__"] == 2
        assert long["__matmul__"] - short["__matmul__"] == 4


def pipeline(spec, q):
    """One march, one psi_h, and one reconstruction (max_iter iterations at most)
    with its error trace, from the march's terminal field and a zero boundary
    trace."""
    obs = ObservationData(solve_forward(spec, q).terminal, np.zeros(spec.mesh.boundary_nodes.size))
    compute_psi_h(spec.mesh, obs)
    reconstruct(spec, obs, q_true=lambda *xy: 3.0)


class TestSparseFreePipeline:
    """No scipy matrix is built at run time: operators are DIA data on the
    mesh, and every system and norm runs on DIA arrays."""

    @MARCH_PROBLEMS
    def test_builds_no_sparse_matrix(self, monkeypatch, problem):
        spec, q = problem()
        spec = dataclasses.replace(spec, max_iter=2)
        assert constructions(sparse_calls(monkeypatch, pipeline, spec, q)) == 0

    def test_the_count_sees_the_reference_march_build(self, monkeypatch):
        spec, q = small_2d()
        assert constructions(sparse_calls(monkeypatch, reference_march, spec, q)) > 0


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

    @pytest.mark.parametrize("field", ["num_steps", "max_iter", "seed"])
    def test_an_integer_field_must_be_an_integer(self, field):
        with pytest.raises(ValueError, match=rf"{field} must be an integer, got 2\.5"):
            dataclasses.replace(small_spec(), **{field: 2.5})
        assert getattr(dataclasses.replace(small_spec(), **{field: np.int64(3)}), field) == 3

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
        # Another resolution, and the same number of nodes on another domain.
        for mesh in (build_mesh((0.0, 1.0), 5), build_mesh((0.0, 2.0), 4)):
            other = interpolate_nodal(lambda x: np.zeros_like(x), mesh)
            with pytest.raises(ValueError, match="aligned"):
                solve_forward(spec, other)


class TestMemoryPreflight:
    """The march checks its history against the memory budget before it
    allocates it.  The budget is injected; nothing large is allocated."""

    def test_a_history_over_the_budget_is_refused_before_anything_is_allocated(
        self, monkeypatch
    ):
        # 100,001 steps on 5 nodes: a 4 MB history against a 1 MB budget.
        spec = dataclasses.replace(small_spec(), num_steps=100_000)
        q = interpolate_nodal(lambda x: 1.0 + x, spec.mesh)
        monkeypatch.setattr(forward, "memory_budget", lambda: 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match=r"^Unable to allocate 0\.00373 GiB .*100001 x 5"):
                solve_forward(spec, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_history_that_fits_exactly_marches_as_before(self, monkeypatch):
        spec = small_spec(num_steps=4)
        q = interpolate_nodal(lambda x: 1.0 + x, spec.mesh)
        expected = solve_forward(spec, q).terminal.values
        monkeypatch.setattr(forward, "memory_budget", lambda: 5 * spec.mesh.n_nodes * 8)
        np.testing.assert_array_equal(solve_forward(spec, q).terminal.values, expected)

    @pytest.mark.parametrize("soft", [2 << 30, None], ids=["finite", "unlimited"])
    def test_the_budget_is_the_smaller_of_memory_and_the_address_space_limit(
        self, monkeypatch, soft
    ):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        limit = resource.RLIM_INFINITY if soft is None else soft
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
        assert fem.memory_budget() == (physical if soft is None else min(physical, soft))


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
