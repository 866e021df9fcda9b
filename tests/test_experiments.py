"""Tests for the benchmark configs, synthetic observations, sweeps and CSV IO.

Observation tests pin the noise contract (interior-only, seeded, bitwise
reproducible) and the frozen boundary values q(0)*b(0) - f(0) = -6 of the
smooth benchmark.  Sweep tests verify the h = delta^(1/3), tau = delta^(1/3)
* T / 10 coupling on the integer grids actually used, plus failure-row
bookkeeping.  CSV tests round-trip full-precision dumps, pin every writer's
bytes, and check that the reader names the first fault in a dump.
"""

import csv
import dataclasses
import math
import sys

import numpy as np
import pytest

from fracpot import experiments, fem, forward
from fracpot.experiments import (
    RateRow,
    RateTable,
    _auto_fine_factor,
    make_observation,
    rate_sweep,
    read_field_csv,
    relative_error,
    write_field_csv,
    write_history_csv,
    write_sweep_csv,
)
from fracpot.fem import NodalField, build_mesh, interpolate_nodal
from fracpot.forward import solve_forward
from fracpot.inverse import DataFloorError, reconstruct
from conftest import (
    INDICATOR_POTENTIAL,
    SMOOTH_POTENTIAL,
    SMOOTH_POTENTIAL_2D,
    TRIANGLE_POTENTIAL,
    ZERO_BOUNDARY,
    benchmark_problem_1d,
    benchmark_problem_2d,
    recon_1d_small_t,
)


class TestBenchmarks:
    def test_1d_defaults(self):
        spec = benchmark_problem_1d()
        assert spec.mesh.bounds == (0.0, 10.0)
        assert spec.mesh.dim == 1
        assert (spec.alpha, spec.T, spec.num_steps, spec.M1) == (0.5, 1.0, 100, 5.0)
        assert str(spec.v_expr) == "x*(10-x)/50+1"
        assert str(spec.b_expr) == "1"
        assert str(spec.f_expr) == "10"

    def test_1d_overrides_pass_through(self):
        spec = benchmark_problem_1d(alpha=0.75, cells=10, num_steps=5, fp_tol=1e-8)
        assert spec.alpha == 0.75
        assert spec.mesh.cells_per_axis == 10
        assert spec.num_steps == 5
        assert spec.fp_tol == 1e-8

    def test_2d_defaults(self):
        spec = benchmark_problem_2d()
        assert spec.mesh.bounds == (0.0, 3.0)
        assert spec.mesh.dim == 2

    def test_reference_potentials_within_bounds(self):
        x = np.linspace(0.0, 10.0, 1001)
        for expr, low, high in [
            (SMOOTH_POTENTIAL, 2.0, 4.0),
            (TRIANGLE_POTENTIAL, 3.0, 4.0),
            (INDICATOR_POTENTIAL, 3.0, 4.0),
        ]:
            vals = expr(x)
            assert vals.min() >= low - 1e-12
            assert vals.max() <= high + 1e-12
        xy = np.linspace(0.0, 3.0, 301)
        vals2 = SMOOTH_POTENTIAL_2D(xy, xy)
        assert vals2.min() >= 2.0 - 1e-12 and vals2.max() <= 4.0 + 1e-12


class TestMakeObservation:
    def spec(self, **overrides):
        return benchmark_problem_1d(cells=20, num_steps=10, **overrides)

    def test_noise_free_same_grid_is_the_forward_terminal(self):
        spec = self.spec()
        obs = make_observation(spec, SMOOTH_POTENTIAL, 1, 0.0)
        forward = solve_forward(spec, interpolate_nodal(SMOOTH_POTENTIAL, spec.mesh))
        np.testing.assert_array_equal(obs.g_delta.values, forward.terminal.values)

    def test_boundary_trace_is_exact_dirichlet_data(self):
        spec = self.spec(seed=3)
        obs = make_observation(spec, SMOOTH_POTENTIAL, 2, 1e-2)
        np.testing.assert_array_equal(obs.g_delta.values[spec.mesh.boundary_nodes], [1.0, 1.0])

    def test_noise_touches_interior_only(self):
        spec = self.spec(seed=3)
        clean = make_observation(spec, SMOOTH_POTENTIAL, 2, 0.0)
        noisy = make_observation(spec, SMOOTH_POTENTIAL, 2, 1e-2)
        bb = spec.mesh.boundary_nodes
        ii = spec.mesh.interior_nodes
        np.testing.assert_array_equal(noisy.g_delta.values[bb], clean.g_delta.values[bb])
        assert (noisy.g_delta.values[ii] != clean.g_delta.values[ii]).all()

    def test_same_seed_is_bitwise_reproducible(self):
        a = make_observation(self.spec(seed=11), SMOOTH_POTENTIAL, 2, 1e-3)
        b = make_observation(self.spec(seed=11), SMOOTH_POTENTIAL, 2, 1e-3)
        np.testing.assert_array_equal(a.g_delta.values, b.g_delta.values)
        c = make_observation(self.spec(seed=12), SMOOTH_POTENTIAL, 2, 1e-3)
        assert (a.g_delta.values != c.g_delta.values).any()

    def test_noise_is_drawn_from_the_spec_seed(self):
        spec = self.spec(seed=21)
        clean = make_observation(spec, SMOOTH_POTENTIAL, 2, 0.0)
        noisy = make_observation(spec, SMOOTH_POTENTIAL, 2, 1e-3)
        ii = spec.mesh.interior_nodes
        expected = clean.g_delta.values.copy()
        expected[ii] += 1e-3 * np.random.default_rng(21).standard_normal(ii.size)
        np.testing.assert_array_equal(noisy.g_delta.values, expected)

    def test_smooth_benchmark_psi_boundary(self):
        # q(0) = q(10) = 4, b = 1, f = 10, so q*b - f = -6 at both ends.
        spec = self.spec()
        obs = make_observation(spec, SMOOTH_POTENTIAL, 1, 0.0)
        np.testing.assert_allclose(obs.psi_boundary, [-6.0, -6.0], atol=1e-12)

    def test_factor_validation(self):
        spec = self.spec()
        with pytest.raises(ValueError, match="fine_factor"):
            make_observation(spec, SMOOTH_POTENTIAL, 0, 0.0)
        with pytest.raises(ValueError, match="fine_step_factor"):
            make_observation(spec, SMOOTH_POTENTIAL, 1, 0.0, fine_step_factor=0)

    @pytest.mark.parametrize("delta", [-1e-3, float("nan")])
    def test_bad_noise_level_rejected_before_the_march(self, monkeypatch, delta):
        def no_march(*args):
            raise AssertionError("the forward march ran")

        monkeypatch.setattr(experiments, "solve_forward", no_march)
        with pytest.raises(ValueError, match="noise level"):
            make_observation(self.spec(), SMOOTH_POTENTIAL, 1, delta)

    def test_floor_violation_raises(self):
        # make_observation leaves the floor to reconstruct, which checks it once
        spec = self.spec(**ZERO_BOUNDARY)
        obs = make_observation(spec, SMOOTH_POTENTIAL, 1, 0.0)
        with pytest.raises(DataFloorError, match="reaches 0.000e[+]00, below the admissible floor"):
            reconstruct(spec, obs)


class TestRelativeError:
    def test_exact_interpolant_scores_zero(self):
        mesh = build_mesh((0.0, 10.0), 17)
        truth = interpolate_nodal(SMOOTH_POTENTIAL, mesh)
        assert relative_error(truth, SMOOTH_POTENTIAL, mesh) == 0.0

    def test_zero_guess_against_constant_scores_one(self):
        mesh = build_mesh((0.0, 1.0), 9)
        zero = NodalField(np.zeros(mesh.n_nodes), mesh)
        assert relative_error(zero, lambda x: np.full_like(x, 3.0), mesh) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_scaled_truth_scores_the_scale_offset(self):
        mesh = build_mesh((0.0, 10.0), 23)
        truth = interpolate_nodal(SMOOTH_POTENTIAL, mesh)
        scaled = NodalField(1.1 * truth.values, mesh)
        assert relative_error(scaled, SMOOTH_POTENTIAL, mesh) == pytest.approx(0.1, abs=1e-12)

    def test_mesh_mismatch_rejected(self):
        mesh = build_mesh((0.0, 10.0), 8)
        other = build_mesh((0.0, 10.0), 9)
        field = NodalField(np.ones(other.n_nodes), other)
        with pytest.raises(ValueError, match="aligned"):
            relative_error(field, SMOOTH_POTENTIAL, mesh)

    def test_zero_norm_truth_rejected(self):
        mesh = build_mesh((0.0, 1.0), 4)
        field = NodalField(np.ones(mesh.n_nodes), mesh)
        with pytest.raises(ValueError, match="zero norm"):
            relative_error(field, lambda x: np.zeros_like(x), mesh)


class TestMassAssembly:
    def test_two_sweep_rows_assemble_the_mass_once(self, monkeypatch):
        # A sweep row of the recon_1d_small_T benchmark: M serves the march,
        # psi_h and every M-norm, and its mesh keeps it across rows.  Three
        # fixed-point iterations show every use.
        spec, _ = recon_1d_small_t()
        spec = dataclasses.replace(spec, max_iter=3)
        original = fem.mass_matrix
        calls = []

        def counting_mass(mesh):
            calls.append(mesh)
            return original(mesh)

        # Wherever a fracpot module holds the function, as the benchmark's tracer wraps it.
        for name, module in list(sys.modules.items()):
            if name.startswith("fracpot") and getattr(module, "mass_matrix", None) is original:
                monkeypatch.setattr(module, "mass_matrix", counting_mass)
        for _ in range(2):
            obs = make_observation(spec, TRIANGLE_POTENTIAL, 1, 1e-3, fine_step_factor=1)
            result = reconstruct(spec, obs)
            relative_error(result.q_star, TRIANGLE_POTENTIAL, spec.mesh)
        assert result.iterations == 3
        assert calls == [spec.mesh]


class TestRateSweep:
    def test_delta_validation(self):
        template = benchmark_problem_1d()
        with pytest.raises(ValueError, match="descending"):
            rate_sweep(template, SMOOTH_POTENTIAL, [1e-3, 1e-2], [0.5])
        with pytest.raises(ValueError, match="positive"):
            rate_sweep(template, SMOOTH_POTENTIAL, [1e-2, 0.0], [0.5])

    def test_small_sweep_couples_grids_to_noise(self):
        template = benchmark_problem_1d()
        deltas = [1e-2, 1e-3]
        table = rate_sweep(
            template, SMOOTH_POTENTIAL, deltas, [0.5],
            fine_factor=2, fine_step_factor=2,
        )
        assert len(table.rows) == 2
        for row, delta in zip(table.rows, deltas):
            width = delta ** (1.0 / 3.0)
            cells = round(10.0 / width)
            steps = round(10.0 / width)
            assert row.delta == delta
            assert row.alpha == 0.5
            assert row.h == pytest.approx(10.0 / cells, rel=1e-14)
            assert row.tau == pytest.approx(1.0 / steps, rel=1e-14)
            assert row.failure is None
            assert row.iterations > 0
            assert math.isfinite(row.e_q) and row.e_q > 0.0
        # Errors shrink with the noise, and the fitted slope matches polyfit.
        assert table.rows[1].e_q < table.rows[0].e_q
        log_d = np.log([r.delta for r in table.rows])
        log_e = np.log([r.e_q for r in table.rows])
        expected = float(np.polyfit(log_d, log_e, 1)[0])
        assert table.slopes[0.5] == pytest.approx(expected, rel=1e-12)

    def test_failed_rows_are_recorded_not_raised(self):
        template = benchmark_problem_1d(**ZERO_BOUNDARY)
        table = rate_sweep(
            template, SMOOTH_POTENTIAL, [0.5, 0.25], [0.5],
            fine_factor=1, fine_step_factor=1,
        )
        assert len(table.rows) == 2
        for row in table.rows:
            assert math.isnan(row.e_q)
            assert "floor" in row.failure
        assert math.isnan(table.slopes[0.5])

    def test_rows_that_exhaust_the_budget_keep_their_errors(self, caplog):
        template = benchmark_problem_1d(max_iter=1)
        with caplog.at_level("WARNING", logger="fracpot.experiments"):
            table = rate_sweep(
                template, SMOOTH_POTENTIAL, [1e-2, 1e-3], [0.5],
                fine_factor=1, fine_step_factor=1,
            )
        assert caplog.text.count("iteration budget of 1 exhausted") == 2
        for row in table.rows:
            assert row.failure == "iteration budget of 1 exhausted before the tolerance"
            assert row.iterations == 1 and math.isfinite(row.e_q)
        # The slope still fits every row with a finite error.
        log_d = np.log([r.delta for r in table.rows])
        log_e = np.log([r.e_q for r in table.rows])
        assert table.slopes[0.5] == float(np.polyfit(log_d, log_e, 1)[0])

    def test_out_of_memory_is_a_failed_row(self, monkeypatch, caplog):
        def allocate(*args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(experiments, "solve_forward", allocate)
        with caplog.at_level("WARNING", logger="fracpot.experiments"):
            table = rate_sweep(benchmark_problem_1d(), SMOOTH_POTENTIAL, [1e-2], [0.5])
        (row,) = table.rows
        assert row.failure == "out of memory: Unable to allocate 8.00 GiB"
        assert math.isnan(row.e_q) and row.iterations == 0
        assert "out of memory" in caplog.text


    def test_a_history_over_the_memory_budget_is_a_failed_row(self, monkeypatch):
        monkeypatch.setattr(forward, "memory_budget", lambda: 1 << 10)
        table = rate_sweep(benchmark_problem_1d(), SMOOTH_POTENTIAL, [1e-2], [0.5])
        (row,) = table.rows
        assert row.failure.startswith("out of memory: Unable to allocate")
        assert math.isnan(row.e_q) and row.iterations == 0

    def test_a_mesh_over_the_memory_budget_is_a_failed_row(self, monkeypatch):
        # delta 1e-12 asks for 100,000 cells on (0, 10); delta 1e-2 for 46.
        monkeypatch.setattr(fem, "memory_budget", lambda: fem._mesh_bytes(1000, 1))
        template = benchmark_problem_1d(max_iter=1)
        table = rate_sweep(
            template, SMOOTH_POTENTIAL, [1e-2, 1e-12], [0.5], fine_factor=1, fine_step_factor=1
        )
        built, refused = table.rows
        assert built.iterations == 1 and math.isfinite(built.e_q)
        assert (built.h, built.tau) == (build_mesh((0.0, 10.0), 46).h, template.T / 46)
        assert refused.failure == (
            "out of memory: Unable to allocate 0.0343 GiB for the mesh "
            "(100000 cells per axis in 1D) within 0.000112 GiB"
        )
        assert math.isnan(refused.e_q) and refused.iterations == 0
        assert (refused.h, refused.tau) == (10.0 / 100_000, template.T / 100_000)

class TestConvergenceHistory:
    def history(self, q0=None):
        spec = benchmark_problem_1d(cells=20, num_steps=10)
        obs = make_observation(spec, SMOOTH_POTENTIAL, 1, 0.0)
        return reconstruct(spec, obs, q_true=SMOOTH_POTENTIAL, q0=q0).errors_vs_truth

    def test_history_tracks_decreasing_absolute_errors(self):
        errors = self.history()
        assert len(errors) >= 3
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.1

    def test_initial_guess_override_changes_the_starting_error(self):
        default = self.history()
        overridden = self.history(q0=lambda x: np.zeros_like(x))
        assert overridden[0] != default[0]


class TestCsvIO:
    def test_field_round_trip_1d(self, tmp_path):
        mesh = build_mesh((0.0, 10.0), 7)
        rng = np.random.default_rng(5)
        field = NodalField(rng.standard_normal(mesh.n_nodes), mesh)
        path = tmp_path / "field.csv"
        write_field_csv(path, field)
        back = read_field_csv(path, mesh)
        np.testing.assert_array_equal(back.values, field.values)

    def test_field_round_trip_2d(self, tmp_path):
        mesh = build_mesh((0.0, 3.0), 4, dim=2)
        rng = np.random.default_rng(6)
        field = NodalField(rng.standard_normal(mesh.n_nodes), mesh)
        path = tmp_path / "field2d.csv"
        write_field_csv(path, field)
        back = read_field_csv(path, mesh)
        np.testing.assert_array_equal(back.values, field.values)

    def test_read_rejects_wrong_column_count(self, tmp_path):
        mesh = build_mesh((0.0, 1.0), 4)
        path = tmp_path / "bad.csv"
        path.write_text("node_index,value\n0,1.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_field_csv(path, mesh)

    @pytest.mark.parametrize(
        "dim, truncated",
        [(1, "2,0.5"), (2, "0,0.0,7")],  # the value column is missing from the row
    )
    def test_read_rejects_a_truncated_row(self, tmp_path, dim, truncated):
        mesh = build_mesh((0.0, 1.0), 2, dim=dim)
        path = tmp_path / "truncated.csv"
        write_field_csv(path, NodalField(np.ones(mesh.n_nodes), mesh))
        lines = path.read_text().splitlines()
        index = int(truncated.split(",")[0])
        lines[1 + index] = truncated
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="columns"):
            read_field_csv(path, mesh)

    def test_read_rejects_foreign_coordinates(self, tmp_path):
        mesh = build_mesh((0.0, 1.0), 4)
        other = build_mesh((0.0, 2.0), 4)
        field = NodalField(np.ones(other.n_nodes), other)
        path = tmp_path / "foreign.csv"
        write_field_csv(path, field)
        with pytest.raises(ValueError, match="coordinates"):
            read_field_csv(path, mesh)

    def test_read_rejects_incomplete_dump(self, tmp_path):
        mesh = build_mesh((0.0, 1.0), 4)
        field = NodalField(np.ones(mesh.n_nodes), mesh)
        path = tmp_path / "short.csv"
        write_field_csv(path, field)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="covers"):
            read_field_csv(path, mesh)

    @pytest.mark.parametrize(
        "node, line, fault",
        [
            (3, "2,0.5,1", "node 2 appears 2 times"),  # node 2's row again, in node 3's place
            (2, "2,0.5,nan", "node 2 has a non-finite value"),
            (2, "2.5,0.5,1", r"row \['2.5', '0.5', '1'\]: the node index is not an integer in 0"),
            (2, "2,0.5,abc", r"row \['2', '0.5', 'abc'\]: value 'abc' is not a number"),
            (1, "1,0.2x5,1", r"row \['1', '0.2x5', '1'\]: x '0.2x5' is not a number"),
        ],
        ids=["duplicated-node", "nan-value", "non-integer-index", "text-value", "text-coordinate"],
    )
    def test_read_names_the_fault_and_the_first_node_or_row(self, tmp_path, node, line, fault):
        mesh = build_mesh((0.0, 1.0), 4)
        path = tmp_path / "faulty.csv"
        write_field_csv(path, NodalField(np.ones(mesh.n_nodes), mesh))
        lines = path.read_text().splitlines()
        lines[1 + node] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=fault):
            read_field_csv(path, mesh)

    def test_field_dump_bytes_1d(self, tmp_path):
        mesh = build_mesh((0.0, 1.0), 4)
        path = tmp_path / "field.csv"
        write_field_csv(path, NodalField(np.array([-0.0, 0.1, 1 / 3, 1e-300, 2.0]), mesh))
        assert path.read_bytes() == (
            b"node_index,x,value\r\n"
            b"0,0,-0\r\n"
            b"1,0.25,0.10000000000000001\r\n"
            b"2,0.5,0.33333333333333331\r\n"
            b"3,0.75,1e-300\r\n"
            b"4,1,2\r\n"
        )

    def test_field_dump_bytes_2d(self, tmp_path):
        mesh = build_mesh((0.0, 3.0), 2, dim=2)
        path = tmp_path / "field2d.csv"
        write_field_csv(path, NodalField(np.arange(9) / 4 - 1, mesh))
        assert path.read_bytes() == (
            b"node_index,x,y,value\r\n"
            b"0,0,0,-1\r\n1,1.5,0,-0.75\r\n2,3,0,-0.5\r\n"
            b"3,0,1.5,-0.25\r\n4,1.5,1.5,0\r\n5,3,1.5,0.25\r\n"
            b"6,0,3,0.5\r\n7,1.5,3,0.75\r\n8,3,3,1\r\n"
        )

    def test_history_layout(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv(path, [1.0, 0.5, 0.25], [0.5, 0.2])
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["k", "e_k", "increment"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        assert float(rows[1][1]) == 1.0 and math.isnan(float(rows[1][2]))
        assert float(rows[2][1]) == 0.5 and float(rows[2][2]) == 0.5
        assert float(rows[3][1]) == 0.25 and float(rows[3][2]) == 0.2
        assert path.read_bytes() == (
            b"k,e_k,increment\r\n0,1,nan\r\n1,0.5,0.5\r\n2,0.25,0.20000000000000001\r\n"
        )

    def test_history_without_truth_errors(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv(path, None, [0.5])
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 3
        assert math.isnan(float(rows[1][1]))
        assert float(rows[2][2]) == 0.5
        assert path.read_bytes() == b"k,e_k,increment\r\n0,nan,nan\r\n1,nan,0.5\r\n"

    def test_sweep_layout_round_trips(self, tmp_path):
        failure = "time step 3/9: CG stalled, at relative residual 1e-9"
        table = RateTable(
            rows=[
                RateRow(1e-3, 0.1, 0.01, 0.5, 0.0625, 17, 1.25),
                RateRow(1e-4, 0.05, 0.005, 0.5, float("nan"), 0, 2.5, failure),
            ],
            slopes={0.5: 0.31},
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, table)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "delta", "h", "tau", "alpha", "e_q", "iterations", "runtime_s", "failure"
        ]
        assert [float(v) for v in rows[1][:5]] == [1e-3, 0.1, 0.01, 0.5, 0.0625]
        assert int(rows[1][5]) == 17
        assert rows[1][7] == ""
        assert rows[2][7] == failure  # a comma in the text stays in its column
        assert path.read_bytes() == (
            b"delta,h,tau,alpha,e_q,iterations,runtime_s,failure\r\n"
            b"0.001,0.10000000000000001,0.01,0.5,0.0625,17,1.25,\r\n"
            b"0.0001,0.050000000000000003,0.0050000000000000001,0.5,nan,0,2.5,"
            b'"time step 3/9: CG stalled, at relative residual 1e-9"\r\n'
        )


class TestAutoFineFactor:
    @pytest.mark.parametrize(
        "count, dim, expected",
        [(100, 1, 10), (1000, 1, 1), (46, 1, 22), (3000, 1, 1), (215, 1, 5), (30, 2, 10)],
    )
    def test_rule(self, count, dim, expected):
        assert _auto_fine_factor(count, dim) == expected
