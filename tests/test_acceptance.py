"""End-to-end acceptance checks for the potential-recovery pipeline.

Each test is one scenario with a hard numerical band, run at desk scale:
noise-rate sweeps for the smooth and indicator potentials, iteration
plateaus, terminal-time sensitivity, forward-solver self-convergence
orders, quadrature-weight identities, data-Laplacian error trends, an
inverse-crime consistency run, and a 2D recovery.  Everything is seeded;
`pytest -v` gives one pass/fail line per scenario.  The heavy sweeps are
shared through module-scoped fixtures; the full module takes a few
minutes of CPU.
"""

import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from fracpot.cq import cq_weights
from fracpot.experiments import make_observation, rate_sweep, relative_error
from fracpot.expressions import parse_field_expr
from fracpot.fem import NodalField, build_mesh, interpolate_nodal, mass_norm
from fracpot.forward import restrict_to_mesh, solve_forward
from fracpot.inverse import ObservationData, compute_psi_h, reconstruct
from conftest import (
    INDICATOR_POTENTIAL,
    SMOOTH_POTENTIAL,
    SMOOTH_POTENTIAL_2D,
    TRIANGLE_POTENTIAL,
    benchmark_problem_1d,
    benchmark_problem_2d,
)

pytestmark = pytest.mark.acceptance

SWEEP_DELTAS = [1e-2, 1e-3, 1e-4, 1e-5]
ALL_ALPHAS = [0.25, 0.5, 0.75, 1.0]


@pytest.fixture(scope="module")
def smooth_rate_table():
    """Noise-rate sweep for the smooth potential, all fractional orders."""
    return rate_sweep(
        benchmark_problem_1d(seed=0), SMOOTH_POTENTIAL, SWEEP_DELTAS, ALL_ALPHAS
    )


@pytest.fixture(scope="module")
def unit_time_run():
    """Reconstruction at T=1, h=0.1, tau=0.01, delta=1e-3 (triangle truth)."""
    spec = benchmark_problem_1d(alpha=0.5, T=1.0, cells=100, num_steps=100, seed=0)
    obs = make_observation(spec, TRIANGLE_POTENTIAL, 10, 1e-3, fine_step_factor=10)
    result = reconstruct(spec, obs, q_true=TRIANGLE_POTENTIAL)
    e_q = relative_error(result.q_star, TRIANGLE_POTENTIAL, spec.mesh)
    return result, e_q


def test_01_smooth_rate_slopes_for_all_orders(smooth_rate_table):
    """Fitted log-log slope of e_q vs delta stays in [0.23, 0.43] per order."""
    for alpha in ALL_ALPHAS:
        slope = smooth_rate_table.slopes[alpha]
        assert 0.23 <= slope <= 0.43, f"alpha={alpha}: slope {slope:.4f} outside [0.23, 0.43]"


def test_02_indicator_potential_degrades_the_rate(smooth_rate_table):
    """The discontinuous potential's slope trails the smooth one by >= 0.05."""
    indicator = rate_sweep(
        benchmark_problem_1d(seed=0), INDICATOR_POTENTIAL, SWEEP_DELTAS, [0.5]
    )
    gap = smooth_rate_table.slopes[0.5] - indicator.slopes[0.5]
    assert gap >= 0.05, (
        f"slope gap {gap:.4f} < 0.05 "
        f"(smooth {smooth_rate_table.slopes[0.5]:.4f}, indicator {indicator.slopes[0.5]:.4f})"
    )


def test_03_iteration_errors_plateau_in_band():
    """e_k decays geometrically, then plateaus within [3e-3, 2.4e-2]."""
    q0 = parse_field_expr("4+x*(1-x)/5")
    for alpha in ALL_ALPHAS:
        spec = benchmark_problem_1d(alpha=alpha, T=2.0, cells=1000, num_steps=100, seed=0)
        obs = make_observation(spec, TRIANGLE_POTENTIAL, 1, 1e-6, fine_step_factor=20)
        errors = list(reconstruct(spec, obs, q_true=TRIANGLE_POTENTIAL, q0=q0).errors_vs_truth)
        head = errors[: min(5, len(errors) - 1)]
        ratios = [b / a for a, b in zip(head, head[1:])]
        assert all(r < 0.9 for r in ratios), f"alpha={alpha}: early decay not geometric {ratios}"
        plateau = errors[-1]
        assert 3e-3 <= plateau <= 2.4e-2, (
            f"alpha={alpha}: plateau {plateau:.4e} outside [3e-3, 2.4e-2]"
        )


def test_04_fast_convergence_at_unit_terminal_time(unit_time_run):
    """T=1, delta=1e-3, h=0.1, tau=0.01 hits the 1e-10 tolerance in <= 30 steps."""
    result, _ = unit_time_run
    assert result.converged
    assert result.iterations <= 30, f"took {result.iterations} iterations"


def test_05_small_terminal_time_degrades_the_reconstruction(unit_time_run):
    """T=1e-4 blows up both the error (>= 5x the T=1 value) and the iteration count (> 1e3)."""
    _, e_q_unit = unit_time_run
    spec = benchmark_problem_1d(
        alpha=0.5, T=1e-4, cells=100, num_steps=100, max_iter=2500, seed=0
    )
    obs = make_observation(spec, TRIANGLE_POTENTIAL, 10, 1e-3, fine_step_factor=10)
    result = reconstruct(spec, obs, q_true=TRIANGLE_POTENTIAL)
    e_q = relative_error(result.q_star, TRIANGLE_POTENTIAL, spec.mesh)
    assert result.iterations > 1000, (
        f"converged after {result.iterations} iterations (needed > 1000)"
    )
    assert e_q >= 5.0 * e_q_unit, (
        f"e_q ratio {e_q / e_q_unit:.2f} < 5 (T=1e-4: {e_q:.4e}, T=1: {e_q_unit:.4e})"
    )


def test_06_forward_solver_self_convergence_orders():
    """Temporal order 1.0 +- 0.15 and spatial order 2.0 +- 0.2 for alpha in {0.5, 1}."""
    for alpha in (0.5, 1.0):
        base = benchmark_problem_1d(alpha=alpha, cells=50, num_steps=800)
        q = interpolate_nodal(SMOOTH_POTENTIAL, base.mesh)
        ref = solve_forward(base, q).terminal
        errs, taus = [], []
        for N in (25, 50, 100):
            sol = solve_forward(replace(base, num_steps=N), q).terminal
            errs.append(mass_norm(sol.values - ref.values, base.mesh))
            taus.append(1.0 / N)
        temporal = float(np.polyfit(np.log(taus), np.log(errs), 1)[0])
        assert 0.85 <= temporal <= 1.15, f"alpha={alpha}: temporal order {temporal:.3f}"

        fine = benchmark_problem_1d(alpha=alpha, cells=640, num_steps=400)
        ref_sp = solve_forward(fine, interpolate_nodal(SMOOTH_POTENTIAL, fine.mesh)).terminal
        errs_h, hs = [], []
        for M in (20, 40, 80):
            spec = benchmark_problem_1d(alpha=alpha, cells=M, num_steps=400)
            sol = solve_forward(spec, interpolate_nodal(SMOOTH_POTENTIAL, spec.mesh)).terminal
            coarse_ref = restrict_to_mesh(ref_sp, spec.mesh)
            errs_h.append(mass_norm(sol.values - coarse_ref.values, spec.mesh))
            hs.append(10.0 / M)
        spatial = float(np.polyfit(np.log(hs), np.log(errs_h), 1)[0])
        assert 1.8 <= spatial <= 2.2, f"alpha={alpha}: spatial order {spatial:.3f}"


def test_07_quadrature_weights_match_the_gamma_formula():
    """Recurrence weights agree with Gamma(j-alpha)/(Gamma(-alpha)Gamma(j+1)) to 1e-12."""
    N = 1000
    for alpha in (0.25, 0.5, 0.75):
        computed = cq_weights(alpha, N)
        with mpmath.workdps(50):
            exact = np.array(
                [
                    float(mpmath.gamma(j - alpha) / (mpmath.gamma(-alpha) * mpmath.gamma(j + 1)))
                    for j in range(N + 1)
                ]
            )
        assert np.abs(computed - exact).max() <= 1e-12
    limit = cq_weights(1.0, 8)
    np.testing.assert_array_equal(limit, [1.0, -1.0] + [0.0] * 7)


def test_08_data_laplacian_error_trends():
    """Noise-free error decays at order >= 0.8 in h; noise response is linear in delta."""
    smooth = lambda x: np.sin(np.pi * x / 10.0) + 2.0
    laplacian = lambda x: -((np.pi / 10.0) ** 2) * np.sin(np.pi * x / 10.0)
    errs, hs = [], []
    for M in (20, 40, 80, 160):
        mesh = build_mesh((0.0, 10.0), M)
        psi = compute_psi_h(mesh, ObservationData(interpolate_nodal(smooth, mesh), np.zeros(2)))
        target = interpolate_nodal(laplacian, mesh)
        errs.append(mass_norm(psi.values - target.values, mesh))
        hs.append(10.0 / M)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    assert order >= 0.8, f"h-order {order:.3f} < 0.8"

    mesh = build_mesh((0.0, 10.0), 100)
    clean = interpolate_nodal(smooth, mesh)
    target = interpolate_nodal(laplacian, mesh)
    deltas = [1e-4, 1e-3, 1e-2]
    noise_errs = []
    for i, delta in enumerate(deltas):
        rng = np.random.default_rng(i)
        values = clean.values.copy()
        values[mesh.interior_nodes] += delta * rng.standard_normal(mesh.interior_nodes.size)
        psi = compute_psi_h(mesh, ObservationData(NodalField(values, mesh), np.zeros(2)))
        noise_errs.append(mass_norm(psi.values - target.values, mesh))
    slope = float(np.polyfit(np.log(deltas), np.log(noise_errs), 1)[0])
    assert 0.7 <= slope <= 1.3, f"delta-slope {slope:.3f} outside [0.7, 1.3]"


def test_09_inverse_crime_run_is_consistent():
    """delta=0 data generated on the reconstruction grid gives e_q <= 2(h + tau)."""
    spec = benchmark_problem_1d(alpha=0.5, cells=200, num_steps=200)
    obs = make_observation(spec, SMOOTH_POTENTIAL, 1, 0.0, fine_step_factor=1)
    result = reconstruct(spec, obs)
    e_q = relative_error(result.q_star, SMOOTH_POTENTIAL, spec.mesh)
    bound = 2.0 * (spec.mesh.h + spec.tau)
    assert result.converged
    assert e_q <= bound, f"e_q {e_q:.4e} > {bound:.4e}"


def test_10_two_dimensional_recovery():
    """2D sweep at delta in {1e-2, 1e-3}: errors decrease, final e_q < 0.1, <= 10 min."""
    start = time.perf_counter()
    table = rate_sweep(
        benchmark_problem_2d(alpha=0.5, seed=0),
        SMOOTH_POTENTIAL_2D,
        [1e-2, 1e-3],
        [0.5],
        fine_factor=6,
        fine_step_factor=6,
    )
    elapsed = time.perf_counter() - start
    coarse, fine = table.rows
    assert fine.e_q < coarse.e_q, f"e_q did not decrease: {coarse.e_q:.4f} -> {fine.e_q:.4f}"
    assert fine.e_q < 0.1, f"e_q at delta=1e-3 is {fine.e_q:.4f}"
    assert elapsed <= 600.0, f"sweep took {elapsed:.0f}s"
