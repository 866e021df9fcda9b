"""Closed-form oracle of the scheme's orders, independent of the code under test.

On (0, 1) with v = sin(pi x), b = f = 0 and the constant potential q = 1,
sin(pi x) is an eigenfunction of -Laplace + q with eigenvalue
lambda = pi^2 + 1, so the exact solution is

    u(x, t) = E_alpha(-lambda t^alpha) sin(pi x).

`mittag_leffler` sums the power series of E_alpha(-z) in mpmath, with the
working precision sized to its largest term, so the reference runs no fracpot
code.  The series is checked against E_1(-z) = exp(-z), against
E_{1/2}(-z) = exp(z^2) erfc(z), and at alpha = 0.3 against itself at 30, 60
and 150 digits and against its integral representation.  Where the terms
would peak more than ten times the working digits up, the integral is used
instead: E_0.3(-(pi^2 + 1)) has terms near 10^1233, and its series did not
finish in 150 s, where the integral takes a fraction of a second.  The
integral is checked against exp(z^2) erfc(z) up to z = 2 pi^2 + 1.

The max nodal error of the terminal field falls at order 1 in the time step
(backward-Euler convolution quadrature, Jin, Lazarov & Zhou, SIAM J. Sci.
Comput. 38, 2016) and at order 2 in the mesh width.

Measured errors, with the orders of successive pairs:
- alpha 1/2, T = 1.  Time, 200 cells, N = 25..200: 7.771e-4, 3.842e-4,
  1.906e-4, 9.460e-5 (1.02, 1.01, 1.01).  Space, 5, 10 and 20 cells,
  N = 3000: 1.426e-3, 3.749e-4, 8.926e-5 (1.93, 2.07).
- alpha 1, T = 0.1.  Time, 200 cells, N = 25..200: 7.828e-3, 3.944e-3,
  1.977e-3, 9.871e-4 (0.99, 1.00, 1.00); e_N * N reads 0.1957..0.1974 against
  the leading backward-Euler term (lambda^2 T^2 / 2) exp(-lambda T) = 0.1992.
  Space, 5, 10 and 20 cells, N = 10000: orders 1.93, 2.03.
- alpha 0.3, T = 0.1.  Time, 200 cells, N = 25..200: 8.482e-4, 4.205e-4,
  2.086e-4, 1.031e-4 (1.01, 1.01, 1.02).  Space, 10, 20 and 40 cells,
  N = 10000: orders 2.01, 2.04.
Other windows read worse: alpha 0.3 at 5, 10 and 20 cells gives 1.915, and
alpha 1 at 10, 20 and 40 cells gives 2.136, where the time error leaks in.

The same eigenfunction gives the reconstruction an exact answer.  With
v = 1 + sin(pi x), b = 1 and f = q = 1, the solution is
u(x, t) = 1 + E_alpha(-lambda t^alpha) sin(pi x), so the terminal data
g = 1 + E_alpha(-lambda) sin(pi x) at T = 1, with the boundary trace
q b - f = 0, must give back q = 1.  On (0, 1)^2 the same holds with
sin(pi x) sin(pi y) and lambda = 2 pi^2 + 1.  With tau = h^2 the relative
error of q_star falls at order 2 in h, at 10, 20 and 40 cells per axis:
- alpha 1/2, 1D: 1.479e-3, 3.717e-4, 9.304e-5 (1.99, 2.00), after 10, 10
  and 16 iterations;
- alpha 0.3, 1D: 2.741e-3, 6.880e-4, 1.722e-4 (1.99, 2.00), after 11
  iterations each;
- alpha 1/2, 2D: 1.140e-3, 2.884e-4, 7.229e-5 (1.98, 2.00), after 8, 8 and
  43 iterations; the 40^2 run wanders at the round-off floor (increments
  near 1e-11) and takes ~50 s, so it is an acceptance test.
With 100 cells and N = 10, 20, 40 and 80 time steps it falls at order 1 in
the time step:
- alpha 1/2: 1.5548e-2, 7.5534e-3, 3.7123e-3, 1.8291e-3 (1.04, 1.02, 1.02);
- alpha 0.3: 9.7001e-3, 4.7471e-3, 2.3344e-3, 1.1436e-3 (1.03, 1.02, 1.03).
Alpha 1 is left out: its errors 4.748e-3, 1.157e-3, 3.659e-4 and 1.415e-4
read orders 2.04, 1.66 and 1.37, and at N = 80 the iteration wanders at the
round-off floor (increments near 5e-11) and misses 1e-11 within 100
iterations.

Noise in the data enters the reconstruction through psi_h, whose interior
values are M^-1 S applied to the data.  On a uniform 1D grid the symbol of
that operator at frequency theta is 6 (1 - cos theta) / ((2 + cos theta) h^2),
whose RMS over theta in [0, pi] is exactly 6 / h^2, so white nodal noise of
size delta leaves noise of RMS ~6 delta / h^2 in psi_h, whatever the length
of the domain.  With smooth data plus delta N(0, 1) at the interior nodes
(seed 0, delta = 1e-6) the RMS of the change in psi_h times h^2 / delta reads
4.44, 5.62, 5.83, 5.99 and 5.82 at 50, 100, 200, 400 and 1000 cells, alike
at L = 1, 10 and 100; the fitted exponent of h is 2.08.

The reconstruction carries that noise into q_star.  With delta N(0, 1) added
at the interior nodes of the exact data above (alpha 1/2, T = 1, N = cells^2,
seeds 0, 1 and 2), the change ||q*_delta - q*_0||_M, in units of
delta / h^2, reads the same to 4 digits at delta = 1e-5 and 1e-6: the noise
term is linear in delta.  Per seed it reads 1.54, 2.44, 4.08 at 10 cells,
2.42, 2.19, 3.49 at 20, 2.54, 2.42, 3.57 at 30 and 2.40, 2.90, 3.46 at 40;
the seed means 2.69, 2.70, 2.85 and 2.92 give the change an exponent of h of
2.05 over 10-30 cells and 2.06 over 10-40.  The difference of the errors
e_q(delta) - e_q(0) is no measure of it: at 10 cells and delta = 1e-6 it
reads 1.1e-5 against a change of 1.5e-4.  The 40-cell column takes ~16 s,
so the test stops at 30 cells.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from fracpot.experiments import relative_error
from fracpot.expressions import parse_field_expr
from fracpot.fem import NodalField, build_mesh, interpolate_nodal, mass_norm
from fracpot.forward import ProblemSpec, solve_forward
from fracpot.inverse import ObservationData, compute_psi_h, reconstruct

ALPHA, T, C = 0.5, 1.0, 1.0
LAMBDA = math.pi**2 + C
ORDER_TOLERANCE = 0.1
SHORT_T = 0.1  # the final time of the alpha 1 and alpha 0.3 studies
STEPS = [25, 50, 100, 200]
NOISE = 1e-6  # delta of the data-noise study


def series_extent(alpha: float, z: float, digits: int) -> tuple[int, float]:
    """(count, peak): the series of E_alpha(-z) needs `count` terms to reach
    10^-(digits + 5) past its largest term, which is about 10^peak."""
    log10_z = math.log10(z)

    def log10_term(k):
        return k * log10_z - math.lgamma(alpha * k + 1.0) / math.log(10.0)

    count, peak = 0, 0.0
    while log10_term(count) >= min(peak - 1.0, -digits - 5.0):
        peak = max(peak, log10_term(count))
        count += 1
    return count, peak


def mittag_leffler_series(alpha: float, z: float, digits: int = 60) -> mpmath.mpf:
    """E_alpha(-z) for z > 0 to `digits` digits, from sum_k (-z)^k / Gamma(alpha k + 1).

    The terms grow to about 10^peak before they decay, so the alternating sum
    runs with digits + peak working digits, over every term down to
    10^-(digits + 5) past the peak.
    """
    count, peak = series_extent(alpha, z, digits)
    with mpmath.workdps(digits + math.ceil(peak) + 10):
        minus_z, a = -mpmath.mpf(z), mpmath.mpf(alpha)
        total = mpmath.fsum(minus_z**k / mpmath.gamma(a * k + 1) for k in range(count))
    with mpmath.workdps(digits):
        return +total


def mittag_leffler_integral(alpha: float, z: float, digits: int = 60) -> mpmath.mpf:
    """E_alpha(-z) for z > 0 and 0 < alpha < 1 to `digits` digits, from
    E_alpha(-z) = sin(alpha pi) / (alpha pi) int_0^inf exp(-(s z)^(1/alpha))
    / (s^2 + 2 s cos(alpha pi) + 1) ds, split where (s z)^(1/alpha) passes 1."""
    assert 0.0 < alpha < 1.0
    with mpmath.workdps(digits + 10):
        a, zz = mpmath.mpf(alpha), mpmath.mpf(z)
        cos_a = mpmath.cos(a * mpmath.pi)
        integral = mpmath.quad(
            lambda s: mpmath.exp(-((s * zz) ** (1 / a))) / (s**2 + 2 * s * cos_a + 1),
            [0, 1 / zz, mpmath.inf],
        )
        integral *= mpmath.sin(a * mpmath.pi) / (a * mpmath.pi)
    with mpmath.workdps(digits):
        return +integral


def mittag_leffler(alpha: float, z: float, digits: int = 60) -> mpmath.mpf:
    """E_alpha(-z) for z > 0 to `digits` digits: the series, unless its terms
    peak more than 10 * digits decimal orders up, where the cancelling sum
    would need thousands of working digits and the integral is used instead."""
    if series_extent(alpha, z, digits)[1] > 10 * digits:
        return mittag_leffler_integral(alpha, z, digits)
    return mittag_leffler_series(alpha, z, digits)


@functools.lru_cache(maxsize=None)
def exact_amplitude(alpha: float = ALPHA, final_time: float = T, dim: int = 1) -> float:
    """E_alpha(-lambda T^alpha), the amplitude at the final time of the
    eigenfunction sin(pi x), or of sin(pi x) sin(pi y) in 2D, where
    lambda = 2 pi^2 + 1."""
    return float(mittag_leffler(alpha, (dim * math.pi**2 + C) * final_time**alpha))


def terminal_error(cells: int, num_steps: int, alpha: float = ALPHA, final_time: float = T):
    """Max nodal error of the march's u^N against the exact u(T)."""
    mesh = build_mesh((0.0, 1.0), cells)
    spec = ProblemSpec(
        alpha=alpha,
        T=final_time,
        num_steps=num_steps,
        mesh=mesh,
        v_expr=parse_field_expr("sin(pi*x)"),
        b_expr=parse_field_expr("0"),
        f_expr=parse_field_expr("0"),
        M1=2.0 * C,
    )
    q = interpolate_nodal(parse_field_expr(str(C)), mesh)
    exact = exact_amplitude(alpha, final_time) * np.sin(math.pi * mesh.node_coords[:, 0])
    return float(np.abs(solve_forward(spec, q).terminal.values - exact).max())


def exact_data_reconstruction(
    cells: int,
    alpha: float = ALPHA,
    dim: int = 1,
    num_steps: int | None = None,
    noise: float = 0.0,
    seed: int = 0,
) -> NodalField:
    """q_star from the exact terminal data on `cells` cells per axis with
    `num_steps` time steps, cells^2 by default (T = 1), plus noise * N(0, 1)
    drawn from `seed` at the interior nodes, as make_observation adds it."""
    mesh = build_mesh((0.0, 1.0), cells, dim)
    mode = "sin(pi*x)" if dim == 1 else "sin(pi*x)*sin(pi*y)"
    spec = ProblemSpec(
        alpha=alpha,
        T=T,
        num_steps=cells**2 if num_steps is None else num_steps,
        mesh=mesh,
        v_expr=parse_field_expr(f"1+{mode}"),
        b_expr=parse_field_expr("1"),
        f_expr=parse_field_expr("1"),
        M1=2.0 * C,
        fp_tol=1e-11,
        max_iter=100,  # a run that wanders at the round-off floor fails fast
    )
    amplitude = exact_amplitude(alpha, T, dim)
    g = 1.0 + amplitude * np.prod(np.sin(math.pi * mesh.node_coords), axis=1)
    ii = mesh.interior_nodes
    g[ii] += noise * np.random.default_rng(seed).standard_normal(ii.size)
    obs = ObservationData(NodalField(g, mesh), np.zeros(mesh.boundary_nodes.shape))
    result = reconstruct(spec, obs)
    assert result.converged, result.increments[-5:]
    return result.q_star


def reconstruction_error(
    cells: int, alpha: float = ALPHA, dim: int = 1, num_steps: int | None = None
) -> float:
    """Relative error of q_star against q = 1, from the exact terminal data
    (no noise) on `cells` cells per axis with `num_steps` time steps."""
    q_star = exact_data_reconstruction(cells, alpha, dim, num_steps)
    return relative_error(q_star, parse_field_expr(str(C)), q_star.mesh)


def orders(errors, sizes) -> np.ndarray:
    """Observed orders log(e_k / e_{k+1}) / log(s_k / s_{k+1}) of successive pairs."""
    return np.diff(np.log(errors)) / np.diff(np.log(sizes))


def test_the_closed_form_matches_the_mittag_leffler_series():
    with mpmath.workdps(60):
        z = (mpmath.pi**2 + C) * mpmath.sqrt(T)
        closed = mpmath.exp(z**2) * mpmath.erfc(z)
        assert abs(mittag_leffler(ALPHA, z) - closed) <= mpmath.mpf(10) ** -55 * closed


@pytest.mark.parametrize("z", [0.5, LAMBDA * SHORT_T, LAMBDA])
def test_the_series_is_the_exponential_at_alpha_one(z):
    with mpmath.workdps(60):
        closed = mpmath.exp(-mpmath.mpf(z))
        assert abs(mittag_leffler(1.0, z) - closed) <= mpmath.mpf(10) ** -55 * closed


def test_the_series_at_alpha_0_3_keeps_its_value_at_every_precision():
    """At z = lambda 0.1^0.3 = 5.448 the terms peak near 10^120; the sum reads the
    same at 30, 60 and 150 digits, and so does the integral representation."""
    z = LAMBDA * SHORT_T**0.3
    values = [mittag_leffler_series(0.3, z, digits) for digits in (30, 60, 150)]
    integral = mittag_leffler_integral(0.3, z, 40)
    for value in values:
        assert mpmath.nstr(value, 20) == "0.1270168473536345591"
        assert abs(value - values[-1]) <= mpmath.mpf(10) ** -29
    assert abs(integral - values[-1]) <= mpmath.mpf(10) ** -25


@pytest.mark.parametrize("z", [0.5, LAMBDA, 2 * math.pi**2 + C])
def test_the_integral_is_the_closed_form_at_alpha_one_half(z):
    with mpmath.workdps(60):
        closed = mpmath.exp(mpmath.mpf(z) ** 2) * mpmath.erfc(mpmath.mpf(z))
        assert abs(mittag_leffler_integral(ALPHA, z) - closed) <= mpmath.mpf(10) ** -55 * closed


def test_the_integral_serves_where_the_series_peaks_far_above_the_precision():
    """At alpha 0.3 and z = lambda the series' terms peak near 10^1233, which
    took minutes to sum; the arguments of the other studies keep the series."""
    assert series_extent(0.3, LAMBDA, 60)[1] > 1200
    assert mittag_leffler(0.3, LAMBDA) == mittag_leffler_integral(0.3, LAMBDA)
    for alpha, z in [(0.3, LAMBDA * SHORT_T**0.3), (ALPHA, LAMBDA), (ALPHA, 2 * math.pi**2 + C),
                     (1.0, LAMBDA)]:
        assert series_extent(alpha, z, 60)[1] <= 600


def test_temporal_order_is_one():
    errors = [terminal_error(200, n) for n in STEPS]
    observed = orders(errors, [T / n for n in STEPS])
    assert np.all(np.abs(observed - 1.0) <= ORDER_TOLERANCE), (errors, observed)


def test_spatial_order_is_two():
    cells = [5, 10, 20]
    errors = [terminal_error(m, 3000) for m in cells]
    observed = orders(errors, [1.0 / m for m in cells])
    assert np.all(np.abs(observed - 2.0) <= ORDER_TOLERANCE), (errors, observed)


@pytest.mark.parametrize("alpha", [1.0, 0.3])
def test_temporal_order_is_one_at_a_short_final_time(alpha):
    errors = [terminal_error(200, n, alpha, SHORT_T) for n in STEPS]
    observed = orders(errors, [SHORT_T / n for n in STEPS])
    assert np.all(np.abs(observed - 1.0) <= ORDER_TOLERANCE), (errors, observed)


def test_backward_euler_errors_follow_their_leading_term_at_alpha_one():
    """At alpha 1 the scheme is backward Euler, whose error in exp(-lambda T)
    is (lambda^2 T^2 / 2) exp(-lambda T) / N to leading order."""
    leading = LAMBDA**2 * SHORT_T**2 / 2.0 * math.exp(-LAMBDA * SHORT_T)
    scaled = np.array([terminal_error(200, n, 1.0, SHORT_T) * n for n in STEPS])
    assert np.all(np.abs(scaled / leading - 1.0) <= 0.025), (scaled, leading)


@pytest.mark.parametrize("alpha, cells", [(1.0, [5, 10, 20]), (0.3, [10, 20, 40])])
def test_spatial_order_is_two_at_a_short_final_time(alpha, cells):
    errors = [terminal_error(m, 10_000, alpha, SHORT_T) for m in cells]
    observed = orders(errors, [1.0 / m for m in cells])
    assert np.all(np.abs(observed - 2.0) <= ORDER_TOLERANCE), (errors, observed)


@pytest.mark.parametrize(
    "alpha, dim",
    [(ALPHA, 1), (0.3, 1), pytest.param(ALPHA, 2, marks=pytest.mark.acceptance)],
    ids=["1d-0.5", "1d-0.3", "2d-0.5"],
)
def test_the_reconstruction_converges_at_order_two(alpha, dim):
    cells = [10, 20, 40]
    errors = [reconstruction_error(m, alpha, dim) for m in cells]
    observed = orders(errors, [1.0 / m for m in cells])
    assert np.all(np.abs(observed - 2.0) <= ORDER_TOLERANCE), (errors, observed)


@pytest.mark.parametrize("alpha", [ALPHA, 0.3])
def test_the_reconstruction_converges_at_order_one_in_time(alpha):
    steps = [10, 20, 40, 80]
    errors = [reconstruction_error(100, alpha, num_steps=n) for n in steps]
    observed = orders(errors, [T / n for n in steps])
    assert np.all(np.abs(observed - 1.0) <= ORDER_TOLERANCE), (errors, observed)


def data_laplacian_noise(cells: int, length: float = 1.0) -> tuple[float, float]:
    """(rms, h): the RMS over the interior nodes of psi_h(g + delta n) - psi_h(g)
    on `cells` cells of (0, length), for the smooth data
    g = 1 + sin(pi x / length) and noise n ~ N(0, 1) at the interior nodes (seed 0), as make_observation
    adds it."""
    mesh = build_mesh((0.0, length), cells)
    ii = mesh.interior_nodes
    clean = 1.0 + np.sin(math.pi * mesh.node_coords[:, 0] / length)
    noisy = clean.copy()
    noisy[ii] += NOISE * np.random.default_rng(0).standard_normal(ii.size)
    psi = [
        compute_psi_h(mesh, ObservationData(NodalField(g, mesh), np.zeros(2))).values[ii]
        for g in (noisy, clean)
    ]
    return float(np.sqrt(np.mean((psi[0] - psi[1]) ** 2))), mesh.h


def test_the_data_laplacian_amplifies_noise_at_order_two_in_h():
    rms, h = np.array([data_laplacian_noise(m) for m in [50, 100, 200, 400, 1000]]).T
    exponent = -np.polyfit(np.log(h), np.log(rms), 1)[0]
    assert 1.9 <= exponent <= 2.1, (rms, exponent)


def test_the_noise_constant_is_the_rms_of_the_symbol_on_fine_meshes():
    theta = np.linspace(0.0, math.pi, 100_001)
    symbol = 6.0 * (1.0 - np.cos(theta)) / (2.0 + np.cos(theta))
    assert np.sqrt(np.mean(symbol**2)) == pytest.approx(6.0, rel=1e-4)
    for cells in (400, 1000):
        rms, h = data_laplacian_noise(cells)
        assert rms * h**2 / NOISE == pytest.approx(6.0, rel=0.1), cells


@pytest.mark.parametrize("cells", [100, 1000])
def test_the_noise_constant_does_not_depend_on_the_domain_length(cells):
    (short, h_short), (long, h_long) = (data_laplacian_noise(cells, L) for L in (1.0, 10.0))
    assert long * h_long**2 == pytest.approx(short * h_short**2, rel=1e-6)


def test_the_reconstruction_noise_term_is_linear_in_delta_and_order_two_in_h():
    cells, deltas, seeds = [10, 20, 30], [1e-5, 1e-6], [0, 1, 2]
    gains = np.empty((len(cells), len(seeds), len(deltas)))  # the change in units of delta / h^2
    for i, m in enumerate(cells):
        clean = exact_data_reconstruction(m)
        for j, seed in enumerate(seeds):
            for k, delta in enumerate(deltas):
                noisy = exact_data_reconstruction(m, noise=delta, seed=seed)
                change = mass_norm(noisy.values - clean.values, clean.mesh)
                gains[i, j, k] = change * clean.mesh.h**2 / delta
    np.testing.assert_allclose(gains[..., 0], gains[..., 1], rtol=1e-4)
    h = 1.0 / np.array(cells)
    exponent = -np.polyfit(np.log(h), np.log(gains.mean(axis=1)[:, -1] / h**2), 1)[0]
    assert abs(exponent - 2.0) <= ORDER_TOLERANCE, (gains, exponent)
