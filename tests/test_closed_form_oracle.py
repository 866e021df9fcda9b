"""Closed-form oracle of the scheme's orders, independent of the code under test.

On (0, 1) with v = sin(pi x), b = f = 0 and the constant potential q = 1,
sin(pi x) is an eigenfunction of -Laplace + q with eigenvalue
lambda = pi^2 + 1, so the exact solution is

    u(x, t) = E_alpha(-lambda t^alpha) sin(pi x).

`mittag_leffler` sums the power series of E_alpha(-z) in mpmath, with the
working precision sized to its largest term, so the reference runs no fracpot
code.  The series is checked against E_1(-z) = exp(-z), against
E_{1/2}(-z) = exp(z^2) erfc(z), and at alpha = 0.3 against itself at 30, 60
and 150 digits and against its integral representation.  The max nodal error
of the terminal field then falls at order 1 in the time step (backward-Euler
convolution quadrature, Jin, Lazarov & Zhou, SIAM J. Sci. Comput. 38, 2016)
and at order 2 in the mesh width.

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
200 cells stays below the mesh size at which the CG's 1e-12 target stalls
(300 cells).
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from fracpot.expressions import parse_field_expr
from fracpot.fem import build_mesh, interpolate_nodal
from fracpot.forward import ProblemSpec, solve_forward

ALPHA, T, C = 0.5, 1.0, 1.0
LAMBDA = math.pi**2 + C
ORDER_TOLERANCE = 0.1
SHORT_T = 0.1  # the final time of the alpha 1 and alpha 0.3 studies
STEPS = [25, 50, 100, 200]


def mittag_leffler(alpha: float, z: float, digits: int = 60) -> mpmath.mpf:
    """E_alpha(-z) for z > 0 to `digits` digits, from sum_k (-z)^k / Gamma(alpha k + 1).

    The terms grow to about 10^peak before they decay, so the alternating sum
    runs with digits + peak working digits, over every term down to
    10^-(digits + 5) past the peak.
    """
    log10_z = math.log10(z)

    def log10_term(k):
        return k * log10_z - math.lgamma(alpha * k + 1.0) / math.log(10.0)

    count, peak = 0, 0.0
    while log10_term(count) >= min(peak - 1.0, -digits - 5.0):
        peak = max(peak, log10_term(count))
        count += 1
    with mpmath.workdps(digits + math.ceil(peak) + 10):
        minus_z, a = -mpmath.mpf(z), mpmath.mpf(alpha)
        total = mpmath.fsum(minus_z**k / mpmath.gamma(a * k + 1) for k in range(count))
    with mpmath.workdps(digits):
        return +total


@functools.lru_cache(maxsize=None)
def exact_amplitude(alpha: float = ALPHA, final_time: float = T) -> float:
    """E_alpha(-lambda T^alpha), the amplitude of sin(pi x) at the final time."""
    return float(mittag_leffler(alpha, LAMBDA * final_time**alpha))


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
    same at 30, 60 and 150 digits, and so does the integral representation
    E_alpha(-z) = sin(alpha pi) / (alpha pi) int_0^inf exp(-(s z)^(1/alpha))
    / (s^2 + 2 s cos(alpha pi) + 1) ds."""
    alpha, z = 0.3, LAMBDA * SHORT_T**0.3
    values = [mittag_leffler(alpha, z, digits) for digits in (30, 60, 150)]
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        cos_a = mpmath.cos(a * mpmath.pi)
        integral = mpmath.quad(
            lambda s: mpmath.exp(-((s * z) ** (1 / a))) / (s**2 + 2 * s * cos_a + 1),
            [0, 1 / mpmath.mpf(z), mpmath.inf],
        )
        integral *= mpmath.sin(a * mpmath.pi) / (a * mpmath.pi)
        for value in values:
            assert mpmath.nstr(value, 20) == "0.1270168473536345591"
            assert abs(value - values[-1]) <= mpmath.mpf(10) ** -29
        assert abs(integral - values[-1]) <= mpmath.mpf(10) ** -25


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
