"""Closed-form oracle of the scheme's orders, independent of the code under test.

On (0, 1) with v = sin(pi x), b = f = 0 and the constant potential q = 1,
sin(pi x) is an eigenfunction of -Laplace + q with eigenvalue pi^2 + 1, so
the exact solution is

    u(x, t) = E_alpha(-(pi^2 + 1) t^alpha) sin(pi x).

At alpha = 1/2 the Mittag-Leffler function has the closed form
E_{1/2}(-z) = exp(z^2) erfc(z), evaluated here in 50-digit mpmath, so the
reference runs no fracpot code.  The max nodal error of the terminal field
then falls at order 1 in the time step (backward-Euler convolution quadrature,
Jin, Lazarov & Zhou, SIAM J. Sci. Comput. 38, 2016) and at order 2 in the
mesh width.

The errors read 7.771e-4, 3.842e-4, 1.906e-4 and 9.460e-5 in time (200 cells,
N = 25..200; orders 1.02, 1.01, 1.01) and 1.426e-3, 3.749e-4 and 8.926e-5 in
space (5, 10 and 20 cells, N = 3000; orders 1.93, 2.07).  200 cells stays
below the mesh size at which the CG's 1e-12 target stalls (300 cells).
"""

import math

import mpmath
import numpy as np
import pytest

from fracpot.expressions import parse_field_expr
from fracpot.fem import build_mesh, interpolate_nodal
from fracpot.forward import ProblemSpec, solve_forward

ALPHA, T, C = 0.5, 1.0, 1.0
ORDER_TOLERANCE = 0.1


def exact_amplitude() -> float:
    """E_{1/2}(-(pi^2 + c) T^{1/2}) = exp(z^2) erfc(z) at z = (pi^2 + c) T^{1/2}."""
    with mpmath.workdps(50):
        z = (mpmath.pi**2 + C) * mpmath.sqrt(T)
        return float(mpmath.exp(z**2) * mpmath.erfc(z))


def terminal_error(cells: int, num_steps: int) -> float:
    """Max nodal error of the march's u^N against the exact u(T)."""
    mesh = build_mesh((0.0, 1.0), cells)
    spec = ProblemSpec(
        alpha=ALPHA,
        T=T,
        num_steps=num_steps,
        mesh=mesh,
        v_expr=parse_field_expr("sin(pi*x)"),
        b_expr=parse_field_expr("0"),
        f_expr=parse_field_expr("0"),
        M1=2.0 * C,
    )
    q = interpolate_nodal(parse_field_expr(str(C)), mesh)
    exact = exact_amplitude() * np.sin(math.pi * mesh.node_coords[:, 0])
    return float(np.abs(solve_forward(spec, q).terminal.values - exact).max())


def orders(errors, sizes) -> np.ndarray:
    """Observed orders log(e_k / e_{k+1}) / log(s_k / s_{k+1}) of successive pairs."""
    return np.diff(np.log(errors)) / np.diff(np.log(sizes))


def test_the_closed_form_matches_the_mittag_leffler_series():
    z = (math.pi**2 + C) * math.sqrt(T)
    with mpmath.workdps(50):
        series = mpmath.nsum(lambda k: (-z) ** k / mpmath.gamma(ALPHA * k + 1), [0, mpmath.inf])
    assert exact_amplitude() == pytest.approx(float(series), rel=1e-12)


def test_temporal_order_is_one():
    steps = [25, 50, 100, 200]
    errors = [terminal_error(200, n) for n in steps]
    observed = orders(errors, [T / n for n in steps])
    assert np.all(np.abs(observed - 1.0) <= ORDER_TOLERANCE), (errors, observed)


def test_spatial_order_is_two():
    cells = [5, 10, 20]
    errors = [terminal_error(m, 3000) for m in cells]
    observed = orders(errors, [1.0 / m for m in cells])
    assert np.all(np.abs(observed - 2.0) <= ORDER_TOLERANCE), (errors, observed)
