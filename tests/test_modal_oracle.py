"""Modal oracle of the forward march, independent of the code under test.

For a constant potential c, a constant boundary value beta and a constant
source f0, lifting the boundary (u = beta + w, w = 0 on the boundary) turns
the interior rows of the scheme into

    tau^-alpha M_ii sum_j b_j (w^{n-j} - w^0) + (S_ii + c M_ii) w^n = (f0 - c beta) M_i 1,

because S annihilates constants and the load of a constant is f0 M 1.  In the
generalized eigenbasis S_ii V = M_ii V diag(lambda), V^T M_ii V = I, every
mode y = V^T M_ii w follows the scalar recursion

    tau^-alpha sum_j b_j (y^{n-j} - y^0) + (lambda_k + c) y^n = g_k,   g = V^T (f0 - c beta) M_i 1.

M and S of the uniform Q1 grid are written down here (1D tridiagonal
stencils, Kronecker products in 2D), the weights b_j come from their own
recurrence, and the eigenbasis from scipy.linalg.eigh, dense, on at most 200
unknowns.  So the oracle runs no fracpot code.  One mode is checked against
the same recursion in 50-digit mpmath.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg

from fracpot.fem import build_mesh, interpolate_nodal
from fracpot.forward import ProblemSpec, solve_forward

C, BETA, F0 = 2.0, 1.0, 3.0
CELLS = {1: 100, 2: 14}  # 99 and 169 unknowns
NUM_STEPS, T = 20, 0.2
# The Jacobi-PCG march reads, over the six cases below, at most 1.3e-12 (1D,
# alpha 1) from the oracle in the terminal field, and at most 1.0e-10 (2D,
# alpha 1) in its derivative, where u^N - u^{N-1} cancels and 1/tau = 100
# scales the solver's error; 5e-13 and below for alpha < 1.  The oracle agrees
# with dbar^alpha y^N = g - (lambda + c) y^N to 8e-15.  A bound of about four
# times the reading each:
TERMINAL_BOUND, DERIVATIVE_BOUND = 5e-12, 5e-10


def weights(alpha, n_steps):
    """b_0..b_N of (1 - xi)^alpha, from b_j = b_{j-1} (j - 1 - alpha) / j."""
    b = [1.0]
    for j in range(1, n_steps + 1):
        b.append(b[-1] * (j - 1 - alpha) / j)
    return np.array(b)


def interior_operators(dim):
    """Dense M_ii, S_ii, M_i 1 and the interior nodes' coordinates of the Q1
    grid of CELLS[dim] cells per axis on (0, 1)^dim, nodes x fastest."""
    cells = CELLS[dim]
    h, n = 1.0 / cells, cells - 1
    ones, off = np.eye(n), np.eye(n, k=1) + np.eye(n, k=-1)
    mass, stiff = h / 6.0 * (4.0 * ones + off), (2.0 * ones - off) / h
    axis = h * np.arange(1, cells)
    if dim == 1:
        return mass, stiff, np.full(n, h), axis[:, None]
    xs, ys = np.meshgrid(axis, axis, indexing="xy")
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    stiff_2d = np.kron(stiff, mass) + np.kron(mass, stiff)
    return np.kron(mass, mass), stiff_2d, np.full(n * n, h * h), coords


def initial_lift(dim):
    """v - beta: zero on the boundary of (0, 1)^dim."""
    if dim == 1:
        return lambda x: np.sin(np.pi * x)
    return lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)


def spec_for(dim, alpha):
    lift = initial_lift(dim)
    return ProblemSpec(
        alpha=alpha,
        T=T,
        num_steps=NUM_STEPS,
        mesh=build_mesh((0.0, 1.0), CELLS[dim], dim),
        v_expr=lambda *xy: BETA + lift(*xy),
        b_expr=lambda *xy: BETA,
        f_expr=lambda *xy: F0,
        M1=5.0,
    )


def modes(dim):
    """lambda, V, g and y^0 of the lifted problem."""
    mass, stiff, mass_one, coords = interior_operators(dim)
    lam, vecs = scipy.linalg.eigh(stiff, mass)
    w0 = initial_lift(dim)(*coords.T)
    return lam, vecs, vecs.T @ ((F0 - C * BETA) * mass_one), vecs.T @ (mass @ w0)


def modal_march(lam, g, y0, alpha):
    """y^0..y^N of every mode from the scalar recursion, in float64."""
    b, scale = weights(alpha, NUM_STEPS), (T / NUM_STEPS) ** (-alpha)
    y = [y0]
    for n in range(1, NUM_STEPS + 1):
        past = sum(b[j] * (y[n - j] - y0) for j in range(1, n + 1)) - b[0] * y0
        y.append((g - scale * past) / (scale * b[0] + lam + C))
    return np.array(y)


def modal_oracle(dim, alpha):
    """Terminal field and dbar^alpha u^N at the interior nodes."""
    lam, vecs, g, y0 = modes(dim)
    y = modal_march(lam, g, y0, alpha)
    b, scale = weights(alpha, NUM_STEPS), (T / NUM_STEPS) ** (-alpha)
    frac = scale * sum(b[j] * (y[NUM_STEPS - j] - y0) for j in range(NUM_STEPS + 1))
    return BETA + vecs @ y[-1], vecs @ frac


def relative_distance(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_march_matches_the_modal_oracle(dim, alpha):
    spec = spec_for(dim, alpha)
    solution = solve_forward(spec, interpolate_nodal(lambda *xy: C, spec.mesh))
    terminal, frac = modal_oracle(dim, alpha)
    ii, bb = spec.mesh.interior_nodes, spec.mesh.boundary_nodes
    assert relative_distance(solution.terminal.values[ii], terminal) <= TERMINAL_BOUND
    assert relative_distance(solution.frac_deriv_terminal.values[ii], frac) <= DERIVATIVE_BOUND
    np.testing.assert_array_equal(solution.terminal.values[bb], BETA)
    np.testing.assert_array_equal(solution.frac_deriv_terminal.values[bb], 0.0)


def test_one_mode_matches_the_recursion_in_mpmath():
    alpha, k = 0.5, 3
    lam, _, g, y0 = modes(2)
    y = modal_march(lam, g, y0, alpha)[:, k]
    with mpmath.workdps(50):
        a, tau = mpmath.mpf(alpha), mpmath.mpf(T) / NUM_STEPS
        b = [mpmath.mpf(1)]
        for j in range(1, NUM_STEPS + 1):
            b.append(b[-1] * (j - 1 - a) / j)
        scale = tau ** (-a)
        exact = [mpmath.mpf(y0[k])]
        for n in range(1, NUM_STEPS + 1):
            past = sum(b[j] * (exact[n - j] - exact[0]) for j in range(1, n + 1)) - exact[0]
            exact.append((mpmath.mpf(g[k]) - scale * past) / (scale + mpmath.mpf(lam[k]) + C))
        exact = np.array([float(v) for v in exact])
    np.testing.assert_allclose(y, exact, rtol=1e-13, atol=0.0)
