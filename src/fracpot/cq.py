"""Convolution-quadrature weights for the backward Euler Caputo derivative.

The weights b_j are the coefficients of the power series (1 - xi)^alpha =
sum_j b_j xi^j.  They satisfy b_0 = 1, b_j = b_{j-1} * (j - 1 - alpha) / j,
and for alpha = 1 the sequence collapses to [1, -1, 0, 0, ...], recovering
the classical backward difference quotient.
"""

from __future__ import annotations

import numpy as np


def cq_weights(alpha: float, n_steps: int) -> np.ndarray:
    """Weights b_0..b_N of the backward Euler convolution quadrature."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    j = np.arange(1, n_steps + 1, dtype=float)
    w = np.empty(n_steps + 1)
    w[0] = 1.0
    np.cumprod((j - 1.0 - alpha) / j, out=w[1:])
    w += 0.0
    return w


def discrete_caputo(history, alpha: float, tau: float, n: int):
    """Discrete fractional derivative tau^{-alpha} sum_j b_j (u^{n-j} - u^0).

    `history` holds u^0..u^n (and possibly further entries) as rows; scalars
    per step are accepted as a 1D sequence.  The convolution is anchored at
    the initial value, so a constant history maps to zero.
    """
    hist = np.asarray(history, dtype=float)
    if not 0 <= n < hist.shape[0]:
        raise ValueError(f"step index {n} needs u^0..u^{n}, history holds {hist.shape[0]} states")
    w = cq_weights(alpha, max(n, 1))
    return w[n::-1] @ (hist[: n + 1] - hist[0]) * tau ** (-alpha)
