"""Tests for the convolution-quadrature weights and discrete derivative.

The recurrence route is checked against an independent oracle: the closed
form b_j = Gamma(j - alpha) / (Gamma(-alpha) * Gamma(j + 1)), evaluated in
50-digit arithmetic with mpmath.  Frozen low-order values below were
computed by hand from the recurrence (they are exact in binary).
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracpot.cq import cq_weights, discrete_caputo


def gamma_formula_weights(alpha: float, n_steps: int) -> np.ndarray:
    """Closed-form CQ weights via the Gamma function, 50-digit precision."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        denom = mpmath.gamma(-a)
        values = [mpmath.mpf(1)]
        for j in range(1, n_steps + 1):
            values.append(mpmath.gamma(j - a) / (denom * mpmath.gamma(j + 1)))
        return np.array([float(v) for v in values])


class TestWeights:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_recurrence_matches_gamma_formula(self, alpha):
        computed = cq_weights(alpha, 1000)
        oracle = gamma_formula_weights(alpha, 1000)
        assert np.max(np.abs(computed - oracle)) <= 1e-12

    def test_alpha_one_is_backward_difference(self):
        w = cq_weights(1.0, 8)
        np.testing.assert_array_equal(w, [1.0, -1.0, 0, 0, 0, 0, 0, 0, 0])
        assert not np.signbit(w[2:]).any()  # zeros carry a plus sign

    def test_frozen_half_order_values(self):
        w = cq_weights(0.5, 3)
        assert w.tolist() == [1.0, -0.5, -0.125, -0.0625]

    def test_first_weight_is_minus_alpha(self):
        for alpha in [0.1, 0.3, 0.9]:
            assert cq_weights(alpha, 1)[1] == pytest.approx(-alpha, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_partial_sums_nonnegative_and_decreasing(self, alpha):
        w = cq_weights(alpha, 200)
        sums = np.cumsum(w)
        assert (np.diff(sums) <= 0.0).all()
        if alpha < 1.0:
            assert (sums > 0.0).all()
        else:
            np.testing.assert_array_equal(sums[1:], 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0, "n_steps": 4},
            {"alpha": 1.2, "n_steps": 4},
            {"alpha": -0.5, "n_steps": 4},
            {"alpha": 0.5, "n_steps": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            cq_weights(**kwargs)


class TestDiscreteCaputo:
    def test_hand_convolution(self):
        # alpha=1/2, tau=1, history [0, 1, 2] at n=2:
        #   w = [1, -1/2, -1/8]; w[2::-1] @ hist = -1/8*0 - 1/2*1 + 1*2 = 3/2,
        #   and the anchor term vanishes because u^0 = 0.
        assert discrete_caputo([0.0, 1.0, 2.0], 0.5, 1.0, 2) == 1.5

    def test_tau_scaling(self):
        assert discrete_caputo([0.0, 1.0, 2.0], 0.5, 0.25, 2) == pytest.approx(3.0, abs=1e-15)

    def test_constant_history_maps_to_zero(self):
        history = np.full(13, 7.25)
        for n in range(13):
            assert discrete_caputo(history, 0.3, 0.1, n) == 0.0

    def test_vector_valued_history(self):
        history = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
        out = discrete_caputo(history, 0.5, 1.0, 2)
        np.testing.assert_allclose(out, [1.5, 0.0], atol=1e-15)

    def test_alpha_one_reduces_to_difference_quotient(self):
        rng = np.random.default_rng(3)
        history = rng.standard_normal((9, 4))
        tau = 0.05
        for n in range(1, 9):
            expected = (history[n] - history[n - 1]) / tau
            np.testing.assert_allclose(discrete_caputo(history, 1.0, tau, n), expected, atol=1e-12)

    def test_step_index_validation(self):
        with pytest.raises(ValueError, match="step index -1"):
            discrete_caputo(np.zeros(10), 0.5, 1.0, -1)
        with pytest.raises(ValueError, match="history holds 3 states"):
            discrete_caputo(np.zeros(3), 0.5, 1.0, 4)

    @given(
        alpha=st.floats(min_value=0.05, max_value=1.0),
        n=st.integers(min_value=1, max_value=20),
        scale=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_linearity(self, alpha, n, scale):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(n + 1)
        v = rng.standard_normal(n + 1)
        combined = discrete_caputo(u + scale * v, alpha, 0.5, n)
        separate = discrete_caputo(u, alpha, 0.5, n) + scale * discrete_caputo(v, alpha, 0.5, n)
        np.testing.assert_allclose(combined, separate, atol=1e-10)
