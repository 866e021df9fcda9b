"""Tests for the field expression language.

Grammar fixtures (precedence, associativity) are hand-evaluated; the oracle
property evaluates random expression text with Python's own parser, whose
``**`` has the grammar's ``^`` precedence and associativity.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracpot.expressions import ExprError, parse_field_expr


def ev(text, x=0.0, y=None):
    return parse_field_expr(text)(x, y)


class TestGrammar:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1+2*3", 7.0),
            ("(1+2)*3", 9.0),
            ("2-3-4", -5.0),
            ("6/3/2", 1.0),
            ("2^3^2", 512.0),  # right-associative power
            ("-2^2", -4.0),  # power binds tighter than unary minus
            ("2*3^2", 18.0),
            ("2*-3", -6.0),
            ("--4", 4.0),
            ("1e-3", 1.0e-3),
            (".5", 0.5),
            ("2.", 2.0),
            ("1.5e2", 150.0),
        ],
    )
    def test_arithmetic(self, text, expected):
        assert ev(text) == expected

    def test_pi_constant(self):
        assert ev("pi") == pytest.approx(np.pi, abs=0.0)
        assert ev("cos(pi)") == pytest.approx(-1.0)

    def test_variables(self):
        expr = parse_field_expr("x^2+1")
        assert expr(3.0) == 10.0
        np.testing.assert_allclose(expr(np.array([0.0, 1.0, 2.0])), [1.0, 2.0, 5.0])

    def test_functions(self):
        assert ev("sqrt(abs(-9))") == 3.0
        assert ev("exp(0)") == 1.0
        assert ev("sin(0)+cos(0)") == 1.0

    def test_whitespace_ignored(self):
        assert ev("  1 +  2 * 3 ") == 7.0


class TestErrors:
    @pytest.mark.parametrize(
        "text, position",
        [
            ("2+*3", 2),  # operator where a value is expected
            ("foo(3)", 0),  # unknown identifier
            ("sin(1,2)", 0),  # arity mismatch
            ("sin(", 4),  # unterminated call
            ("2)", 1),  # trailing input
            ("1+$", 2),  # unexpected character
        ],
    )
    def test_position_reported(self, text, position):
        with pytest.raises(ExprError) as err:
            parse_field_expr(text)
        assert err.value.position == position
        assert f"offset {position}" in str(err.value)

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_rejected(self, text):
        with pytest.raises(ExprError):
            parse_field_expr(text)

    def test_y_unavailable_in_1d(self):
        expr = parse_field_expr("y+1")
        with pytest.raises(ExprError, match="not available"):
            expr(np.array([0.0, 1.0]))


class TestBuiltins:
    def test_tri_fixed_points(self):
        assert ev("tri(0)") == 0.0
        assert ev("tri(1)") == 1.0
        assert ev("tri(0.5)") == 0.5
        assert ev("tri(-1)") == 1.0

    def test_tri_period_and_range(self):
        # Spec invariant: period 2 and range [0, 1] sampled on 1e4 points.
        t = np.linspace(-7.0, 13.0, 10_000)
        expr = parse_field_expr("tri(x)")
        vals = expr(t)
        np.testing.assert_allclose(expr(t + 2.0), vals, atol=1e-12)
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        even = expr(np.arange(-6.0, 7.0, 2.0))
        np.testing.assert_allclose(even, 0.0, atol=1e-12)

    def test_chi_closed_interval(self):
        expr = parse_field_expr("chi(2,4,x)")
        xs = np.array([1.999, 2.0, 3.0, 4.0, 4.001])
        np.testing.assert_array_equal(expr(xs), [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_chi_binary_valued(self):
        xs = np.linspace(0.0, 10.0, 10_000)
        vals = parse_field_expr("chi(2,4,x)+chi(6,8,x)")(xs)
        assert set(np.unique(vals)) <= {0.0, 1.0}


class TestCalling:
    def test_scalar_in_scalar_out(self):
        out = parse_field_expr("x+1")(2.0)
        assert isinstance(out, float) and out == 3.0

    def test_non_finite_result_is_returned_unchecked(self):
        # fem.evaluate_at checks field values; a call returns them as they are.
        with np.errstate(all="raise"):
            out = parse_field_expr("1/x")(np.array([0.0, 2.0]))
        np.testing.assert_array_equal(out, [np.inf, 0.5])

    def test_two_dimensional_broadcast(self):
        x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        y = np.linspace(0.0, 2.0, 12).reshape(3, 4)
        out = parse_field_expr("x*y+1")(x, y)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, x * y + 1.0)

    def test_str_is_source(self):
        assert str(parse_field_expr(" 1 + x ")) == " 1 + x "

    def test_two_parses_of_one_text_are_equal(self):
        first, second = parse_field_expr("3+cos(0.6*pi*x)"), parse_field_expr("3+cos(0.6*pi*x)")
        assert first == second and hash(first) == hash(second)
        assert first != parse_field_expr("3+cos(0.6*pi*x) ")


def _oracle_tri(t):
    return 1.0 - np.abs(np.mod(t, 2.0) - 1.0)


def _oracle_chi(a, b, t):
    return np.where((t >= a) & (t <= b), 1.0, 0.0)


def _expression_text(depth=4):
    """Expression text from literals, x, y and pi, with operators drawn most
    often (hypothesis favours the first branch of one_of and of sampled_from)."""
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6).map(repr),
        st.sampled_from(["x", "y", "pi"]),
    )
    if depth == 0:
        return leaves
    a = _expression_text(depth - 1)
    names = st.sampled_from(["sin", "cos", "exp", "abs", "sqrt", "tri"])
    return st.one_of(
        st.builds("{}{}{}".format, a, st.sampled_from("^-/*+"), a),
        st.builds("({}{}{})".format, a, st.sampled_from("^-/*+"), a),
        a.map("-{}".format),
        leaves,
        st.builds("{}({})".format, names, a),
        st.builds("chi({},{},{})".format, a, a, a),
    )


def _as_python(text):
    """The text as Python: '^' becomes '**', and each literal and pi becomes
    lit(literal), a float array the points' shape."""
    text = re.sub(r"\d[\d.]*(?:e[+-]\d+)?|\bpi\b", lambda m: f"lit({m[0]})", text)
    return text.replace("^", "**")


class TestPythonOracle:
    @settings(max_examples=200)
    @given(
        _expression_text(),
        st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=1, max_size=4),
    )
    @example("2^3^x", [(0.5, 0.0)])
    @example("-x^2-y^-2^x", [(1.5, -2.0)])
    @example("2-x-3/y/4*x", [(1.5, -2.0)])
    def test_value_equals_python_eval(self, text, points):
        # A numpy scalar's ** calls the C library's pow, while np.power may run
        # a vectorized pow (SVML on AVX-512) that differs in the last bit, so
        # every literal is an array and every Python operator is an array ufunc.
        x, y = (np.array(axis) for axis in zip(*points))
        names = {"x": x, "y": y, "pi": np.pi, "lit": lambda v: np.full(x.shape, v)}
        names.update(sin=np.sin, cos=np.cos, exp=np.exp, abs=np.abs, sqrt=np.sqrt)
        names.update(tri=_oracle_tri, chi=_oracle_chi)
        with np.errstate(all="ignore"):
            expected = eval(_as_python(text), {"__builtins__": {}}, names)
        got = np.broadcast_to(parse_field_expr(text)(x, y), x.shape)
        np.testing.assert_array_equal(got, expected)
