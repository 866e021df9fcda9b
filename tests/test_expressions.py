"""Tests for the field expression language.

Grammar fixtures (precedence, associativity) are hand-evaluated; the
round-trip property prints a tree fully parenthesized with ``pretty`` below
and checks that the text re-parses to an identical tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracpot.expressions import (
    BinOp,
    Call,
    ExprError,
    Neg,
    Num,
    Var,
    parse_field_expr,
)


def ev(text, x=0.0, y=None):
    return parse_field_expr(text)(x, y)


def pretty(node) -> str:
    """Fully parenthesized text of a parse tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{pretty(node.arg)})"
    if isinstance(node, BinOp):
        return f"({pretty(node.left)}{node.op}{pretty(node.right)})"
    return f"{node.func}({','.join(pretty(a) for a in node.args)})"


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

    def test_pretty_fully_parenthesized(self):
        assert pretty(parse_field_expr("1+2*3").root) == "(1.0+(2.0*3.0))"
        assert pretty(parse_field_expr("-x^2").root) == "(-(x^2.0))"


def _ast_strategy():
    leaves = st.one_of(
        st.builds(Num, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        st.sampled_from([Var("x"), Var("y")]),
    )

    def extend(children):
        unary_call = st.builds(
            Call,
            st.sampled_from(["sin", "cos", "exp", "abs", "sqrt", "tri"]),
            st.tuples(children),
        )
        chi_call = st.builds(Call, st.just("chi"), st.tuples(children, children, children))
        binop = st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children)
        return st.one_of(st.builds(Neg, children), binop, unary_call, chi_call)

    return st.recursive(leaves, extend, max_leaves=12)


class TestRoundTrip:
    @settings(max_examples=100)
    @given(_ast_strategy())
    def test_pretty_reparses_to_identical_tree(self, root):
        text = pretty(root)
        reparsed = parse_field_expr(text)
        assert reparsed.root == root
        assert pretty(reparsed.root) == text

    def test_benchmark_sources_round_trip(self):
        for source in ["3+cos(0.6*pi*x)", "4-tri(x)", "4-chi(2,4,x)-chi(6,8,x)"]:
            expr = parse_field_expr(source)
            again = parse_field_expr(pretty(expr.root))
            assert again.root == expr.root
