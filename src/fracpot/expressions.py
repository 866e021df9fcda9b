"""Tiny expression language for spatial fields in configs and experiments.

Grammar, from tightest to loosest binding:

    atom  := NUMBER | 'pi' | 'x' | 'y' | NAME '(' expr (',' expr)* ')' | '(' expr ')'
    power := atom ['^' unary]
    unary := '-' unary | power
    term  := unary (('*' | '/') unary)*
    expr  := term (('+' | '-') term)*

'^' associates to the right and binds tighter than unary minus, so -x^2
parses as -(x^2).  Known functions: sin, cos, exp, abs, sqrt, tri (triangle
wave with period 2 and range [0, 1], zero at even integers) and chi(a, b, t)
(indicator of the closed interval [a, b]).

A parse compiles the text to one closure over numpy ufuncs:
parse_field_expr returns a FieldExpr that holds the source text and that
closure, and a call runs the closure on the coordinate arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class ExprError(ValueError):
    """Parse or evaluation error; a parse error carries the byte offset where
    it occurs, and an evaluation error has no position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at offset {position})")
        self.position = position


def _tri(t):
    return 1.0 - np.abs(np.mod(t, 2.0) - 1.0)


def _chi(a, b, t):
    return np.where((t >= a) & (t <= b), 1.0, 0.0)


_FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "exp": (np.exp, 1),
    "abs": (np.abs, 1),
    "sqrt": (np.sqrt, 1),
    "tri": (_tri, 1),
    "chi": (_chi, 3),
}

_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

# A number or a name; no other token starts with a digit, a '.', a letter or '_'.
_WORD = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, text, position), ending with an 'end' token."""
    tokens, pos = [], 0
    while pos < len(text):
        ch, m = text[pos], _WORD.match(text, pos)
        if m:
            tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        elif ch in "+-*/^(),":
            tokens.append((ch, ch, pos))
            pos += 1
        elif ch.isspace():
            pos += 1
        else:
            raise ExprError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


def _const(value: float):
    return lambda env: value


def _var(name: str):
    def read(env):
        if name not in env:
            raise ExprError(f"variable {name!r} is not available here")
        return env[name]

    return read


def _apply(func, *args):
    """The closure of func applied to its argument closures, run left to right."""
    return lambda env: func(*[arg(env) for arg in args])


class _Parser:
    """Recursive descent over the tokens; each rule returns the closure of its
    subexpression, a function of the variable environment."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> str:
        return self.tokens[self.index][0]

    def advance(self) -> tuple[str, str, int]:
        self.index += 1
        return self.tokens[self.index - 1]

    def expect(self, kind: str) -> None:
        found, text, position = self.advance()
        if found != kind:
            raise ExprError(f"expected {kind!r}, found {text or 'end of input'!r}", position)

    def parse(self):
        node = self.expr()
        kind, text, position = self.advance()
        if kind != "end":
            raise ExprError(f"unexpected trailing input {text!r}", position)
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            node = _apply(_BINOPS[self.advance()[0]], node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            node = _apply(_BINOPS[self.advance()[0]], node, self.unary())
        return node

    def unary(self):
        if self.peek() == "-":
            self.advance()
            return _apply(np.negative, self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.advance()
            node = _apply(np.power, node, self.unary())
        return node

    def atom(self):
        kind, text, position = self.advance()
        if kind == "number":
            return _const(float(text))
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "name":
            if text == "pi":
                return _const(float(np.pi))
            if text in ("x", "y"):
                return _var(text)
            if text in _FUNCTIONS:
                func, arity = _FUNCTIONS[text]
                self.expect("(")
                args = [self.expr()]
                while self.peek() == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != arity:
                    raise ExprError(f"{text} takes {arity} argument(s), got {len(args)}", position)
                return _apply(func, *args)
            raise ExprError(f"unknown identifier {text!r}", position)
        raise ExprError(f"expected a value, found {text or 'end of input'!r}", position)


@dataclass(frozen=True)
class FieldExpr:
    """A parsed field expression, callable on node coordinate arrays.

    Two parses of one text compare and hash equal: only the source takes part.
    A call returns the raw result: a constant stays a scalar, and a non-finite
    value is returned as is.  fem.evaluate_at broadcasts and checks it.  A
    call that nests past the interpreter's recursion limit is an ExprError.
    """

    source: str
    compiled: Callable = field(compare=False, repr=False)

    def __call__(self, x, y=None):
        env = {"x": np.asarray(x, dtype=float)}
        if y is not None:
            env["y"] = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            try:
                return self.compiled(env)
            except RecursionError:
                raise ExprError(f"{self.source[:20]!r}... nests too deeply to evaluate") from None

    def __str__(self) -> str:
        return self.source


def parse_field_expr(text: str) -> FieldExpr:
    """Parse an expression; raises ExprError with a byte offset on bad input,
    nesting deeper than the interpreter's recursion limit included."""
    if not text or not text.strip():
        raise ExprError("empty expression", 0)
    parser = _Parser(text)
    try:
        return FieldExpr(text, parser.parse())
    except RecursionError:
        position = parser.tokens[parser.index][2]
        raise ExprError("expression nests too deeply to parse", position) from None
