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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class ExprError(ValueError):
    """Parse or evaluation error, annotated with a byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


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

_BINOPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/^(),":
            tokens.append(Token(ch, ch, pos))
            pos += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            tokens.append(Token("number", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME.match(text, pos)
        if m:
            tokens.append(Token("name", m.group(), pos))
            pos = m.end()
            continue
        raise ExprError(f"unexpected character {ch!r}", pos)
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.position)
        return self.advance()

    def parse(self):
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprError(f"unexpected trailing input {tail.text!r}", tail.position)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            self.advance()
            if tok.text == "pi":
                return Num(float(np.pi))
            if tok.text in ("x", "y"):
                return Var(tok.text)
            if tok.text in _FUNCTIONS:
                _, arity = _FUNCTIONS[tok.text]
                self.expect("(")
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != arity:
                    raise ExprError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}", tok.position
                    )
                return Call(tok.text, tuple(args))
            raise ExprError(f"unknown identifier {tok.text!r}", tok.position)
        raise ExprError(f"expected a value, found {tok.text or 'end of input'!r}", tok.position)


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise ExprError(f"variable {node.name!r} is not available here", 0)
        return env[node.name]
    if isinstance(node, Neg):
        return np.negative(_eval(node.arg, env))
    if isinstance(node, BinOp):
        return _BINOPS[node.op](_eval(node.left, env), _eval(node.right, env))
    func, _ = _FUNCTIONS[node.func]
    return func(*(_eval(arg, env) for arg in node.args))


@dataclass(frozen=True)
class FieldExpr:
    """A parsed field expression, callable on node coordinate arrays.

    A call returns the raw result: a constant stays a scalar, and a non-finite
    value is returned as is.  fem.evaluate_at broadcasts and checks it.
    """

    source: str
    root: object

    def __call__(self, x, y=None):
        env = {"x": np.asarray(x, dtype=float)}
        if y is not None:
            env["y"] = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            return _eval(self.root, env)

    def __str__(self) -> str:
        return self.source


def parse_field_expr(text: str) -> FieldExpr:
    """Parse an expression; raises ExprError with a byte offset on bad input."""
    if not text or not text.strip():
        raise ExprError("empty expression", 0)
    return FieldExpr(text, _Parser(text).parse())
