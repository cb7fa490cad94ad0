"""Infix expression text to trees, for :func:`fracnoether.expressions.parse`.

A recursive-descent parser over the grammar of the README: numbers and
``pi``, ``theta``, ``q{i}`` and ``v{i}``, ``+ - * /``, ``^`` with a
numeric-literal exponent, and the functions ``sin cos exp ln sqrt``.
Trees are built with the folding constructors of
:mod:`fracnoether.expressions`, on one node per variable of a text, so
that ``v0*v0`` differentiates as ``v0^2`` does: ``add`` folds a node
added to itself.  Their depth is bounded, since derivatives and the
emitter recurse along them.

Every rule reads its ``(kind, text, position)`` tokens through two
helpers: ``accept(kinds)`` takes and returns the next token when its kind
is one of ``kinds``, else None, and ``expect(kinds, message)`` raises a
:class:`ParseError` at that token's position in place of None.  A kind is
``num``, ``name``, an operator's own character, or ``end``: the token at
``len(source)`` that closes every text.
"""

from __future__ import annotations

import math
import re

from .expressions import (
    Const,
    Expr,
    ExpressionError,
    ParseError,
    Q,
    Theta,
    V,
    add,
    cos,
    div,
    exp,
    ln,
    mul,
    neg,
    power,
    sin,
    sqrt,
    sub,
)

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|([-+*/^()])"  # no name: an operator is its own kind
)

# Deepest nesting and tree parse accepts.  The parser recurses six frames
# per parenthesis and the derivatives and the emitter about one per tree
# level, on trees that differentiation makes deeper still, so this keeps
# every recursion well inside Python's default limit of 1000 frames.
MAX_DEPTH = 100

_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln, "sqrt": sqrt}
_OPS = {"+": add, "-": sub, "*": mul, "/": div}
_VAR_RE = re.compile(r"^([qv])(\d+)$")


def _deeper_than(e: Expr, limit: int) -> bool:
    """Whether a root-to-leaf path of ``e`` has more than ``limit`` nodes;
    walked level by level, each level's shared subtrees once."""
    level = {id(e): e}
    for _ in range(limit):
        level = {id(c): c for node in level.values() for c in node.children()}
        if not level:
            return False
    return True


class _Parser:
    def __init__(self, source: str, n: int | None):
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(source):
            if source[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                raise ParseError(f"unexpected character {source[pos]!r}", pos)
            self.tokens.append((m.lastgroup or m.group(), m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(source)))
        self.i = 0
        self.n = n
        self.depth = 0
        self.leaves: dict[tuple, Expr] = {}  # (kind, index) -> the one node of a variable

    def accept(self, kinds: str | tuple[str, ...]) -> tuple[str, str, int] | None:
        """The next token, taken, when its kind is one of ``kinds``; else None."""
        tok = self.tokens[self.i]
        if tok[0] in kinds:
            self.i += 1
            return tok
        return None

    def expect(self, kinds: str | tuple[str, ...], message: str) -> tuple[str, str, int]:
        """:meth:`accept`, with a ParseError at the next token in place of None."""
        tok = self.accept(kinds)
        if tok is None:
            raise ParseError(message, self.tokens[self.i][2])
        return tok

    def leaf(self, kind: type, *index: int) -> Expr:
        return self.leaves.setdefault((kind, *index), kind(*index))

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        if _deeper_than(e, MAX_DEPTH):
            raise ExpressionError(f"expression tree deeper than {MAX_DEPTH} levels")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while op := self.accept("+-"):
            e = _OPS[op[0]](e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while op := self.accept("*/"):
            e = _OPS[op[0]](e, self.factor())
        return e

    def nested(self, parse, pos: int) -> Expr:
        """``parse()`` one level deeper; no level beyond MAX_DEPTH is entered."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        e = parse()
        self.depth -= 1
        return e

    def factor(self) -> Expr:
        sign = self.accept("+-")
        if sign is None:
            return self.power()
        e = self.nested(self.factor, sign[2])
        return neg(e) if sign[0] == "-" else e

    def power(self) -> Expr:
        base = self.atom()
        return power(base, self.exponent_literal()) if self.accept("^") else base

    def exponent_literal(self) -> float:
        parenthesized = self.accept("(")
        sign = -1.0 if self.accept("-") else 1.0
        _, text, _ = self.expect(("num",), "exponent must be a numeric literal")
        value = sign * float(text)
        if parenthesized:
            self.expect(")", "expected ')' after exponent")
        return value

    def atom(self) -> Expr:
        kind, text, pos = self.expect(
            ("num", "name", "("), "expected a number, variable, function, or '('"
        )
        if kind == "num":
            return Const(float(text))
        if kind == "(":
            e = self.nested(self.expr, pos)
            self.expect(")", "expected ')'")
            return e
        if text == "theta":
            return self.leaf(Theta)
        if text == "pi":
            return Const(math.pi)
        m = _VAR_RE.match(text)
        if m:
            index = int(m.group(2))
            if self.n is not None and index >= self.n:
                raise ParseError(
                    f"variable index out of range: {text} with n = {self.n}", pos
                )
            return self.leaf(Q if m.group(1) == "q" else V, index)
        if text in _FUNCTIONS:
            self.expect("(", f"expected '(' after {text}")
            arg = self.nested(self.expr, pos)
            self.expect(")", f"expected ')' closing {text}(...)")
            return _FUNCTIONS[text](arg)
        raise ParseError(f"unknown identifier {text!r}", pos)


def parse(source: str, n: int | None = None) -> Expr:
    """Parse infix text into an expression tree.

    When ``n`` is given, any reference to ``q{i}``/``v{i}`` with ``i >= n``
    is rejected.  So is text nested more than :data:`MAX_DEPTH` levels deep
    (parentheses, function calls, signs) and a tree deeper than that
    (a sum of that many terms is one), since derivatives and the emitter
    recurse along the tree.
    """
    return _Parser(source, n).parse()
