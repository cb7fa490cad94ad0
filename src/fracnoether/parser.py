"""Infix expression text to trees, for :func:`fracnoether.expressions.parse`.

A recursive-descent parser over the grammar of the README: numbers and
``pi``, ``theta``, ``q{i}`` and ``v{i}``, ``+ - * /``, ``^`` with a
numeric-literal exponent, and the functions ``sin cos exp ln sqrt``.
Trees are built with the folding constructors of
:mod:`fracnoether.expressions`, on one node per variable of a text, so
that ``v0*v0`` differentiates as ``v0^2`` does: ``add`` folds a node
added to itself.  Their depth is bounded, since derivatives and the
emitter recurse along them.
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
    r"|(?P<op>[-+*/^()])"
)

# Deepest nesting and tree parse accepts.  The parser recurses five frames
# per parenthesis and the derivatives and the emitter about one per tree
# level, on trees that differentiation makes deeper still, so this keeps
# every recursion well inside Python's default limit of 1000 frames.
MAX_DEPTH = 100

_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln, "sqrt": sqrt}
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


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(source):
            if source[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(source, pos)
            if m is None:
                raise ParseError(f"unexpected character {source[pos]!r}", pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", len(self.source))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


class _Parser:
    def __init__(self, source: str, n: int | None):
        self.toks = _Tokenizer(source)
        self.n = n
        self.depth = 0
        self.leaves: dict[tuple, Expr] = {}  # (kind, index) -> the one node of a variable

    def leaf(self, kind: type, *index: int) -> Expr:
        return self.leaves.setdefault((kind, *index), kind(*index))

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.toks.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        if _deeper_than(e, MAX_DEPTH):
            raise ExpressionError(f"expression tree deeper than {MAX_DEPTH} levels")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "op" and text in "+-":
                self.toks.next()
                rhs = self.term()
                e = add(e, rhs) if text == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.toks.peek()
            if kind == "op" and text in "*/":
                self.toks.next()
                rhs = self.factor()
                e = mul(e, rhs) if text == "*" else div(e, rhs)
            else:
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
        kind, text, pos = self.toks.peek()
        if kind == "op" and text == "-":
            self.toks.next()
            return neg(self.nested(self.factor, pos))
        if kind == "op" and text == "+":
            self.toks.next()
            return self.nested(self.factor, pos)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.toks.peek()
        if kind == "op" and text == "^":
            self.toks.next()
            return power(base, self.exponent_literal())
        return base

    def exponent_literal(self) -> float:
        kind, text, pos = self.toks.next()
        parenthesized = kind == "op" and text == "("
        if parenthesized:
            kind, text, pos = self.toks.next()
        sign = 1.0
        if kind == "op" and text == "-":
            sign = -1.0
            kind, text, pos = self.toks.next()
        if kind != "num":
            raise ParseError("exponent must be a numeric literal", pos)
        value = sign * float(text)
        if parenthesized:
            kind, text, pos = self.toks.next()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')' after exponent", pos)
        return value

    def atom(self) -> Expr:
        kind, text, pos = self.toks.next()
        if kind == "num":
            return Const(float(text))
        if kind == "op" and text == "(":
            e = self.nested(self.expr, pos)
            kind, text, pos = self.toks.next()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            return e
        if kind == "name":
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
                kind, tok, pos2 = self.toks.next()
                if not (kind == "op" and tok == "("):
                    raise ParseError(f"expected '(' after {text}", pos2)
                arg = self.nested(self.expr, pos)
                kind, tok, pos2 = self.toks.next()
                if not (kind == "op" and tok == ")"):
                    raise ParseError(f"expected ')' closing {text}(...)", pos2)
                return _FUNCTIONS[text](arg)
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError("expected a number, variable, function, or '('", pos)


def parse(source: str, n: int | None = None) -> Expr:
    """Parse infix text into an expression tree.

    When ``n`` is given, any reference to ``q{i}``/``v{i}`` with ``i >= n``
    is rejected.  So is text nested more than :data:`MAX_DEPTH` levels deep
    (parentheses, function calls, signs) and a tree deeper than that
    (a sum of that many terms is one), since derivatives and the emitter
    recurse along the tree.
    """
    return _Parser(source, n).parse()
