"""Expression trees over intrinsic time, coordinates, and velocities.

Trees are immutable and built from a closed node set: real constants, the
variables ``theta`` / ``q0..q{n-1}`` / ``v0..v{n-1}``, the unary functions
``neg sin cos exp ln sqrt`` plus powers with a fixed real exponent, and the
binary operators ``+ - * /``.  The lowercase constructor helpers fold
constants and drop additive/multiplicative identities so that symbolic
derivatives stay compact, but no canonical simplification is attempted.
Whether a tree depends on a variable is decided by its nodes
(:func:`references`, :func:`depends_on_velocity`).

Evaluation comes in two flavours with identical domain rules: scalar
(:func:`evaluate`) and grid-vectorized (:func:`evaluate_on_grid`).  Both
refuse to return non-finite values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class ExpressionError(ValueError):
    """Malformed expression or unsupported construction."""


class ParseError(ExpressionError):
    """Syntax error in expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ArithmeticError):
    """Evaluation left the real domain (log of a non-positive value,
    division by zero, power of a non-positive base, or a non-finite
    result)."""


# Integer exponents up to this magnitude are expanded to repeated
# multiplication so that negative bases remain legal.
_MAX_EXPANDED_POWER = 16


@dataclass(frozen=True, slots=True, eq=False)
class Expr:
    """Base node. Subclasses define evaluate / evaluate_on / diff."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def evaluate(self, theta: float, q, v) -> float:
        raise NotImplementedError

    def evaluate_on(self, theta, q, v):
        raise NotImplementedError

    def diff(self, var: "Expr") -> "Expr":
        raise NotImplementedError

    _PREC = 9

    def _render(self) -> str:
        raise NotImplementedError

    def _wrap(self, child: "Expr") -> str:
        text = child._render()
        return f"({text})" if child._PREC < self._PREC else text

    def __str__(self) -> str:
        return self._render()

    def __repr__(self) -> str:
        return f"<Expr {self._render()}>"

    # Operator sugar builds through the folding constructors below.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return neg(self)


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


# --------------------------------------------------------------------------
# Leaves


@dataclass(frozen=True, slots=True, eq=False)
class Const(Expr):
    value: float

    def evaluate(self, theta, q, v):
        return self.value

    def evaluate_on(self, theta, q, v):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def _render(self):
        return format(self.value, "g")


@dataclass(frozen=True, slots=True, eq=False)
class Theta(Expr):
    def evaluate(self, theta, q, v):
        return theta

    def evaluate_on(self, theta, q, v):
        return theta

    def diff(self, var):
        return Const(1.0 if isinstance(var, Theta) else 0.0)

    def _render(self):
        return "theta"


@dataclass(frozen=True, slots=True, eq=False)
class Q(Expr):
    index: int

    def evaluate(self, theta, q, v):
        try:
            return q[self.index]
        except IndexError:
            raise ExpressionError(
                f"variable q{self.index} out of range for {len(q)} degrees of freedom"
            ) from None

    def evaluate_on(self, theta, q, v):
        if self.index >= q.shape[1]:
            raise ExpressionError(
                f"variable q{self.index} out of range for {q.shape[1]} degrees of freedom"
            )
        return q[:, self.index]

    def diff(self, var):
        return Const(1.0 if isinstance(var, Q) and var.index == self.index else 0.0)

    def _render(self):
        return f"q{self.index}"


@dataclass(frozen=True, slots=True, eq=False)
class V(Expr):
    index: int

    def evaluate(self, theta, q, v):
        try:
            return v[self.index]
        except IndexError:
            raise ExpressionError(
                f"variable v{self.index} out of range for {len(v)} degrees of freedom"
            ) from None

    def evaluate_on(self, theta, q, v):
        if self.index >= v.shape[1]:
            raise ExpressionError(
                f"variable v{self.index} out of range for {v.shape[1]} degrees of freedom"
            )
        return v[:, self.index]

    def diff(self, var):
        return Const(1.0 if isinstance(var, V) and var.index == self.index else 0.0)

    def _render(self):
        return f"v{self.index}"


# --------------------------------------------------------------------------
# Unary nodes


@dataclass(frozen=True, slots=True, eq=False)
class Neg(Expr):
    arg: Expr
    _PREC = 3

    def children(self):
        return (self.arg,)

    def evaluate(self, theta, q, v):
        return -self.arg.evaluate(theta, q, v)

    def evaluate_on(self, theta, q, v):
        return -self.arg.evaluate_on(theta, q, v)

    def diff(self, var):
        return neg(self.arg.diff(var))

    def _render(self):
        return f"-{self._wrap(self.arg)}"


@dataclass(frozen=True, slots=True, eq=False)
class Sin(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def evaluate(self, theta, q, v):
        return math.sin(self.arg.evaluate(theta, q, v))

    def evaluate_on(self, theta, q, v):
        return np.sin(self.arg.evaluate_on(theta, q, v))

    def diff(self, var):
        return mul(cos(self.arg), self.arg.diff(var))

    def _render(self):
        return f"sin({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Cos(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def evaluate(self, theta, q, v):
        return math.cos(self.arg.evaluate(theta, q, v))

    def evaluate_on(self, theta, q, v):
        return np.cos(self.arg.evaluate_on(theta, q, v))

    def diff(self, var):
        return mul(neg(sin(self.arg)), self.arg.diff(var))

    def _render(self):
        return f"cos({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Exp(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def evaluate(self, theta, q, v):
        return math.exp(self.arg.evaluate(theta, q, v))

    def evaluate_on(self, theta, q, v):
        return np.exp(self.arg.evaluate_on(theta, q, v))

    def diff(self, var):
        return mul(Exp(self.arg), self.arg.diff(var))

    def _render(self):
        return f"exp({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Ln(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def evaluate(self, theta, q, v):
        x = self.arg.evaluate(theta, q, v)
        if x <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {x!r}")
        return math.log(x)

    def evaluate_on(self, theta, q, v):
        x = self.arg.evaluate_on(theta, q, v)
        if np.any(np.asarray(x) <= 0.0):
            raise EvalDomainError("ln of non-positive value")
        return np.log(x)

    def diff(self, var):
        return div(self.arg.diff(var), self.arg)

    def _render(self):
        return f"ln({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Sqrt(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def evaluate(self, theta, q, v):
        x = self.arg.evaluate(theta, q, v)
        if x < 0.0:
            raise EvalDomainError(f"sqrt of negative value {x!r}")
        return math.sqrt(x)

    def evaluate_on(self, theta, q, v):
        x = self.arg.evaluate_on(theta, q, v)
        if np.any(np.asarray(x) < 0.0):
            raise EvalDomainError("sqrt of negative value")
        return np.sqrt(x)

    def diff(self, var):
        return div(self.arg.diff(var), mul(Const(2.0), Sqrt(self.arg)))

    def _render(self):
        return f"sqrt({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Pow(Expr):
    """Power with a fixed real exponent; the base must evaluate positive."""

    base: Expr
    exponent: float
    _PREC = 4

    def children(self):
        return (self.base,)

    def evaluate(self, theta, q, v):
        x = self.base.evaluate(theta, q, v)
        if x <= 0.0:
            raise EvalDomainError(
                f"power with real exponent needs a positive base, got {x!r}"
            )
        return math.pow(x, self.exponent)

    def evaluate_on(self, theta, q, v):
        x = self.base.evaluate_on(theta, q, v)
        if np.any(np.asarray(x) <= 0.0):
            raise EvalDomainError("power with real exponent needs a positive base")
        return np.power(x, self.exponent)

    def diff(self, var):
        # d(u^c) = c * u^(c-1) * u'
        return mul(
            mul(Const(self.exponent), power(self.base, self.exponent - 1.0)),
            self.base.diff(var),
        )

    def _render(self):
        c = self.exponent
        exp_text = format(c, "g") if c >= 0 else f"({format(c, 'g')})"
        return f"{self._wrap(self.base)}^{exp_text}"


# --------------------------------------------------------------------------
# Binary nodes


@dataclass(frozen=True, slots=True, eq=False)
class Add(Expr):
    a: Expr
    b: Expr
    _PREC = 1

    def children(self):
        return (self.a, self.b)

    def evaluate(self, theta, q, v):
        return self.a.evaluate(theta, q, v) + self.b.evaluate(theta, q, v)

    def evaluate_on(self, theta, q, v):
        return self.a.evaluate_on(theta, q, v) + self.b.evaluate_on(theta, q, v)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def _render(self):
        return f"{self._wrap(self.a)} + {self._wrap(self.b)}"


@dataclass(frozen=True, slots=True, eq=False)
class Sub(Expr):
    a: Expr
    b: Expr
    _PREC = 1

    def children(self):
        return (self.a, self.b)

    def evaluate(self, theta, q, v):
        return self.a.evaluate(theta, q, v) - self.b.evaluate(theta, q, v)

    def evaluate_on(self, theta, q, v):
        return self.a.evaluate_on(theta, q, v) - self.b.evaluate_on(theta, q, v)

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))

    def _render(self):
        # right operand needs parens at equal precedence: a - (b + c)
        right = self.b._render()
        if self.b._PREC <= self._PREC:
            right = f"({right})"
        return f"{self._wrap(self.a)} - {right}"


@dataclass(frozen=True, slots=True, eq=False)
class Mul(Expr):
    a: Expr
    b: Expr
    _PREC = 2

    def children(self):
        return (self.a, self.b)

    def evaluate(self, theta, q, v):
        return self.a.evaluate(theta, q, v) * self.b.evaluate(theta, q, v)

    def evaluate_on(self, theta, q, v):
        return self.a.evaluate_on(theta, q, v) * self.b.evaluate_on(theta, q, v)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def _render(self):
        return f"{self._wrap(self.a)} * {self._wrap(self.b)}"


@dataclass(frozen=True, slots=True, eq=False)
class Div(Expr):
    a: Expr
    b: Expr
    _PREC = 2

    def children(self):
        return (self.a, self.b)

    def evaluate(self, theta, q, v):
        den = self.b.evaluate(theta, q, v)
        if den == 0.0:
            raise EvalDomainError("division by zero")
        return self.a.evaluate(theta, q, v) / den

    def evaluate_on(self, theta, q, v):
        den = self.b.evaluate_on(theta, q, v)
        if np.any(np.asarray(den) == 0.0):
            raise EvalDomainError("division by zero")
        return self.a.evaluate_on(theta, q, v) / den

    def diff(self, var):
        # (a'b - ab') / b^2
        num = sub(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))
        return div(num, mul(self.b, self.b))

    def _render(self):
        right = self.b._render()
        if self.b._PREC <= self._PREC:
            right = f"({right})"
        return f"{self._wrap(self.a)} / {right}"


# --------------------------------------------------------------------------
# Folding constructors


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def sin(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(math.sin(a.value))
    return Sin(a)


def cos(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(math.cos(a.value))
    return Cos(a)


def exp(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(math.exp(a.value))
    return Exp(a)


def ln(a: Expr) -> Expr:
    if isinstance(a, Const) and a.value > 0.0:
        return Const(math.log(a.value))
    return Ln(a)


def sqrt(a: Expr) -> Expr:
    if isinstance(a, Const) and a.value >= 0.0:
        return Const(math.sqrt(a.value))
    return Sqrt(a)


def power(base: Expr, exponent: float) -> Expr:
    """Power node constructor.

    Small integer exponents expand to repeated multiplication (keeps
    negative bases legal); everything else becomes a real-exponent power
    restricted to positive bases at evaluation time.
    """
    c = float(exponent)
    if c == 0.0:
        return Const(1.0)
    if c == 1.0:
        return base
    if c.is_integer() and abs(c) <= _MAX_EXPANDED_POWER:
        k = int(abs(c))
        acc = base
        for _ in range(k - 1):
            acc = mul(acc, base)
        return div(Const(1.0), acc) if c < 0 else acc
    if isinstance(base, Const) and base.value > 0.0:
        return Const(math.pow(base.value, c))
    return Pow(base, c)


# --------------------------------------------------------------------------
# Points and top-level evaluation


@dataclass(frozen=True)
class EvalPoint:
    """A sample (theta, q, v); q and v share the degree-of-freedom count."""

    theta: float
    q: tuple
    v: tuple

    def __init__(self, theta: float, q: Sequence[float], v: Sequence[float]):
        q = tuple(float(x) for x in q)
        v = tuple(float(x) for x in v)
        if len(q) != len(v) or len(q) < 1:
            raise ValueError("q and v must have equal length n >= 1")
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return len(self.q)


def evaluate(e: Expr, point: EvalPoint) -> float:
    """Evaluate at a point; non-finite results raise instead of returning."""
    try:
        out = e.evaluate(point.theta, point.q, point.v)
    except OverflowError as exc:
        raise EvalDomainError("overflow during evaluation") from exc
    if not math.isfinite(out):
        raise EvalDomainError(f"non-finite evaluation result {out!r}")
    return out


def evaluate_on_grid(e: Expr, theta, q, v) -> np.ndarray:
    """Vectorized evaluation over m samples.

    theta: shape (m,); q, v: shape (m, n).  Domain rules match the scalar
    path; any non-finite entry raises.
    """
    theta = np.asarray(theta, dtype=float)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    with np.errstate(all="ignore"):
        out = e.evaluate_on(theta, q, v)
    out = np.broadcast_to(np.asarray(out, dtype=float), theta.shape).copy()
    if not np.isfinite(out).all():
        raise EvalDomainError("non-finite evaluation result on grid")
    return out


def diff(e: Expr, var: Expr) -> Expr:
    """Exact symbolic partial derivative with respect to one variable."""
    if not isinstance(var, (Theta, Q, V)):
        raise ExpressionError("differentiation variable must be theta, q_i, or v_i")
    return e.diff(var)


def walk(e: Expr) -> Iterator[Expr]:
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def max_coordinate_index(e: Expr) -> int:
    """Largest q/v index referenced, or -1 when coordinate-free."""
    top = -1
    for node in walk(e):
        if isinstance(node, (Q, V)):
            top = max(top, node.index)
    return top


def depends_on_velocity(e: Expr) -> bool:
    return any(isinstance(node, V) for node in walk(e))


def references(e: Expr, var: Expr) -> bool:
    """True when the tree contains the variable node ``var`` (theta, q_i or v_i)."""
    index = getattr(var, "index", None)
    return any(
        type(node) is type(var) and getattr(node, "index", None) == index
        for node in walk(e)
    )


# --------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln, "sqrt": sqrt}
_VAR_RE = re.compile(r"^([qv])(\d+)$")


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

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.toks.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing input {text!r}", pos)
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

    def factor(self) -> Expr:
        kind, text, _ = self.toks.peek()
        if kind == "op" and text == "-":
            self.toks.next()
            return neg(self.factor())
        if kind == "op" and text == "+":
            self.toks.next()
            return self.factor()
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
            e = self.expr()
            kind, text, pos = self.toks.next()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            return e
        if kind == "name":
            if text == "theta":
                return Theta()
            if text == "pi":
                return Const(math.pi)
            m = _VAR_RE.match(text)
            if m:
                index = int(m.group(2))
                if self.n is not None and index >= self.n:
                    raise ParseError(
                        f"variable index out of range: {text} with n = {self.n}", pos
                    )
                return Q(index) if m.group(1) == "q" else V(index)
            if text in _FUNCTIONS:
                kind, tok, pos2 = self.toks.next()
                if not (kind == "op" and tok == "("):
                    raise ParseError(f"expected '(' after {text}", pos2)
                arg = self.expr()
                kind, tok, pos2 = self.toks.next()
                if not (kind == "op" and tok == ")"):
                    raise ParseError(f"expected ')' closing {text}(...)", pos2)
                return _FUNCTIONS[text](arg)
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError("expected a number, variable, function, or '('", pos)


def parse(source: str, n: int | None = None) -> Expr:
    """Parse infix text into an expression tree.

    When ``n`` is given, any reference to ``q{i}``/``v{i}`` with ``i >= n``
    is rejected.
    """
    return _Parser(source, n).parse()
