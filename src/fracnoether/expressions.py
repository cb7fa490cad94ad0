"""Expression trees over intrinsic time, coordinates, and velocities.

Trees are immutable and built from a closed node set: real constants, the
variables ``theta`` / ``q0..q{n-1}`` / ``v0..v{n-1}``, the unary functions
``neg sin cos exp ln sqrt`` plus powers with a fixed real exponent, and the
binary operators ``+ - * /``.  The lowercase constructor helpers fold
constants and drop additive/multiplicative identities so that symbolic
derivatives stay compact, but no canonical simplification is attempted.
Whether a tree depends on a variable is decided by its nodes
(:func:`references`, :func:`depends_on_velocity`).

Nodes carry no evaluators.  One emitter turns trees into straight-line
Python source, with a ``math`` variant over floats and a numpy variant over
sample grids sharing the same domain rules, and each root is compiled once
on first use: ``e.evaluate(theta, q, v)`` is the raw compiled scalar
function, :func:`evaluate` and :func:`evaluate_on_grid` the checked entry
points, which refuse to return non-finite values.  :func:`compile_trees`
compiles several roots into one function with subtrees shared across them.
Callers that write their own function around emitted trees (the RK4 loop
of :mod:`fracnoether.integrators`) use the :class:`Emitter` directly,
naming the locals that hold each point's theta, coordinates and
velocities.
"""

from __future__ import annotations

import functools
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


class Expr:
    """Base node. Subclasses define diff and rendering; evaluation is compiled.

    The two slots cache the compiled scalar and grid evaluators of a tree
    that has been evaluated as a root.
    """

    __slots__ = ("_scalar_fn", "_grid_fn")

    def children(self) -> tuple["Expr", ...]:
        return ()

    @property
    def evaluate(self):
        """This tree compiled to ``f(theta, q, v) -> float``, built on first use.

        Domain violations raise :class:`EvalDomainError`; overflow raises
        ``OverflowError`` and non-finite results pass through, which the
        module-level :func:`evaluate` turns into domain errors.
        """
        return _compiled(self, grid=False)

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


# --------------------------------------------------------------------------
# Leaves


@dataclass(frozen=True, slots=True, eq=False)
class Const(Expr):
    value: float

    def diff(self, var):
        return Const(0.0)

    def _render(self):
        return format(self.value, "g")


@dataclass(frozen=True, slots=True, eq=False)
class Theta(Expr):
    def diff(self, var):
        return Const(1.0 if isinstance(var, Theta) else 0.0)

    def _render(self):
        return "theta"


@dataclass(frozen=True, slots=True, eq=False)
class Q(Expr):
    index: int

    def diff(self, var):
        return Const(1.0 if isinstance(var, Q) and var.index == self.index else 0.0)

    def _render(self):
        return f"q{self.index}"


@dataclass(frozen=True, slots=True, eq=False)
class V(Expr):
    index: int

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

    def diff(self, var):
        return neg(self.arg.diff(var))

    def _render(self):
        return f"-{self._wrap(self.arg)}"


@dataclass(frozen=True, slots=True, eq=False)
class Sin(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def diff(self, var):
        return mul(cos(self.arg), self.arg.diff(var))

    def _render(self):
        return f"sin({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Cos(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def diff(self, var):
        return mul(neg(sin(self.arg)), self.arg.diff(var))

    def _render(self):
        return f"cos({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Exp(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def diff(self, var):
        return mul(Exp(self.arg), self.arg.diff(var))

    def _render(self):
        return f"exp({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Ln(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

    def diff(self, var):
        return div(self.arg.diff(var), self.arg)

    def _render(self):
        return f"ln({self.arg._render()})"


@dataclass(frozen=True, slots=True, eq=False)
class Sqrt(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)

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
# Compilation

# Domain rule of each guarded node: the test that flags a bad argument (the
# denominator for Div), the message, and for scalar messages the text put
# before the offending value (None: the value is not shown).
_GUARDS = {
    Ln: ("<= 0.0", "ln of non-positive value", " "),
    Sqrt: ("< 0.0", "sqrt of negative value", " "),
    Pow: ("<= 0.0", "power with real exponent needs a positive base", ", got "),
    Div: ("== 0.0", "division by zero", None),
}
_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_CALLS = {Sin: "_sin", Cos: "_cos", Exp: "_exp", Ln: "_log", Sqrt: "_sqrt", Pow: "_pow"}
_MATH = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp, "_log": math.log,
         "_sqrt": math.sqrt, "_pow": math.pow}
_NUMPY = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_log": np.log,
          "_sqrt": np.sqrt, "_pow": np.power, "_any": np.any}


class Emitter:
    """Straight-line Python source for expression trees.

    :meth:`emit` appends the statements that compute a tree and returns the
    local name holding its value.  Nodes are emitted post-order in the
    order the tree walk evaluates them (``Div`` takes its denominator
    first), each domain check inline before its node.  Structurally equal
    subtrees, across every tree emitted at one point, are computed once
    and reused, so the first domain violation raised is the one a
    node-by-node walk would meet.  Constants and functions are bound by
    name in the namespace, never written into the source.

    ``grid=False`` emits the ``math`` variant over floats and sequences of
    coordinates; ``grid=True`` the numpy variant over samples (theta of
    shape (m,), q and v of shape (m, n)).  :meth:`function` compiles
    everything emitted into ``f(theta, q, v)``.

    A scalar emitter can also emit at points held in named locals
    (:meth:`at`), for callers that write their own function around the
    statements (the RK4 loop of :mod:`fracnoether.integrators`): they add
    their statements with :meth:`line`, take the whole body with
    :meth:`body` and compile with :meth:`define`.  Statements of their own
    name constants through :meth:`bind` and working locals through
    :meth:`fresh` (the linear solve of :func:`fracnoether.linsolve.emit_solve`).
    """

    def __init__(self, grid: bool = False):
        self.grid = grid
        self._lines: list[str] = []
        self._count = 0
        self._namespace = dict(
            _NUMPY if grid else _MATH,
            _EvalDomainError=EvalDomainError,
            _beyond=_raise_beyond,
        )
        self._bound: dict[tuple, str] = {}
        self._numbers: dict[tuple, int] = {}
        self._ids: dict[int, tuple[Expr, int]] = {}  # pins each numbered node
        self._point: tuple | None = None  # None: leaves load from theta, q, v
        self._emitted: dict[int, str] = {}
        self._points: dict[tuple, dict[int, str]] = {}
        self._leaves: list[tuple[str, int]] = []  # q/v loads in emission order

    def at(self, theta: str, q: Sequence[str], v: Sequence[str]) -> None:
        """Emit what follows at the point held in the named scalar locals.

        Value numbers are structural and kept, but the computed values are
        per point: a subtree is reused only from an earlier emission at the
        same point.  Returning to a point reuses what was computed there.
        A load beyond the named coordinates raises the
        :class:`ExpressionError` a compiled evaluator raises for it.
        """
        self._point = (theta, tuple(q), tuple(v))
        self._emitted = self._points.setdefault(self._point, {})

    def bind(self, value: float) -> str:
        """Namespace name of a constant; equal values (by repr) share one name."""
        key = (type(value), repr(value))
        name = self._bound.get(key)
        if name is None:
            name = self._bound[key] = f"_k{len(self._bound)}"
            self._namespace[name] = value
        return name

    def fresh(self) -> str:
        """A local name no statement has assigned yet."""
        self._count += 1
        return f"t{self._count - 1}"

    def _let(self, source: str) -> str:
        name = self.fresh()
        self._lines.append(f"{name} = {source}")
        return name

    def line(self, statement: str) -> None:
        """Append a statement of the caller's own, in emission order."""
        self._lines.append(statement)

    def emit(self, e: Expr) -> str:
        """Append the statements computing ``e``; return the name holding its value."""
        number = self._number(e)
        name = self._emitted.get(number)
        if name is not None:
            return name
        kind = type(e)
        if kind is Const:
            name = self.bind(e.value)
        elif kind is Theta:
            name = "theta" if self._point is None else self._point[0]
        elif kind is Q or kind is V:
            name = self._leaf("q" if kind is Q else "v", e.index)
        elif kind is Neg:
            name = self._let(f"-{self.emit(e.arg)}")
        elif kind is Div:
            den = self.emit(e.b)
            if not (type(e.b) is Const and e.b.value != 0.0):  # else it never trips
                self._guard(kind, den)
            name = self._let(f"{self.emit(e.a)} / {den}")
        elif kind in _INFIX:
            a = self.emit(e.a)
            name = self._let(f"{a} {_INFIX[kind]} {self.emit(e.b)}")
        elif kind in _CALLS:
            x = self.emit(e.children()[0])
            self._guard(kind, x)
            args = f"{x}, {self.bind(e.exponent)}" if kind is Pow else x
            name = self._let(f"{_CALLS[kind]}({args})")
        else:
            raise ExpressionError(f"cannot compile node type {kind.__name__}")
        self._emitted[number] = name
        return name

    def _leaf(self, letter: str, index: int) -> str:
        if self._point is None:
            self._leaves.append((letter, index))
            return self._let(f"{letter}[:, {index}]" if self.grid else f"{letter}[{index}]")
        names = self._point[1 if letter == "q" else 2]
        if -len(names) <= index < len(names):
            return names[index]
        return self._let(f"_beyond({_beyond_message(letter, index, len(names))!r})")

    def body(self, indent: str) -> list[str]:
        """Every statement emitted so far, each prefixed by ``indent``."""
        return [indent + line for line in self._lines or ["pass"]]

    def define(self, source: Sequence[str], name: str, **names):
        """Compile ``source``, a function definition around :meth:`body`,
        and return the function ``name``.

        The constants and functions the statements use are bound in its
        namespace, and so are ``names``.
        """
        namespace = dict(self._namespace, **names)
        exec(compile("\n".join(source), f"<compiled {name}>", "exec"), namespace)
        return namespace[name]

    def function(self, result: str):
        """Compile the emitted statements into ``f(theta, q, v) -> result``."""
        source = [
            "def compiled(theta, q, v):",
            "    try:",
            *self.body("        "),
            "    except IndexError:",
            "        _out_of_range(q, v)",
            "        raise",
            f"    return {result}",
        ]
        out_of_range = functools.partial(_raise_out_of_range, tuple(self._leaves), self.grid)
        return self.define(source, "compiled", _out_of_range=out_of_range)

    def _number(self, e: Expr) -> int:
        """Value number of a node: equal for structurally equal subtrees."""
        hit = self._ids.get(id(e))
        if hit is not None:
            return hit[1]
        kind = type(e)
        if kind is Const or kind is Pow:
            x = e.value if kind is Const else e.exponent
            payload = (type(x), repr(x))
        else:
            payload = getattr(e, "index", None)
        key = (kind, payload, *map(self._number, e.children()))
        number = self._numbers.setdefault(key, len(self._numbers))
        self._ids[id(e)] = (e, number)
        return number

    def _guard(self, kind: type, x: str) -> None:
        rule = _GUARDS.get(kind)
        if rule is None:
            return
        test, message, shown = rule
        if self.grid:
            line = f"if _any({x} {test}): raise _EvalDomainError({message!r})"
        elif shown is None:
            line = f"if {x} {test}: raise _EvalDomainError({message!r})"
        else:
            line = f"if {x} {test}: raise _EvalDomainError({message + shown!r} + repr({x}))"
        self._lines.append(line)


def compile_trees(trees, grid: bool = False):
    """Compile a tree, or nested sequences of trees, into one ``f(theta, q, v)``.

    The function returns the values shaped like ``trees``, sequences as
    tuples.  Trees are emitted depth first in the given order, with
    structurally equal subtrees computed once across all of them, so the
    first domain error raised is the one evaluating the trees one after
    another would meet.  Values are raw, as from ``e.evaluate``: no
    finiteness check.
    """
    emitter = Emitter(grid)

    def emit(item) -> str:
        if isinstance(item, Expr):
            return emitter.emit(item)
        return "(" + "".join(f"{emit(x)}, " for x in item) + ")"

    return emitter.function(emit(trees))


def _beyond_message(letter: str, index: int, count: int) -> str:
    return f"variable {letter}{index} out of range for {count} degrees of freedom"


def _raise_beyond(message: str) -> None:
    raise ExpressionError(message)


def _raise_out_of_range(leaves, grid: bool, q, v) -> None:
    """Raise for the first q/v load, in emission order, beyond the given
    coordinates: the load whose IndexError stopped a compiled evaluator."""
    for letter, index in leaves:
        values = q if letter == "q" else v
        count = values.shape[1] if grid else len(values)
        if not -count <= index < count:
            raise ExpressionError(_beyond_message(letter, index, count)) from None


def _compiled(e: Expr, grid: bool):
    """The cached compiled evaluator of a root."""
    slot = "_grid_fn" if grid else "_scalar_fn"
    try:
        return getattr(e, slot)
    except AttributeError:
        fn = compile_trees(e, grid)
        object.__setattr__(e, slot, fn)
        return fn


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
    fn = _compiled(e, grid=True)
    with np.errstate(all="ignore"):
        out = fn(theta, q, v)
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
