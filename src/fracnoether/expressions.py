"""Expression trees over intrinsic time, coordinates, and velocities.

Trees are immutable and built from a closed node set: real constants, the
variables ``theta`` / ``q0..q{n-1}`` / ``v0..v{n-1}``, the unary functions
``neg sin cos exp ln sqrt`` plus powers with a fixed real exponent, and the
binary operators ``+ - * /``.  Nodes of one shape share a private base
that holds their fields, children and rendering: ``_Coordinate`` for
``Q``/``V``, ``_Unary`` for ``Neg`` and the five functions, ``_Binary`` for
the four operators; each concrete node adds only its derivative rule and
its class constants.  The lowercase constructor helpers fold
constants, the functions with the table compiled functions call, and drop
additive/multiplicative identities so that symbolic derivatives stay
compact, but no canonical simplification is attempted.  They also fold
power-of-two factors, under one exactness rule: a fold scales only by a
power of two, and only where the constant it makes is a finite normal
float.  Scaling by a power of two commutes with rounding, so the folded
tree computes the same float as the unfolded one unless an intermediate
of either overflows or is subnormal.  ``x + x`` is ``2 * x``, ``c * (k *
x)`` in any operand order is ``(c*k) * x`` where c or k is a power of
two, ``(k * x) / 2^j`` is ``(k / 2^j) * x``, and the quotient rule over
a power of two ``b`` writes ``a' / b``; other constants keep their
trees, their factors in their order.  Infix text
becomes a tree through :func:`parse`, from :mod:`fracnoether.parser`.
Whether a tree depends on a variable is decided by its nodes
(:func:`references`, :func:`depends_on_velocity`).

Nodes carry no evaluators.  One emitter turns trees into straight-line
Python source over floats, and each root is emitted once on first use.
Constants are bound by name, never written into the source.  Every
constant and exponent of a tree is a slot of its shape, one per node,
known only by whether it is zero, so trees that differ only in
coefficients (the scenarios of one family, the alphas of a sweep) have
one shape, unless equal coefficients make two subtrees equal, and
:func:`shaped` emits and compiles each shape once, keeping its code
object with it, and binds every slot anew for every function it makes
from that code; :func:`structure` is that shape with the value in each
slot.  ``e.evaluate(theta, q, v)`` is the raw compiled function, and
:func:`evaluate_on_grid` (it, point by point) the checked entry point,
which refuses to return non-finite values; one point is a one-point
grid.  :func:`compile_trees` compiles
several roots into one function with subtrees shared across them.
Callers that write their own function around emitted trees (the RK4
loop of :mod:`fracnoether.integrators`) hand :func:`shaped` an emission
of their own, naming the locals that hold each point's theta,
coordinates and velocities.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Collection, Iterator, Mapping, Sequence

from .records import refuse_assignment


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
    result); the message is ``rule`` and then ``detail``, the value."""

    def __init__(self, rule: str, detail: str = ""):
        super().__init__(rule + detail)
        self.rule = rule


# Integer exponents up to this magnitude are expanded to repeated
# multiplication so that negative bases remain legal.
_MAX_EXPANDED_POWER = 16


def _value_key(x: float) -> tuple:
    """The identity of a constant or exponent: its type and repr (so 0.0
    and -0.0 stay apart, and every NaN is one value)."""
    return (type(x), repr(x))


class Expr:
    """Base node. Subclasses define ``_diff`` and rendering; evaluation is compiled.

    Every node class is slotted, immutable, and compared and hashed by
    identity.  The slot caches the compiled evaluator of a tree that has
    been evaluated as a root.
    """

    __slots__ = ("_scalar_fn",)
    __setattr__ = __delattr__ = refuse_assignment

    def children(self) -> tuple["Expr", ...]:
        return ()

    @property
    def evaluate(self):
        """This tree compiled to ``f(theta, q, v) -> float``, built on first use.

        Domain violations raise :class:`EvalDomainError`; overflow raises
        ``OverflowError``, ``sin`` or ``cos`` of an infinity ``ValueError``,
        and non-finite results pass through, all of which
        :func:`evaluate_on_grid` turns into domain errors.
        """
        try:
            return self._scalar_fn
        except AttributeError:
            fn = compile_trees(self)
            object.__setattr__(self, "_scalar_fn", fn)
            return fn

    def diff(self, var: "Expr") -> "Expr":
        """Exact symbolic partial derivative with respect to ``var``, which
        must be theta, q_i or v_i; a subtree shared within the tree is
        differentiated once, and its derivative shared in the result."""
        if not isinstance(var, (Theta, Q, V)):
            raise ExpressionError("differentiation variable must be theta, q_i, or v_i")
        memo: dict[int, Expr] = {}

        def d(e: Expr) -> Expr:
            out = memo.get(id(e))
            if out is None:
                out = memo[id(e)] = e._diff(var, d)
            return out

        return d(self)

    def _diff(self, var: "Expr", d) -> "Expr":
        """This node's derivative rule, with ``d(child)`` the derivative of a child."""
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


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)

    def _diff(self, var, d):
        return Const(0.0)

    def _render(self):
        return format(self.value, "g")


class Theta(Expr):
    __slots__ = ()

    def _diff(self, var, d):
        return Const(1.0 if isinstance(var, Theta) else 0.0)

    def _render(self):
        return "theta"


class _Coordinate(Expr):
    """A coordinate or velocity leaf, rendered ``{_LETTER}{index}``."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)

    def _diff(self, var, d):
        return Const(1.0 if isinstance(var, type(self)) and var.index == self.index else 0.0)

    def _render(self):
        return f"{self._LETTER}{self.index}"


class Q(_Coordinate):
    __slots__ = ()
    _LETTER = "q"


class V(_Coordinate):
    __slots__ = ()
    _LETTER = "v"


# --------------------------------------------------------------------------
# Unary nodes


class _Unary(Expr):
    """A function of one argument, rendered ``{_NAME}(arg)``."""

    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", arg)

    def children(self):
        return (self.arg,)

    def _render(self):
        return f"{self._NAME}({self.arg._render()})"


class Neg(_Unary):
    __slots__ = ()
    _PREC = 3

    def _diff(self, var, d):
        return neg(d(self.arg))

    def _render(self):
        return f"-{self._wrap(self.arg)}"


class Sin(_Unary):
    __slots__ = ()
    _NAME = "sin"

    def _diff(self, var, d):
        return mul(cos(self.arg), d(self.arg))


class Cos(_Unary):
    __slots__ = ()
    _NAME = "cos"

    def _diff(self, var, d):
        return mul(neg(sin(self.arg)), d(self.arg))


class Exp(_Unary):
    __slots__ = ()
    _NAME = "exp"

    def _diff(self, var, d):
        return mul(Exp(self.arg), d(self.arg))


class Ln(_Unary):
    __slots__ = ()
    _NAME = "ln"

    def _diff(self, var, d):
        return _quotient(d(self.arg), self.arg)


class Sqrt(_Unary):
    __slots__ = ()
    _NAME = "sqrt"

    def _diff(self, var, d):
        return _quotient(d(self.arg), mul(Const(2.0), Sqrt(self.arg)))


class Pow(Expr):
    """Power with a fixed real exponent; the base must evaluate positive."""

    __slots__ = ("base", "exponent")
    _PREC = 4

    def __init__(self, base: Expr, exponent: float):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def children(self):
        return (self.base,)

    def _diff(self, var, d):
        # d(u^c) = c * u^(c-1) * u'
        return mul(
            mul(Const(self.exponent), power(self.base, self.exponent - 1.0)),
            d(self.base),
        )

    def _render(self):
        c = self.exponent
        exp_text = format(c, "g") if c >= 0 else f"({format(c, 'g')})"
        return f"{self._wrap(self.base)}^{exp_text}"


# --------------------------------------------------------------------------
# Binary nodes


class _Binary(Expr):
    """An infix operator ``a {_OP} b``."""

    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def children(self):
        return (self.a, self.b)

    def _render(self):
        # a right operand of lower precedence takes parentheses, and for the
        # non-associative - and / one of equal precedence too: a - (b + c)
        right = self.b._render()
        if self.b._PREC < self._PREC + (self._OP in "-/"):
            right = f"({right})"
        return f"{self._wrap(self.a)} {self._OP} {right}"


class Add(_Binary):
    __slots__ = ()
    _OP = "+"
    _PREC = 1

    def _diff(self, var, d):
        return add(d(self.a), d(self.b))


class Sub(_Binary):
    __slots__ = ()
    _OP = "-"
    _PREC = 1

    def _diff(self, var, d):
        return sub(d(self.a), d(self.b))


class Mul(_Binary):
    __slots__ = ()
    _OP = "*"
    _PREC = 2

    def _diff(self, var, d):
        return add(mul(d(self.a), self.b), mul(self.a, d(self.b)))


class Div(_Binary):
    __slots__ = ()
    _OP = "/"
    _PREC = 2

    def _diff(self, var, d):
        """(a'b - ab') / b^2, or a' / b where b is a constant normal power
        of two: a'b / b^2 is then a' / b, the same float unless a'b
        overflows or is subnormal (the exactness rule of :func:`mul`)."""
        b = self.b
        if type(b) is Const and _power_of_two(b.value) and _normal(b.value):
            return _quotient(d(self.a), b)
        num = sub(mul(d(self.a), b), mul(self.a, d(b)))
        return _quotient(num, mul(b, b))


# --------------------------------------------------------------------------
# Folding constructors


def _quotient(num: Expr, den: Expr) -> Expr:
    """num / den in a derivative, zero for a constant zero num: the tree
    being differentiated keeps its own domain check."""
    return Const(0.0) if type(num) is Const and num.value == 0.0 else div(num, den)


def _power_of_two(x: float) -> bool:
    """Whether ``x`` is +-2^j: multiplying or dividing by it only shifts
    the exponent, so it commutes with rounding.  ``frexp`` returns 0, an
    infinity or a NaN as its own mantissa, never +-0.5."""
    return abs(math.frexp(x)[0]) == 0.5


def _normal(x: float) -> bool:
    return math.isfinite(x) and abs(x) >= sys.float_info.min


def _scaled(e: Expr) -> tuple[float, Expr] | None:
    """``(k, x)`` of a product ``k * x`` or ``x * k`` of a constant ``k``."""
    if type(e) is Mul:
        if type(e.a) is Const:
            return e.a.value, e.b
        if type(e.b) is Const:
            return e.b.value, e.a
    return None


def add(a: Expr, b: Expr) -> Expr:
    """``a + b``, folded: two constants add, a zero drops, and ``x + x`` is
    ``2 * x``, the same float for every x."""
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if a is b:
        return mul(Const(2.0), a)
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
    """``a * b``, folded: two constants multiply, a one drops, a zero
    makes zero, and ``c * (k * x)``, in any operand order, is
    ``(c*k) * x`` where c or k is a power of two and c*k a finite normal
    float.  Scaling by a power of two commutes with rounding, so the
    fold gives the same float unless an intermediate overflows or is
    subnormal; other constants keep their factors in their order."""
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
    c, other = (a, b) if type(a) is Const else (b, a)
    if type(c) is Const:
        inner = _scaled(other)
        if inner is not None:
            k, x = inner
            if (_power_of_two(c.value) or _power_of_two(k)) and _normal(c.value * k):
                return mul(Const(c.value * k), x)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    """``a / b``, folded: a one drops, two constants divide, and
    ``(k * x) / 2^j`` is ``(k / 2^j) * x`` where k / 2^j is a finite
    normal float, the same float unless an intermediate overflows or is
    subnormal (:func:`mul`)."""
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if type(b) is Const and _power_of_two(b.value):
        inner = _scaled(a)
        if inner is not None and _normal(inner[0] / b.value):
            return mul(Const(inner[0] / b.value), inner[1])
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _fold(kind: type, a: Expr, *exponent: float) -> Expr:
    """``kind(a, *exponent)``, folded by the function the emitter binds when
    ``a`` is a constant in the domain; a constant outside it, or a call that
    raises (an overflow, the cosine of infinity), leaves the node in place."""
    domain = _FOLD_DOMAIN.get(kind)
    if isinstance(a, Const) and (domain is None or domain(a.value)):
        try:
            return Const(_MATH[_CALLS[kind]](a.value, *exponent))
        except (OverflowError, ValueError):
            pass
    return kind(a, *exponent)


# ln and real powers fold positive constants only, sqrt non-negative ones.
_FOLD_DOMAIN = {Ln: lambda x: x > 0.0, Sqrt: lambda x: x >= 0.0, Pow: lambda x: x > 0.0}
sin, cos, exp, ln, sqrt = (functools.partial(_fold, kind) for kind in (Sin, Cos, Exp, Ln, Sqrt))


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
    return _fold(Pow, base, c)


# --------------------------------------------------------------------------
# Compilation

# Domain rule of each guarded node: the test that flags a bad argument (the
# denominator for Div), the message, and the text put before the offending
# value (None: the value is not shown).
_GUARDS = {
    Ln: ("<= 0.0", "ln of non-positive value", " "),
    Sqrt: ("< 0.0", "sqrt of negative value", " "),
    Pow: ("<= 0.0", "power with real exponent needs a positive base", ", got "),
    Div: ("== 0.0", "division by zero", None),
}
_CALLS = {Sin: "_sin", Cos: "_cos", Exp: "_exp", Ln: "_log", Sqrt: "_sqrt", Pow: "_pow"}
_MATH = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp, "_log": math.log,
         "_sqrt": math.sqrt, "_pow": math.pow}
# Deepest nesting of operators in one inlined value; a deeper value keeps a
# local of its own.  Python's parser stops at 200 nested parentheses, and
# its compiler recurses along the expression.
_MAX_INLINE_DEPTH = 32


class Emitter:
    """Straight-line Python source for expression trees.

    :meth:`emit` appends the statements that compute a tree and returns the
    local name holding its value.  Nodes are emitted post-order in the
    order the tree walk evaluates them (``Div`` takes its denominator
    first), each domain check inline before its node.  Every node has the
    value number the walk of :func:`shaped` gave it (:func:`_shape`):
    equal for structurally equal subtrees, a sum or product counting as
    equal to itself with its operands swapped (float ``+`` and ``*``
    commute).  Subtrees of one number, across every tree emitted at one
    point, are computed once and reused, so the first domain violation
    raised is the one a node-by-node walk would meet.  A check of a local
    is written once: a test that passed once passes again.  Constants and
    functions are read by name, never written into the source.

    A value of ``+ - * /`` or unary minus that exactly one later statement
    of the emitter's own reads is written into that statement, not into a
    local, nested at most ``_MAX_INLINE_DEPTH`` operators deep, and
    parenthesized by the operators and precedences the node classes render
    with (``_OP``, ``_PREC``); one that no statement reads is not written.
    The emitter notes each local read a second time as it emits.  That is
    exact: float ``+``, ``-``, ``*`` and unary minus never raise, and a division
    is written after the check of its denominator or divides by a nonzero
    constant, so computing a value later changes no result and no error.
    Calls, loads and checks stay where they are, and so does every value
    :meth:`emit` returns, whose name the caller may write into statements
    of its own.

    Statements work on floats, with the functions of ``math``.
    :meth:`function` writes everything emitted into ``f(theta, q, v)``
    (q and v sequences of coordinates).  The emitter only writes
    statements: :func:`shaped`, the only maker of emitters, runs an
    emission once per shape of its trees, compiles and keeps its code, and
    binds the constants in every function it makes.

    An emitter can also emit at points held in named locals
    (:meth:`at`), reading trees the caller holds there from locals, for
    callers that write their own function around the statements (the RK4
    loop of :mod:`fracnoether.integrators`, whose Newton loop holds the
    kernel of a shoot's right-hand side): they add values with
    :meth:`moved` (a stage coordinate), statements with :meth:`line` and
    checks with :meth:`check`, each naming what else it reads, take the
    body with :meth:`body`, whole or between the positions :meth:`mark`
    returns, and hand the source to :func:`shaped`.  :attr:`reads` holds
    every name a statement reads, so such a caller binds only the point
    names read.  Statements of their own take working locals from
    :meth:`fresh` (the linear solve of
    :func:`fracnoether.linsolve.emit_solve`), write their constants as
    literals, and NaN as ``_nan``; they assign no local that an emitted
    statement reads.
    """

    def __init__(self, numbers: dict[int, int], stateful: Collection[int]):
        """Number each node as the walk of :func:`shaped` did: ``numbers`` by
        node id, ``stateful`` the numbers of subtrees with a q or v leaf.  A
        non-constant node the walk did not number raises ``KeyError``."""
        # statements in order: text, or (name, op, precedence, a, b) of _let
        self._lines: list = []
        self._count = 0
        self._slots: dict[int, str] = {}  # the trees' constants and exponents, by node id
        self._calls: dict[str, None] = {}  # the functions called, in order
        self._numbers = numbers
        self._stateful = stateful
        self._point: tuple | None = None  # None: leaves load from theta, q, v
        self._emitted: dict[int, str] = {}
        self._theta_emitted = self._emitted
        self._points: dict[tuple, dict[int, str]] = {}
        self._thetas: dict[str, dict[int, str]] = {}
        self._leaves: list[tuple[str, int]] = []  # q/v loads in emission order
        # locals that keep their statement: read more than once, or by text
        # the emitter does not write
        self._kept: set[str] = set()
        self._checked: set[tuple[str, str]] = set()
        self.reads: set[str] = set()  # each _emit result, and what lines declare

    def at(self, theta: str, q: Sequence[str], v: Sequence[str], held: Mapping[Expr, str]):
        """Emit what follows at the point held in the named scalar locals.

        Value numbers are the walk's, but the computed values are per
        point: a subtree is reused only from an earlier emission at the
        same point, or, when it has no coordinate or velocity leaf, at the
        same theta.  Returning to a point reuses what was computed there.
        ``held`` maps trees the walk numbered to the locals holding their
        values at this point, which are read from there, never computed.
        A load beyond the named coordinates raises the
        :class:`ExpressionError` a compiled evaluator raises for it.
        """
        self._point = (theta, tuple(q), tuple(v))
        self._emitted = self._points.setdefault(self._point, {})
        self._theta_emitted = self._thetas.setdefault(theta, {})
        self._emitted.update(self._theta_emitted)
        for tree, name in held.items():
            self._emitted.setdefault(self._numbers[id(tree)], name)

    def _slot(self, e: Expr) -> str:
        """The name of the constant or exponent of the node ``e``: its own,
        whatever other node holds an equal value."""
        name = self._slots.get(id(e))
        if name is None:
            name = self._slots[id(e)] = f"_c{len(self._slots)}"
        return name

    def fresh(self) -> str:
        """A local name no statement has assigned yet."""
        self._count += 1
        return f"t{self._count - 1}"

    def _load(self, source: str) -> str:
        """A new local assigned ``source`` by a statement that stays in place."""
        name = self.fresh()
        self._lines.append(f"{name} = {source}")
        return name

    def _let(self, op: str, precedence: int | None, a: str, b: str | None = None) -> str:
        """A new local holding ``op`` of ``a`` and ``b``, or of ``a`` alone:
        an operator binding as tightly as ``precedence`` (of ``a`` alone,
        unary minus) or, for a precedence of None, a function."""
        name = self.fresh()
        self._lines.append((name, op, precedence, a, b))
        return name

    def moved(self, x: str, step: str, rate: str) -> str:
        """A new local holding ``x + step * rate`` of three names, an
        arithmetic value like any other: a stage coordinate of the RK4 loop."""
        return self._let("+", Add._PREC, x, self._let("*", Mul._PREC, step, rate))

    def line(self, statement: str, *reads: str) -> None:
        """Append a statement of the caller's own, in emission order, which
        reads the names ``reads`` (values and point names) besides its own."""
        self._lines.append(statement)
        self._kept.update(reads)
        self.reads.update(reads)

    def check(self, x: str, test: str, error: str, *reads: str) -> None:
        """Append ``if {x} {test}: raise {error}``, ``error`` reading
        ``reads``, unless the same test of the local ``x`` was appended
        before."""
        if (x, test) not in self._checked:
            self._checked.add((x, test))
            self.line(f"if {x} {test}: raise {error}", x, *reads)

    def emit(self, e: Expr) -> str:
        """Append the statements computing ``e``; return the local holding its value."""
        name = self._emit(e)
        self._kept.add(name)
        return name

    def _emit(self, e: Expr) -> str:
        kind = type(e)
        if kind is Const:
            # named by its node, though equal constants number alike
            return self._slot(e)
        number = self._numbers[id(e)]
        name = self._emitted.get(number)
        if name is not None:
            self._kept.add(name)  # its first reader was another
            self.reads.add(name)
            return name
        if kind is Theta:
            name = "theta" if self._point is None else self._point[0]
        elif kind is Q or kind is V:
            name = self._leaf("q" if kind is Q else "v", e.index)
        elif kind is Neg:
            name = self._let("-", Neg._PREC, self._emit(e.arg))
        elif kind is Div:
            den = self._emit(e.b)
            # a nonzero constant never trips the check
            if not (type(e.b) is Const and e.b.value != 0.0):
                self._guard(kind, den)
            name = self._let(kind._OP, kind._PREC, self._emit(e.a), den)
        elif kind is Add or kind is Sub or kind is Mul:
            a = self._emit(e.a)
            name = self._let(kind._OP, kind._PREC, a, self._emit(e.b))
        elif kind in _CALLS:
            x = self._emit(e.children()[0])
            self._guard(kind, x)
            function = _CALLS[kind]
            self._calls[function] = None
            name = self._let(function, None, x, self._slot(e) if kind is Pow else None)
        else:
            raise ExpressionError(f"cannot compile node type {kind.__name__}")
        self._emitted[number] = name
        if number not in self._stateful:
            self._theta_emitted[number] = name
        self.reads.add(name)
        return name

    def _leaf(self, letter: str, index: int) -> str:
        if self._point is None:
            self._leaves.append((letter, index))
            return self._load(f"{letter}[{index}]")
        names = self._point[1 if letter == "q" else 2]
        if -len(names) <= index < len(names):
            return names[index]
        return self._load(f"_beyond({_beyond_message(letter, index, len(names))!r})")

    def mark(self) -> int:
        """The position after the statements emitted so far, for :meth:`body`."""
        return len(self._lines)

    def body(self, indent: str, start: int = 0, stop: int | None = None) -> list[str]:
        """The statements between the marks ``start`` and ``stop``, all by
        default, each prefixed by ``indent``, with each arithmetic value
        read once written into its reader (a value read beyond ``stop`` is
        read twice, so kept)."""
        lines = []
        append = lines.append
        inlined: dict[str, tuple[str, int, int]] = {}  # name -> (text, precedence, depth)
        pop = inlined.pop
        kept = self._kept
        for entry in self._lines[start:stop]:
            if type(entry) is str:
                append(indent + entry)
                continue
            name, op, precedence, a, b = entry
            if precedence is None:  # a call
                a = pop(a)[0] if a in inlined else a
                append(f"{indent}{name} = {op}({a})" if b is None else
                       f"{indent}{name} = {op}({a}, {b})")
                continue
            depth = 0
            hit = pop(a, None)
            if hit is not None:
                a, p, depth = hit
                # operators group to the left, and unary minus binds tightest
                if b is None or p < precedence:
                    a = f"({a})"
            if b is None:
                text = f"-{a}"
            else:
                hit = pop(b, None)
                if hit is not None:
                    b, p, d = hit
                    if p <= precedence:
                        b = f"({b})"
                    depth = max(depth, d)
                text = f"{a} {op} {b}"
            if depth < _MAX_INLINE_DEPTH and name not in kept:
                inlined[name] = (text, precedence, depth + 1)
            else:
                append(f"{indent}{name} = {text}")
        return lines or [indent + "pass"]

    def keyword_defaults(self) -> str:
        """``, *, _c0=_c0, ..`` for a ``def`` line: every constant and function
        the statements read, bound as a keyword default so the function body
        reads it as a local; empty when there is none."""
        names = [*self._slots.values(), *self._calls]
        return "".join([", *", *(f", {name}={name}" for name in names)]) if names else ""

    def function(self, result: str) -> tuple[list[str], str, dict]:
        """``f(theta, q, v) -> result`` around the emitted statements, as the
        source, name and names an emission hands :func:`shaped`."""
        source = [
            "def compiled(theta, q, v):",
            "    try:",
            *self.body("        "),
            "    except IndexError:",
            "        _out_of_range(q, v)",
            "        raise",
            f"    return {result}",
        ]
        out_of_range = functools.partial(_raise_out_of_range, tuple(self._leaves))
        return source, "compiled", {"_out_of_range": out_of_range}

    def _guard(self, kind: type, x: str) -> None:
        rule = _GUARDS.get(kind)
        if rule is None:
            return
        test, message, shown = rule
        if shown is None:
            self.check(x, test, f"_EvalDomainError({message!r})")
        else:
            self.check(x, test, f"_EvalDomainError({message!r}, {shown!r} + repr({x}))")


def compile_trees(trees):
    """Compile a tree, or nested sequences of trees, into one ``f(theta, q, v)``.

    The function returns the values shaped like ``trees``, sequences as
    tuples.  Trees are emitted depth first in the given order, with
    structurally equal subtrees computed once across all of them, so the
    first domain error raised is the one evaluating the trees one after
    another would meet.  Values are raw, as from ``e.evaluate``: no
    finiteness check.
    """

    def emit(em: Emitter):
        def item(x) -> str:
            if isinstance(x, Expr):
                return em.emit(x)
            return "(" + "".join(f"{item(y)}, " for y in x) + ")"

        return em.function(item(trees))

    return shaped(("trees",), trees, emit)


# The last _MAX_SHAPES emissions by shape key, the most recently used last:
# shape key -> (function name, names, slots, code object).
_SHAPES: dict[tuple, tuple] = {}
_MAX_SHAPES = 256


def shaped(key: tuple, trees, emit, /, **names):
    """The function ``emit`` writes, emitted and compiled once per shape of ``trees``.

    ``emit(em)`` emits ``trees`` (an expression, or nested sequences of
    them) into the fresh :class:`Emitter` ``em`` and returns the source of
    a function definition, its name and the names its statements read
    beyond the emitter's own; ``key`` holds everything else it reads.  The
    shape of the trees is one walk over them (:func:`_shape`): node kinds,
    indices and sharing, which subtrees are equal, and every constant and
    exponent as a slot of its node, known only by whether it is zero.  On
    a miss ``em`` numbers nodes as the walk did: each node's number by id,
    and the subtrees with a q or v leaf, derived once from the walk's
    keys.  Two emissions of one key and shape write the same statements,
    so the source is compiled once, as ``<compiled {name}>``, and only its
    code is kept with the shape; a later call emits and compiles nothing.
    Every call, miss or hit alike, runs that code in a namespace of its
    own: the emitter's functions, the emission's names, ``names``, and in
    each slot the value this call's walk found there.  A tree emitted but
    not walked raises ``KeyError`` at the first emission.  ``names`` are
    this call's own and never kept: the callables of a call-per-stage
    loop (``_rhs``, ``_g<i>``).  The last 256 shapes are kept, and no
    entry keeps a tree alive.
    """
    shape, values, seen, numbers, keys = _shape(trees)
    full = (key, shape)
    entry = _SHAPES.pop(full, None)
    if entry is None:
        stateful: set[int] = set()
        for k, number in keys.items():  # a key follows the keys of its operands
            if k[0] is Q or k[0] is V or not stateful.isdisjoint(k):
                stateful.add(number)
        em = Emitter(numbers, stateful)
        source, name, own = emit(em)
        code = compile("\n".join(source), f"<compiled {name}>", "exec")
        entry = (name, own, tuple((slot, seen[k]) for k, slot in em._slots.items()), code)
        if len(_SHAPES) >= _MAX_SHAPES:
            del _SHAPES[next(iter(_SHAPES))]
    _SHAPES[full] = entry
    name, own, slots, code = entry
    namespace = dict(_BASE, **own, **names)
    for slot, i in slots:
        namespace[slot] = values[i]
    exec(code, namespace)
    return namespace[name]


def _shape(trees) -> tuple[tuple, dict[int, float], dict[int, int], dict[int, int], dict]:
    """The shape of ``trees`` for :func:`shaped`, their constants and
    exponents by the index of their node, the index and the value number
    of each node by its id, and the value number of each key.

    The shape lists the nodes in prefix order, a node met before by its
    index, and each constant by whether it is zero (0.0 or -0.0), the one
    fact of a value that emission branches on (the zero test of a
    division); the arity of each kind, and a length before each sequence,
    keep the listing unambiguous.  Every node but a constant ends with its
    value number, apart from the constants', so the listing holds which
    subtrees are equal, which emission computes once, but not which
    constants are: a value is known by the node that holds it, so equal
    values of two nodes are two slots.  A key is a node's kind, index or
    exponent and its operands' numbers, a sum's or product's sorted.
    """
    out: list = []
    append = out.append
    seen: dict[int, int] = {}
    values: dict[int, float] = {}
    constants: dict[tuple, int] = {}  # value numbers of constants: -1, -2, ..
    keys: dict[tuple, int] = {}  # value numbers of the other nodes: 0, 1, ..
    numbers: dict[int, int] = {}  # node id -> its value number

    def node(e: Expr) -> int:
        k = id(e)
        i = seen.get(k)
        if i is not None:
            append(i)
            return numbers[k]
        i = seen[k] = len(seen)
        kind = type(e)
        append(kind)
        if kind is Const:
            x = values[i] = e.value
            append(x == 0.0)
            number = -1 - constants.setdefault(_value_key(x), len(constants))
        else:
            if issubclass(kind, _Binary):
                a, b = node(e.a), node(e.b)
                key = (kind, b, a) if a > b and (kind is Add or kind is Mul) else (kind, a, b)
            elif kind is Q or kind is V:
                append(e.index)
                key = (kind, e.index)
            elif kind is Pow:
                values[i] = e.exponent
                key = (kind, _value_key(e.exponent), node(e.base))
            else:
                key = (kind, *map(node, e.children()))
            number = keys.setdefault(key, len(keys))
            append(number)
        numbers[k] = number
        return number

    def item(x) -> None:
        if isinstance(x, Expr):
            node(x)
        else:
            append(tuple)
            append(len(x))
            for y in x:
                item(y)

    item(trees)
    return tuple(out), values, seen, numbers, keys


def structure(trees) -> tuple[tuple, tuple]:
    """The shape of ``trees`` that :func:`shaped` keys by, and the
    ``_value_key`` of the value in each of its slots, in slot order: equal
    for two sets of trees only where they are the same trees node for node,
    so what is emitted from them computes alike.  One walk (:func:`_shape`),
    before anything is emitted or compiled."""
    shape, values = _shape(trees)[:2]
    return shape, tuple(map(_value_key, values.values()))


def _beyond_message(letter: str, index: int, count: int) -> str:
    return f"variable {letter}{index} out of range for {count} degrees of freedom"


def _raise_beyond(message: str) -> None:
    raise ExpressionError(message)


# What every function shaped makes reads beyond its names and slots.
_BASE = dict(_MATH, _EvalDomainError=EvalDomainError, _beyond=_raise_beyond, _nan=math.nan)


def _raise_out_of_range(leaves, q, v) -> None:
    """Raise for the first q/v load, in emission order, beyond the given
    coordinates: the load whose IndexError stopped a compiled evaluator."""
    for letter, index in leaves:
        count = len(q if letter == "q" else v)
        if not -count <= index < count:
            raise ExpressionError(_beyond_message(letter, index, count)) from None


# --------------------------------------------------------------------------
# Checked evaluation


def evaluate_on_grid(e: Expr, theta: Sequence[float], q: Sequence, v: Sequence) -> tuple:
    """``e`` at m points, given as the m thetas and the m rows of q and of
    v: ``e.evaluate`` point by point.  A domain error raises with its rule
    alone, without the value; overflow, ``sin`` or ``cos`` of an infinity
    and a non-finite value raise as a non-finite result."""
    if not len(theta) == len(q) == len(v):
        raise ValueError("theta, q and v must hold one entry per point")
    fn, non_finite = e.evaluate, "non-finite evaluation result on grid"
    try:
        out = tuple([float(fn(*point)) for point in zip(theta, q, v)])
    except EvalDomainError as exc:
        raise EvalDomainError(exc.rule) from None
    except ExpressionError:
        raise
    except (OverflowError, ValueError):
        raise EvalDomainError(non_finite) from None
    if not all(map(math.isfinite, out)):
        raise EvalDomainError(non_finite)
    return out


def walk(e: Expr) -> Iterator[Expr]:
    """Every distinct node of ``e`` once, a subtree shared by several
    parents included."""
    seen = {id(e)}
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        for child in node.children():
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)


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
# The parser, which builds its trees with the constructors above, lives in
# its own module; ``parse`` and ``MAX_DEPTH`` are part of this one's API.

from .parser import MAX_DEPTH, parse  # noqa: E402
