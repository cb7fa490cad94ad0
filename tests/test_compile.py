"""Compiled evaluation: every tree against an independent reference walk.

The reference evaluators below, and the node-by-node walk of
``tree_walk_oracle``, are written from the documented domain rules of
:mod:`fracnoether.expressions` (children in tree order, ``Div``
denominator first, the guard messages) and share no code with the
emitter.  Compiled results at a point and on a grid must equal them bit
for bit, and on failure raise the same exception class with the same
message.
"""

import math
import re
import struct
from array import array

import numpy as np
import pytest
import tree_walk_oracle
from hypothesis import given, settings, strategies as st

from fracnoether import linsolve
from fracnoether.euler_lagrange import (
    ExplicitOde,
    FractionalParams,
    SingularHessianError,
    VariationalProblem,
    to_explicit_ode,
)
from fracnoether.expressions import (
    Add,
    Const,
    Cos,
    Div,
    EvalDomainError,
    Exp,
    ExpressionError,
    Ln,
    Mul,
    Neg,
    Pow,
    Q,
    Sin,
    Sqrt,
    Sub,
    Theta,
    V,
    compile_trees,
    evaluate_on_grid,
    parse,
)
from fracnoether.integrators import BlowUpError, ivp_solve

# --------------------------------------------------------------------------
# Reference walks


def _scalar_leaf(letter, index, values):
    if index >= len(values):
        raise ExpressionError(
            f"variable {letter}{index} out of range for {len(values)} degrees of freedom"
        )
    return values[index]


def ref_scalar(e, theta, q, v):
    kind = type(e)
    if kind is Const:
        return e.value
    if kind is Theta:
        return theta
    if kind is Q:
        return _scalar_leaf("q", e.index, q)
    if kind is V:
        return _scalar_leaf("v", e.index, v)
    if kind is Div:
        den = ref_scalar(e.b, theta, q, v)
        if den == 0.0:
            raise EvalDomainError("division by zero")
        return ref_scalar(e.a, theta, q, v) / den
    if kind in (Add, Sub, Mul):
        a = ref_scalar(e.a, theta, q, v)
        b = ref_scalar(e.b, theta, q, v)
        return a + b if kind is Add else a - b if kind is Sub else a * b
    x = ref_scalar(e.children()[0], theta, q, v)
    if kind is Neg:
        return -x
    if kind is Sin:
        return math.sin(x)
    if kind is Cos:
        return math.cos(x)
    if kind is Exp:
        return math.exp(x)
    if kind is Ln:
        if x <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {x!r}")
        return math.log(x)
    if kind is Sqrt:
        if x < 0.0:
            raise EvalDomainError(f"sqrt of negative value {x!r}")
        return math.sqrt(x)
    if kind is Pow:
        if x <= 0.0:
            raise EvalDomainError(f"power with real exponent needs a positive base, got {x!r}")
        return math.pow(x, e.exponent)
    raise AssertionError(kind)


# The domain rules, each message up to the value a point evaluation shows.
RULES = ("ln of non-positive value", "sqrt of negative value",
         "power with real exponent needs a positive base", "division by zero")
NON_FINITE = "non-finite evaluation result on grid"


def walk_grid(e, theta, q, v):
    """``evaluate_on_grid`` from the node-by-node walk of ``tree_walk_oracle``:
    the points in order, a domain error by its rule alone, an overflow, the
    sine or cosine of an infinity and a non-finite value as non-finite."""
    out = []
    for point in zip(theta, q, v):
        try:
            out.append(tree_walk_oracle.value(e, *point))
        except EvalDomainError as exc:
            raise EvalDomainError(next(r for r in RULES if str(exc).startswith(r))) from None
        except ExpressionError:
            raise
        except (OverflowError, ValueError):
            raise EvalDomainError(NON_FINITE) from None
    if not all(map(math.isfinite, out)):
        raise EvalDomainError(NON_FINITE)
    return tuple(out)


def outcome(fn, *args):
    """('ok', exact bytes of the value) or ('raise', class, message)."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return ("raise", type(exc), str(exc))
    if isinstance(value, tuple):
        return ("ok", tuple, array("d", value).tobytes())
    return ("ok", type(value), struct.pack("<d", value))


# --------------------------------------------------------------------------
# Trees with every node kind, unguarded domains, and shared subtrees


def _copy(e):
    """A structurally equal tree made of fresh nodes."""
    kind = type(e)
    if kind is Const:
        return Const(e.value)
    if kind is Theta:
        return Theta()
    if kind in (Q, V):
        return kind(e.index)
    if kind is Pow:
        return Pow(_copy(e.base), e.exponent)
    return kind(*map(_copy, e.children()))


def _trees():
    leaves = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.0, math.pi]).map(Const),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(Const),
        st.just(Theta()),
        st.integers(0, 1).map(Q),
        st.integers(0, 1).map(V),
    )
    exponents = st.sampled_from([0.5, 1.5, -0.7, 2.5])

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: Add(*ab)),
            pair.map(lambda ab: Sub(*ab)),
            pair.map(lambda ab: Mul(*ab)),
            pair.map(lambda ab: Div(*ab)),
            children.map(Neg),
            children.map(Sin),
            children.map(Cos),
            children.map(Exp),
            children.map(Ln),
            children.map(Sqrt),
            st.tuples(children, exponents).map(lambda ac: Pow(*ac)),
            # shared by identity and by structure
            children.map(lambda a: Mul(a, Ln(a))),
            children.map(lambda a: Add(Sqrt(a), _copy(Sqrt(a)))),
            pair.map(lambda ab: Div(ab[0], Sub(ab[1], _copy(ab[1])))),
        )

    return st.recursive(leaves, extend, max_leaves=10)


_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    e=_trees(),
    theta=_values,
    q=st.lists(_values, min_size=1, max_size=2),
    v=st.lists(_values, min_size=1, max_size=2),
)
def test_compiled_scalar_matches_reference_walk(e, theta, q, v):
    assert outcome(e.evaluate, theta, q, v) == outcome(ref_scalar, e, theta, q, v)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    e=_trees(),
    rows=st.lists(st.tuples(_values, _values, _values, _values, _values), min_size=1, max_size=4),
    n=st.integers(1, 2),
)
def test_grid_evaluation_matches_the_tree_walk_oracle(e, rows, n):
    theta = [row[0] for row in rows]
    q, v = [row[1 : 1 + n] for row in rows], [row[3 : 3 + n] for row in rows]
    assert outcome(evaluate_on_grid, e, theta, q, v) == outcome(walk_grid, e, theta, q, v)


def test_first_failing_node_is_the_walks_even_when_reused():
    # sqrt(q0 - 1) is computed (and passes) on the left before the shared
    # copy is reused; ln(q0 - 1) fails first in walk order.
    a = Sub(Q(0), Const(1.0))
    e = Add(Sqrt(a), Add(Ln(_copy(a)), Sqrt(_copy(a))))
    with pytest.raises(EvalDomainError, match=r"^ln of non-positive value 0\.0$"):
        e.evaluate(0.0, [1.0], [0.0])
    # Div checks its denominator before it evaluates the numerator
    e = Div(Ln(Q(0)), Sub(Q(0), Q(0)))
    with pytest.raises(EvalDomainError, match="^division by zero$"):
        e.evaluate(0.0, [-1.0], [0.0])


# --------------------------------------------------------------------------
# Edge cases


def bits(x):
    return struct.pack("<d", x)


def test_special_constants_survive_compilation():
    assert Const(1e400).evaluate(0.0, [0.0], [0.0]) == math.inf
    assert bits(Const(-0.0).evaluate(0.0, [0.0], [0.0])) == bits(-0.0)
    assert parse("pi*q0", 1).evaluate(0.0, [1.0], [0.0]) == math.pi
    # 0.0 and -0.0 are different constants: -0*q0 - 0*q0 is -0.0
    e = Sub(Mul(Const(-0.0), Q(0)), Mul(Const(0.0), Q(0)))
    assert bits(e.evaluate(0.0, [1.0], [0.0])) == bits(-0.0)
    zeros = [(0.0,)] * 2
    grid = evaluate_on_grid(Const(-0.0), [0.0] * 2, zeros, zeros)
    assert repr(grid) == repr(walk_grid(Const(-0.0), [0.0] * 2, zeros, zeros)) == "(-0.0, -0.0)"


# What evaluate_on_grid raises for overflow, sin or cos of an infinity, and
# a non-finite value.
NON_FINITE = "^non-finite evaluation result on grid$"


def test_infinite_constant_still_caught_at_the_top():
    e = parse("1e400*q0", 1)
    for q0 in (1.0, 0.0):
        with pytest.raises(EvalDomainError, match=NON_FINITE):
            evaluate_on_grid(e, [0.0], [(q0,)], [(0.0,)])


def test_index_beyond_coordinates_keeps_its_message():
    beyond = r"^variable {} out of range for 1 degrees of freedom$"
    with pytest.raises(ExpressionError, match=beyond.format("q3")):
        parse("sin(q0) + q3").evaluate(0.0, [1.0], [1.0])
    with pytest.raises(ExpressionError, match=beyond.format("v1")):
        parse("q0 + v1").evaluate(0.0, [1.0, 2.0], [1.0])
    zeros = [(0.0,)] * 3
    with pytest.raises(ExpressionError, match=beyond.format("v2")):
        evaluate_on_grid(parse("v2"), [0.0] * 3, zeros, zeros)
    # the first load the walk meets names the error; Div loads its denominator first
    for text, first in [("v2 * q3", "v2"), ("q3 / v2", "v2"), ("q3 + v2", "q3")]:
        with pytest.raises(ExpressionError, match=rf"^variable {first} "):
            parse(text).evaluate(0.0, [1.0], [1.0])
        args = (parse(text), [0.0] * 3, zeros, zeros)
        assert outcome(evaluate_on_grid, *args) == outcome(walk_grid, *args)
        assert outcome(walk_grid, *args)[2].startswith(f"variable {first} ")


def test_exp_overflow_maps_to_domain_error_and_blow_up():
    e = parse("exp(exp(exp(q0)))", 1)
    with pytest.raises(OverflowError):
        e.evaluate(0.0, [10.0], [0.0])
    with pytest.raises(EvalDomainError, match=NON_FINITE):
        evaluate_on_grid(e, [0.0], [(10.0,)], [(0.0,)])

    def still(theta, q, v):
        return [0.0]

    with pytest.raises(BlowUpError):
        ivp_solve(still, 0.0, 1.0, [10.0], [0.0], 10, integrands={"g": e})
    prob = VariationalProblem(
        n=1,
        lagrangian=parse("v0^2/2 + exp(exp(q0))", 1),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=0.5, observer_time=2.0),
    )
    with pytest.raises(BlowUpError):
        ivp_solve(to_explicit_ode(prob), 0.0, 1.0, [10.0], [0.0], 10)
    # an argument that overflowed to inf takes sin and cos out of their domain
    e = parse("sin(1e300*q0*q0)", 1)
    with pytest.raises(ValueError, match="math domain error"):
        e.evaluate(0.0, [1e10], [0.0])
    with pytest.raises(EvalDomainError, match=NON_FINITE):
        evaluate_on_grid(e, [0.0], [(1e10,)], [(0.0,)])
    with pytest.raises(BlowUpError):
        ivp_solve(still, 0.0, 1.0, [1e10], [0.0], 10, integrands={"g": e})
    prob = VariationalProblem(
        n=1,
        lagrangian=parse("v0^2/2 + sin(1e300*q0*q0)", 1),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=0.5, observer_time=2.0),
    )
    with pytest.raises(BlowUpError):
        ivp_solve(to_explicit_ode(prob), 0.0, 1.0, [1e10], [0.0], 10)


# --------------------------------------------------------------------------
# The fused right-hand side and its callers


def problem(text, n, alpha=0.6):
    return VariationalProblem(
        n=n,
        lagrangian=parse(text, n),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=2.0),
    )


@pytest.mark.parametrize(
    "text,n",
    [
        ("exp(theta/4)*v0^2/2 - cos(q0)", 1),
        ("(2 + sin(q1))*v0^2/2 + v1^2/2 + theta*q0*v1", 2),
    ],
)
def test_fused_rhs_equals_tree_by_tree_arithmetic(text, n):
    ode = ExplicitOde(problem(text, n))
    rng = np.random.default_rng(7)
    for _ in range(10):
        theta = float(rng.uniform(0.0, 1.0))
        q = rng.uniform(-1.0, 1.0, size=n).tolist()
        v = rng.uniform(-1.0, 1.0, size=n).tolist()
        c = ode.prob.frac.drag_strength / (ode.prob.frac.observer_time - theta)
        force = tuple(
            f.evaluate(theta, q, v) - c * p.evaluate(theta, q, v)
            for f, p in zip(ode.force, ode.momentum)
        )
        mass = tuple(tuple(m.evaluate(theta, q, v) for m in row) for row in ode.mass)
        assert tuple(f.evaluate(theta, q, v) for f in ode.net) == force
        expected = [force[0] / mass[0][0]] if n == 1 else linsolve.solve(mass, force)
        assert ode(theta, q, v) == expected


def test_singular_mass_reported_before_force_domain_errors():
    # M = 0 everywhere, and the force q0^(-0.5)/2 needs q0 > 0, unlike the probe
    with pytest.raises(SingularHessianError):
        to_explicit_ode(problem("v0 + q0^0.5", 1))


class OnlyEvaluate:
    """The narrowest integrand ivp_solve accepts: an ``evaluate`` method."""

    def __init__(self, expr):
        self._expr = expr

    def evaluate(self, theta, q, v):
        return self._expr.evaluate(theta, q, v)


def test_ivp_solve_accepts_evaluate_only_integrands():
    ode = to_explicit_ode(problem("(v0^2 + v1^2)/2 - (q0 - q1)^2/2 + theta*q0", 2))
    integrands = {"a": parse("v0*q1 - sin(theta)", 2), "b": parse("exp(q0/3)*v1", 2)}
    plain = ivp_solve(ode, 0.0, 1.0, [0.1, -0.2], [0.3, 0.4], 200, integrands=integrands)
    wrapped = ivp_solve(
        ode, 0.0, 1.0, [0.1, -0.2], [0.3, 0.4], 200,
        integrands={k: OnlyEvaluate(g) for k, g in integrands.items()},
    )
    for name in integrands:
        assert repr(plain.channels[name]) == repr(wrapped.channels[name])
    assert repr(plain.q) == repr(wrapped.q)


def test_zero_force_keeps_the_sign_of_zero():
    # F = 0 and c = 0 at alpha = 1: F - c p is 0.0 - 0.0, never -(c p) = -0.0
    ode = ExplicitOde(problem("v0^2/2", 1, alpha=1.0))
    (accel,) = ode(0.5, [0.0], [1.0])
    assert math.copysign(1.0, accel) == 1.0
    assert math.copysign(1.0, ode.net[0].evaluate(0.5, [0.0], [1.0])) == 1.0


def test_alpha_one_net_force_is_the_force_itself(defined):
    # no drag term at alpha = 1: the momentum 3 * v0 overflows at
    # v0 = 1e308, which 0 * inf would turn into NaN, but F / M is 0 / 3
    ode = ExplicitOde(problem("3*v0^2/2", 1, alpha=1.0))
    assert str(ode.momentum[0]) == "3 * v0"
    assert ode(0.5, [0.0], [1e308]) == [0.0]
    for alpha, drag in ((1.0, False), (0.5, True)):
        ivp_solve(ExplicitOde(problem("v0^2/2", 1, alpha=alpha)), 0.0, 1.0, [0.0], [1.0], 4)
        source = [source for name, source in defined if name == "<compiled loop>"][-1]
        # the drag (1 - alpha)/(t - theta) is the one tree here that reads theta
        assert bool(re.search(r"^ +t0 = _c\d+ - th$", source, re.MULTILINE)) == drag


def test_compile_trees_nests_values_and_keeps_the_first_error():
    a, b, c = parse("sin(q0)*v0", 1), parse("ln(q0) + sin(q0)", 1), parse("sqrt(v0)", 1)
    fn = compile_trees([a, [b, c]])
    at = (0.3, [2.0], [0.5])
    assert fn(*at) == (a.evaluate(*at), (b.evaluate(*at), c.evaluate(*at)))
    assert compile_trees(a)(*at) == a.evaluate(*at)
    # b and c both fail here; b comes first
    with pytest.raises(EvalDomainError, match="^ln of non-positive value -1.0$"):
        fn(0.3, [-1.0], [-1.0])
    # a constant denominator is checked only when it is zero
    for zero in (0.0, -0.0):
        with pytest.raises(EvalDomainError, match="division by zero"):
            compile_trees([Div(Q(0), Const(zero))])(0.0, [1.0], [1.0])
    assert compile_trees(Div(Q(0), Const(4.0)))(0.0, [1.0], [1.0]) == 0.25
