"""Expression core: parsing, evaluation, symbolic differentiation."""

import math
import sys

import numpy as np
import pytest
import tree_walk_oracle
from hypothesis import assume, given, settings, strategies as st

from fracnoether import expressions
from fracnoether.expressions import (
    Add,
    Const,
    Cos,
    Div,
    EvalDomainError,
    Exp,
    Expr,
    ExpressionError,
    Ln,
    Mul,
    Neg,
    ParseError,
    Pow,
    Q,
    Sin,
    Sqrt,
    Sub,
    Theta,
    V,
    add,
    cos,
    div,
    evaluate_on_grid,
    exp,
    mul,
    parse,
    power,
    sin,
    sqrt,
    sub,
)


def ev(e, theta=0.0, q=(0.0,), v=(0.0,)):
    """``e`` at one point, checked: a one-point grid."""
    return evaluate_on_grid(e, [theta], [q], [v])[0]


# --------------------------------------------------------------------------
# parsing


def test_parse_velocity_square():
    e = parse("v0^2 / 2", 1)
    assert ev(e, v=[2.0]) == 2.0
    assert ev(e, v=[-3.0]) == 4.5  # integer power expands, negative base fine


def test_parse_sin_plus_theta():
    e = parse("sin(q0) + theta", 1)
    assert ev(e, theta=0.25, q=[math.pi / 2]) == pytest.approx(1.25, rel=1e-15)


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="variable index out of range"):
        parse("v2", 2)


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse("1 + $", 1)
    assert err.value.position == 4


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError, match="trailing"):
        parse("1 2", 1)


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("foo + 1", 1)


def test_parse_exponent_must_be_literal():
    with pytest.raises(ParseError, match="numeric literal"):
        parse("q0^q0", 1)


def test_parse_pi_and_functions():
    e = parse("cos(pi * theta)", 1)
    assert ev(e, theta=1.0) == pytest.approx(-1.0, rel=1e-15)


def test_parse_negative_exponent():
    e = parse("q0^(-2)", 1)
    assert ev(e, q=[2.0]) == pytest.approx(0.25, rel=1e-15)


def test_parse_unary_minus_binds_outside_power():
    e = parse("-q0^2", 1)
    assert ev(e, q=[3.0]) == -9.0


def test_parse_without_bound_allows_any_index():
    e = parse("q5")
    assert ev(e, q=[0.0] * 6, v=[0.0] * 6) == 0.0


def test_parse_builds_one_node_per_variable():
    # a variable spelled twice is one node, so the derivative of v0*v0
    # folds v0 + v0 as the derivative of v0^2 does
    e = parse("theta*v0*v0 + q0*v0*theta", 1)
    leaves = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Theta, Q, V)):
            leaves.setdefault(str(node), set()).add(id(node))
        stack.extend(node.children())
    assert {name: len(ids) for name, ids in leaves.items()} == {"theta": 1, "q0": 1, "v0": 1}
    assert str(parse("v0*v0/2", 1).diff(V(0))) == "v0"
    assert str(parse("q0*q0", 1).diff(Q(0))) == "2 * q0"
    # two texts share no node
    assert parse("v0", 1) is not parse("v0", 1)


def test_render_round_trips_through_parser():
    source = "(v0^2 - q0^2)/2 + sin(theta)*q0 - 3/(2 + q0^2)"
    e = parse(source, 1)
    e2 = parse(str(e), 1)
    for theta, qv in [(0.3, 0.7), (-1.2, 0.1), (2.0, -0.4)]:
        assert ev(e, theta, [qv], [qv]) == pytest.approx(
            ev(e2, theta, [qv], [qv]), rel=1e-15
        )


RENDERED = [
    (Sub(Q(0), Sub(V(0), Q(0))), "q0 - (v0 - q0)"),
    (Sub(Q(0), Add(V(0), Q(0))), "q0 - (v0 + q0)"),
    (Div(Q(0), Mul(V(0), Q(0))), "q0 / (v0 * q0)"),
    (Add(Sub(Q(0), V(0)), Theta()), "q0 - v0 + theta"),
    (Mul(Mul(Q(0), V(0)), Q(0)), "q0 * v0 * q0"),
    (Neg(Add(Q(0), V(0))), "-(q0 + v0)"),
    (Pow(Q(0), -1.5), "q0^(-1.5)"),
    (Sin(Q(0)), "sin(q0)"),
    (Cos(V(0)), "cos(v0)"),
    (Exp(Theta()), "exp(theta)"),
    (Ln(Q(0)), "ln(q0)"),
    (Sqrt(V(0)), "sqrt(v0)"),
]


@pytest.mark.parametrize("e, text", RENDERED, ids=[text for _, text in RENDERED])
def test_render_pins_each_node_shape(e, text):
    assert str(e) == text
    assert str(parse(text, 1)) == text


def test_repr_is_the_short_form():
    assert repr(parse("q0 + v0")) == "<Expr q0 + v0>"
    # every node class, private bases included, keeps Expr.__repr__; each
    # is the class the module binds under its name
    classes, todo = set(), [Expr]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            assert vars(expressions).get(cls.__name__) is cls, cls
            classes.add(cls)
    assert len(classes) == 18
    assert all(cls.__repr__ is Expr.__repr__ for cls in classes)


# --------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    assert ev(parse("v0^2/2", 1), v=[2.0]) == 2.0
    assert ev(parse("sin(q0)*v0", 1), q=[math.pi / 2], v=[3.0]) == pytest.approx(3.0)


def test_eval_ln_domain_error():
    with pytest.raises(EvalDomainError):
        ev(parse("ln(q0)", 1), q=[0.0])


def test_eval_division_by_zero():
    with pytest.raises(EvalDomainError):
        ev(parse("1/q0", 1), q=[0.0])


def test_eval_sqrt_negative():
    with pytest.raises(EvalDomainError):
        ev(parse("sqrt(q0)", 1), q=[-1.0])


def test_eval_real_power_needs_positive_base():
    with pytest.raises(EvalDomainError):
        ev(parse("q0^0.5", 1), q=[-4.0])


def test_eval_overflow_reported():
    e = parse("exp(exp(exp(q0)))", 1)
    with pytest.raises(EvalDomainError):
        ev(e, q=[10.0])


def test_eval_is_pure_and_bit_exact():
    e = parse("sin(theta*q0) + exp(v0/3) - q0^3", 1)
    first = ev(e, 0.7, [1.3], [-0.2])
    for _ in range(5):
        assert ev(e, 0.7, [1.3], [-0.2]) == first


def test_grid_evaluation_matches_the_tree_walk_oracle():
    e = parse("sin(theta)*q0 + v0^2/(2 + q0^2) + exp(q0)*ln(1 + q0^2) + (2 + q0)^0.7", 1)
    theta = np.linspace(-1.0, 1.0, 11).tolist()
    q = [(x,) for x in np.linspace(0.5, 1.5, 11).tolist()]
    v = [(x,) for x in np.linspace(-1.0, 1.0, 11).tolist()]
    grid_vals = evaluate_on_grid(e, theta, q, v)
    walked = [tree_walk_oracle.value(e, *point) for point in zip(theta, q, v)]
    assert repr(grid_vals) == repr(tuple(walked))


def test_grid_evaluation_domain_error():
    e = parse("ln(q0)", 1)
    theta = np.zeros(3)
    q = np.array([[1.0], [2.0], [-1.0]])
    with pytest.raises(EvalDomainError):
        evaluate_on_grid(e, theta, q, np.zeros((3, 1)))
    # no domain check trips, but one entry overflows to inf
    with pytest.raises(EvalDomainError, match="non-finite"):
        evaluate_on_grid(parse("exp(q0)", 1), np.zeros(2), [[0.0], [1000.0]], np.zeros((2, 1)))


# --------------------------------------------------------------------------
# differentiation


def test_diff_power_rule():
    e = parse("v0^2/2", 1)
    d = e.diff(V(0))
    for val in (0.0, 1.5, -2.0):
        assert ev(d, v=[val]) == pytest.approx(val, rel=1e-15, abs=1e-300)


def test_diff_sin():
    d = parse("sin(q0)", 1).diff(Q(0))
    for val in (0.0, 0.9, -2.2):
        assert ev(d, q=[val]) == pytest.approx(math.cos(val), rel=1e-14)


def test_diff_wrt_absent_variable_is_zero():
    d = parse("v0^2/2", 1).diff(Q(0))
    assert isinstance(d, Const) and d.value == 0.0


def test_diff_requires_variable_node():
    with pytest.raises(ExpressionError, match="differentiation variable must be theta"):
        parse("q0", 1).diff(parse("q0 + 1", 1))
    # no leaf matches a non-variable: unchecked, this derivative folds to 0
    with pytest.raises(ExpressionError, match="differentiation variable"):
        parse("q0*v0", 1).diff(parse("q0 + 1", 1))


def test_diff_closed_over_node_set():
    from fracnoether.expressions import walk

    e = parse("exp(theta*v0) / sqrt(1 + q0^2) - ln(2 + v0^2)", 1)
    d = e.diff(V(0)).diff(Q(0))
    known = (
        "Const Theta Q V Neg Sin Cos Exp Ln Sqrt Pow Add Sub Mul Div".split()
    )
    for node in walk(d):
        assert type(node).__name__ in known


def test_shared_subtrees_are_walked_and_differentiated_once(monkeypatch):
    # an integer power is a product chain sharing its base, so five nested
    # ^16 reach q0 along 16^5 paths through 76 distinct nodes
    from fracnoether.expressions import max_coordinate_index, walk

    e = parse("v0^2/2 + ((((q0^16)^16)^16)^16)^16", 1)
    nodes = list(walk(e))
    assert len(nodes) == len({id(node) for node in nodes}) == 81
    assert max_coordinate_index(e) == 0
    products = sum(type(node) is Mul for node in nodes)
    built = []
    monkeypatch.setattr(expressions, "Mul", lambda a, b: built.append(a) or Mul(a, b))
    d = e.diff(Q(0))
    # the product rule builds at most two products per product node
    assert len(built) <= 2 * products
    assert len(list(walk(d))) < 300


# --------------------------------------------------------------------------
# property tests

_N = 2


def _safe_exprs():
    leaves = st.one_of(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(Const),
        st.just(Theta()),
        st.integers(0, _N - 1).map(Q),
        st.integers(0, _N - 1).map(V),
    )

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda ab: add(*ab)),
            pair.map(lambda ab: sub(*ab)),
            pair.map(lambda ab: mul(*ab)),
            children.map(sin),
            children.map(cos),
            children.map(lambda a: exp(mul(Const(0.3), a))),
            pair.map(lambda ab: div(ab[0], add(Const(2.0), mul(ab[1], ab[1])))),
            children.map(lambda a: sqrt(add(Const(1.0), mul(a, a)))),
        )

    return st.recursive(leaves, extend, max_leaves=8)


_point_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_all_vars = [Theta(), Q(0), Q(1), V(0), V(1)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    e=_safe_exprs(),
    theta=_point_floats,
    qs=st.tuples(_point_floats, _point_floats),
    vs=st.tuples(_point_floats, _point_floats),
    var_index=st.integers(0, len(_all_vars) - 1),
)
def test_symbolic_derivative_matches_finite_difference(e, theta, qs, vs, var_index):
    var = _all_vars[var_index]
    h = 1e-6
    d_sym = e.diff(var).evaluate(theta, qs, vs)

    def shifted(delta):
        if isinstance(var, Theta):
            return e.evaluate(theta + delta, qs, vs)
        if isinstance(var, Q):
            q2 = list(qs)
            q2[var.index] += delta
            return e.evaluate(theta, q2, vs)
        v2 = list(vs)
        v2[var.index] += delta
        return e.evaluate(theta, qs, v2)

    fd = (shifted(h) - shifted(-h)) / (2.0 * h)
    assert abs(d_sym - fd) < 1e-6 * (1.0 + abs(d_sym))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    e=_safe_exprs(),
    theta=_point_floats,
    qs=st.tuples(_point_floats, _point_floats),
    vs=st.tuples(_point_floats, _point_floats),
    i=st.integers(0, _N - 1),
    j=st.integers(0, _N - 1),
)
def test_mixed_partials_commute(e, theta, qs, vs, i, j):
    ab = e.diff(Q(i)).diff(V(j)).evaluate(theta, qs, vs)
    ba = e.diff(V(j)).diff(Q(i)).evaluate(theta, qs, vs)
    assert abs(ab - ba) <= 1e-9 * (1.0 + max(abs(ab), abs(ba)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    e=_safe_exprs(),
    theta=_point_floats,
    qs=st.tuples(_point_floats, _point_floats),
    vs=st.tuples(_point_floats, _point_floats),
)
def test_repeated_evaluation_is_bit_identical(e, theta, qs, vs):
    assert e.evaluate(theta, qs, vs) == e.evaluate(theta, qs, vs)


# --------------------------------------------------------------------------
# constructor folding


def test_power_constructor_special_cases():
    q = Q(0)
    assert isinstance(power(q, 0), Const)
    assert power(q, 1) is q
    e = power(q, 3)
    assert ev(e, q=[-2.0], v=[0.0]) == -8.0


def test_folding_keeps_zero_derivatives_compact():
    e = parse("v0^2/2", 1)
    d = e.diff(Theta())
    assert isinstance(d, Const) and d.value == 0.0


@pytest.mark.parametrize("text,kind", [
    ("exp(1000)*q0", Exp), ("10^400.5*q0", Pow), ("cos(1e308*10)*q0", Cos),
])
def test_folding_leaves_a_raising_call_in_place(text, kind):
    # the call overflows or leaves the domain of math; evaluation reports it
    e = parse(text, 1)
    assert isinstance(e, Mul) and type(e.a) is kind and type(e.a.children()[0]) is Const
    with pytest.raises(EvalDomainError):
        ev(e, q=[1.0])


def test_folding_keeps_the_domain_tests():
    assert type(parse("ln(0)")) is Ln and type(parse("sqrt(-1)")) is Sqrt
    # math takes these, the domain tests refuse them: a NaN (inf - inf), a
    # zero base, a negative base with an integer exponent beyond expansion
    nan = "(1e308*10 - 1e308*10)"
    assert type(parse(f"ln{nan}")) is Ln and type(parse(f"sqrt{nan}")) is Sqrt
    assert [type(parse(text)) for text in ["0^0.5", "(-2)^0.5", "(-2)^20"]] == [Pow] * 3
    assert parse("sqrt(4)").value == 2.0 and parse("4^0.5").value == 2.0
    assert parse("ln(1)").value == 0.0 and parse("cos(0)").value == 1.0


# --------------------------------------------------------------------------
# power-of-two folds: exact, since scaling by a power of two commutes with
# rounding while nothing overflows or is subnormal


def test_a_tree_added_to_itself_is_twice_it():
    x = Sin(Q(0))
    e = add(x, x)
    assert type(e) is Mul and e.a.value == 2.0 and e.b is x
    # two equal trees that are not one node keep their sum
    assert type(add(Sin(Q(0)), Sin(Q(0)))) is Add


@pytest.mark.parametrize("build", [
    lambda c, k, x: mul(c, Mul(k, x)), lambda c, k, x: mul(c, Mul(x, k)),
    lambda c, k, x: mul(Mul(k, x), c), lambda c, k, x: mul(Mul(x, k), c),
], ids=["c*(k*x)", "c*(x*k)", "(k*x)*c", "(x*k)*c"])
def test_a_power_of_two_factor_folds_into_a_product_in_any_operand_order(build):
    x = Sin(Q(0))
    for c, k in [(2.0, 0.7), (0.7, 2.0), (-0.25, 3.0)]:
        e = build(Const(c), Const(k), x)
        assert type(e) is Mul and e.a.value == c * k and e.b is x
    # a product that folds to one is its other factor
    assert build(Const(0.5), Const(2.0), x) is x


def test_a_product_over_a_power_of_two_folds():
    x = Sin(Q(0))
    for num in [Mul(Const(0.7), x), Mul(x, Const(0.7))]:
        e = div(num, Const(4.0))
        assert type(e) is Mul and e.a.value == 0.175 and e.b is x
    # the derivation's m * v0^2 / 2 and its momentum m * v0
    assert str(parse("1.3*v0^2/2", 1)) == "0.65 * v0 * v0"
    assert str(parse("1.3*v0^2/2", 1).diff(V(0))) == "1.3 * v0"
    assert type(parse("2*q0/2", 1)) is Q


def test_the_quotient_rule_over_a_power_of_two_divides_the_derivative():
    assert str(Div(Sin(Q(0)), Const(4.0)).diff(Q(0))) == "cos(q0) / 4"
    assert str(parse("v0^2/2", 1).diff(V(0))) == "v0"
    # a constant numerator derivative is zero, as before
    assert Div(Theta(), Const(2.0)).diff(Q(0)).value == 0.0


@pytest.mark.parametrize("c, k, den", [(1e308, 2.0, 0.5), (2.0 ** -1000, 2.0 ** -60, 2.0 ** 60)],
                         ids=["overflow", "subnormal"])
def test_a_fold_whose_constant_is_not_normal_keeps_its_factors(c, k, den):
    inner = Mul(Const(k), Q(0))
    e = mul(Const(c), inner)
    assert type(e) is Mul and e.a.value == c and e.b is inner
    assert type(div(Mul(Const(c), Q(0)), Const(den))) is Div


def test_constants_without_a_power_of_two_keep_their_factors():
    inner = Mul(Const(5.0), Q(0))
    e = mul(Const(3.0), inner)
    assert type(e) is Mul and e.a.value == 3.0 and e.b is inner
    # factor order is kept where nothing folds
    x = Cos(Q(0))
    assert str(mul(x, Const(0.7))) == "cos(q0) * 0.7" and str(mul(Const(0.7), x)) == "0.7 * cos(q0)"


def test_a_quotient_by_other_than_a_power_of_two_keeps_the_quotient_rule():
    e = parse("v0^2/3", 1)
    assert type(e) is Div and e.b.value == 3.0
    assert str(e.diff(V(0))) == "6 * v0 / 9"
    assert type(div(Mul(Const(0.7), Q(0)), Const(3.0))) is Div


SIGNS = st.sampled_from([1.0, -1.0])
POWERS_OF_TWO = st.builds(lambda j, sign: sign * 2.0 ** j, st.integers(-1074, 1023), SIGNS)
OTHER_CONSTANTS = st.builds(
    lambda k, sign: sign * k,
    st.one_of(st.sampled_from([0.7, 1.3, 3.0, 0.1, 1e-5, 6.02e23]),
              st.floats(min_value=2.0 ** -60, max_value=2.0 ** 60)),
    SIGNS)
NORMAL_X = st.builds(lambda x, sign: sign * x,
                     st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max), SIGNS)


def normal(*values):
    return all(math.isfinite(x) and abs(x) >= sys.float_info.min for x in values)


# rewrite -> (tree of c, k and the leaf q0, the unfolded chain in floats
# with each of its intermediates); c is a power of two or not, and only a
# power of two may fold
FOLDS = {
    "c*(k*x)": (lambda c, k, x: mul(Const(c), mul(Const(k), x)),
                lambda c, k, x: [k * x, c * (k * x)]),
    "(x*k)*c": (lambda c, k, x: mul(mul(x, Const(k)), Const(c)),
                lambda c, k, x: [x * k, (x * k) * c]),
    "k*(c*x)": (lambda c, k, x: mul(Const(k), mul(Const(c), x)),
                lambda c, k, x: [c * x, k * (c * x)]),
    "(k*x)/c": (lambda c, k, x: div(mul(Const(k), x), Const(c)),
                lambda c, k, x: [k * x, (k * x) / c]),
    "k*x + k*x": (lambda c, k, x: add(*[mul(Const(k), x)] * 2),
                  lambda c, k, x: [k * x, k * x + k * x]),
    # d(k*x^2/c)/dx, which the quotient rule wrote (k*(x + x))*c/(c*c)
    "d(k*x^2/c)": (lambda c, k, x: div(mul(Const(k), power(x, 2)), Const(c)).diff(x),
                   lambda c, k, x: [x + x, k * (x + x), k * (x + x) * c, c * c,
                                    k * (x + x) * c / (c * c)]),
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(fold=st.sampled_from(sorted(FOLDS)), c=st.one_of(POWERS_OF_TWO, OTHER_CONSTANTS),
       k=OTHER_CONSTANTS, x=NORMAL_X)
def test_power_of_two_folds_give_the_unfolded_float_bit_for_bit(fold, c, k, x):
    tree, chain = FOLDS[fold]
    try:
        values = chain(c, k, x)
    except ZeroDivisionError:  # c * c underflowed
        values = [0.0]
    assume(normal(c, k, x, *values))
    folded = tree(c, k, Q(0))
    assert tree_walk_oracle.value(folded, 0.0, [x], [0.0]).hex() == values[-1].hex()


# --------------------------------------------------------------------------
# depth bound


def nested_sin(depth):
    return "sin(" * depth + "q0" + ")" * depth


def test_parse_bounds_the_tree_depth():
    limit = expressions.MAX_DEPTH
    # a sum of k terms is a tree k deep, one sin per level adds one
    assert parse("q0" + " + q0" * (limit - 1), 1) is not None
    with pytest.raises(ExpressionError, match=f"deeper than {limit} levels"):
        parse("q0" + " + q0" * limit, 1)
    parse(nested_sin(limit - 1), 1)
    with pytest.raises(ExpressionError, match=f"deeper than {limit} levels"):
        parse(nested_sin(limit), 1)
    # an integer power expands into a product chain, which counts too
    with pytest.raises(ExpressionError, match="tree deeper"):
        parse("(" * 7 + "q0" + "^16)" * 7, 1)


def test_parse_bounds_the_nesting_before_descending_further():
    limit = expressions.MAX_DEPTH
    assert type(parse("(" * limit + "q0" + ")" * limit, 1)) is Q
    for text in ["(" * (limit + 1) + "q0" + ")" * (limit + 1),
                 "(" * 5000 + "q0" + ")" * 5000,
                 "-" * (limit + 1) + "q0"]:
        with pytest.raises(ParseError, match=f"nested deeper than {limit} levels"):
            parse(text, 1)
