"""Expression core: parsing, evaluation, symbolic differentiation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracnoether.expressions import (
    Const,
    EvalDomainError,
    EvalPoint,
    ParseError,
    Q,
    Theta,
    V,
    add,
    cos,
    diff,
    div,
    evaluate,
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
    return evaluate(e, EvalPoint(theta, q, v))


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


def test_render_round_trips_through_parser():
    source = "(v0^2 - q0^2)/2 + sin(theta)*q0 - 3/(2 + q0^2)"
    e = parse(source, 1)
    e2 = parse(str(e), 1)
    for theta, qv in [(0.3, 0.7), (-1.2, 0.1), (2.0, -0.4)]:
        assert ev(e, theta, [qv], [qv]) == pytest.approx(
            ev(e2, theta, [qv], [qv]), rel=1e-15
        )


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


def test_eval_point_validation():
    with pytest.raises(ValueError):
        EvalPoint(0.0, [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        EvalPoint(0.0, [], [])


def test_eval_is_pure_and_bit_exact():
    e = parse("sin(theta*q0) + exp(v0/3) - q0^3", 1)
    p = EvalPoint(0.7, [1.3], [-0.2])
    first = evaluate(e, p)
    for _ in range(5):
        assert evaluate(e, p) == first


def test_grid_evaluation_matches_scalar():
    e = parse("sin(theta)*q0 + v0^2/(2 + q0^2)", 1)
    theta = np.linspace(-1.0, 1.0, 11)
    q = np.linspace(0.5, 1.5, 11)[:, None]
    v = np.linspace(-1.0, 1.0, 11)[:, None]
    grid_vals = evaluate_on_grid(e, theta, q, v)
    for k in range(11):
        scalar = evaluate(e, EvalPoint(theta[k], [q[k, 0]], [v[k, 0]]))
        assert grid_vals[k] == pytest.approx(scalar, rel=1e-15, abs=1e-300)


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
    d = diff(e, V(0))
    for val in (0.0, 1.5, -2.0):
        assert ev(d, v=[val]) == pytest.approx(val, rel=1e-15, abs=1e-300)


def test_diff_sin():
    d = diff(parse("sin(q0)", 1), Q(0))
    for val in (0.0, 0.9, -2.2):
        assert ev(d, q=[val]) == pytest.approx(math.cos(val), rel=1e-14)


def test_diff_wrt_absent_variable_is_zero():
    d = diff(parse("v0^2/2", 1), Q(0))
    assert isinstance(d, Const) and d.value == 0.0


def test_diff_requires_variable_node():
    with pytest.raises(ValueError):
        diff(parse("q0", 1), parse("q0 + 1", 1))


def test_diff_closed_over_node_set():
    from fracnoether.expressions import walk

    e = parse("exp(theta*v0) / sqrt(1 + q0^2) - ln(2 + v0^2)", 1)
    d = diff(diff(e, V(0)), Q(0))
    known = (
        "Const Theta Q V Neg Sin Cos Exp Ln Sqrt Pow Add Sub Mul Div".split()
    )
    for node in walk(d):
        assert type(node).__name__ in known


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
    d = diff(e, Theta())
    assert isinstance(d, Const) and d.value == 0.0
