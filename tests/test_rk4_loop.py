"""The compiled RK4 loop: trees written into it against callables called per stage.

``ivp_solve`` writes an :class:`ExplicitOde` right-hand side and
expression integrands into its compiled loop, and calls anything else
once per stage.  Both forms of one problem must give the same bytes, or
the same exception class and message.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from fracnoether import expressions
from fracnoether.charges import (
    SymmetryGenerator,
    energy_correction_integrand,
    gauge_rate_from_reduced_condition,
    momentum_correction_integrand,
    standard_integrands,
)
from fracnoether.euler_lagrange import (
    BoundaryConditions,
    ExplicitOde,
    FractionalParams,
    SingularHessianError,
    VariationalProblem,
)
from fracnoether.expressions import EvalDomainError, ExpressionError, parse
from fracnoether.integrators import BlowUpError, bvp_shoot, ivp_solve


class OnlyEvaluate:
    """An integrand with nothing but an ``evaluate`` method."""

    def __init__(self, expr):
        self._expr = expr

    def evaluate(self, theta, q, v):
        return self._expr.evaluate(theta, q, v)


def problem(text, n, alpha=0.6):
    return VariationalProblem(
        n=n,
        lagrangian=parse(text, n),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=2.0),
    )


def inlined(prob, q0, v0, steps, integrands):
    return ivp_solve(ExplicitOde(prob), 0.0, 1.0, q0, v0, steps, integrands=integrands)


def called(prob, q0, v0, steps, integrands):
    ode = ExplicitOde(prob)
    return ivp_solve(
        lambda theta, q, v: ode(theta, q, v), 0.0, 1.0, q0, v0, steps,
        integrands={name: OnlyEvaluate(g) for name, g in integrands.items()},
    )


def outcome(solve, *args):
    """('ok', exact bytes of q, v and channels) or ('raise', class, message)."""
    try:
        traj = solve(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return ("raise", type(exc), str(exc))
    channels = tuple((name, c.tobytes()) for name, c in traj.channels.items())
    return ("ok", traj.q.tobytes(), traj.v.tobytes(), channels)


def both(prob, q0, v0, steps, integrands):
    """The common outcome of the two forms; fails when they differ."""
    a = outcome(inlined, prob, q0, v0, steps, integrands)
    assert a == outcome(called, prob, q0, v0, steps, integrands)
    return a


# --------------------------------------------------------------------------
# Random corpus-grammar Lagrangians and integrands

COEFFICIENTS = st.sampled_from(["0.5", "0.7", "1.3", "1.6"])
KINETIC = {
    1: ["{c}*v0^2/2", "(1 + {c}*q0^2)*v0^2/2", "exp(theta/4)*v0^2/2", "{c}*v0^2/2 + theta*q0*v0",
        "v0"],
    2: ["({c}*v0^2 + {c}*v1^2)/2", "v0^2/2 + v0*v1/3 + v1^2",
        "(2 + sin(q1))*v0^2/2 + v1^2/2 + theta*q0*v1", "(v0 + v1)^2/2",
        # pivot swaps: folded with a nonzero factor, and at run time,
        # singular at q0 = +-1
        "v0^2/8 + v0*v1 + v1^2", "(1 + q0^2)*v0^2/8 + v0*v1 + v1^2"],
}
POTENTIAL = {
    1: ["{c}*q0^2/2", "{c}*cos(q0)", "{c}*q0^4/4", "{c}*theta*q0/2", "{c}*ln(q0)",
        "{c}*sqrt(q0)", "{c}*exp(q0)", "{c}*q0^1.5", "{c}*q0"],
    2: ["{c}*(q0 - q1)^2/2", "{c}*cos(q0)", "{c}*ln(q1)", "{c}*q1^1.5", "{c}*exp(q0)*q1"],
}
INTEGRANDS = {
    1: ["v0*q0", "ln(q0)", "sqrt(v0)", "exp(q0)*v0", "cos(theta)*q0", "q0^1.5", "1/q0", "theta"],
    2: ["v0*q1", "ln(q1)", "sqrt(v0 + v1)", "exp(q0)*v1", "q1^1.5", "1/(q0 - q1)"],
}
GENERATORS = {
    1: [("1", ["0"]), ("0", ["1"]), ("theta/2", ["q0/2"]), ("sin(theta)", ["cos(q0)"])],
    2: [("1", ["0", "0"]), ("0", ["1", "1"]), ("theta/2", ["q0/2", "q1/2"]),
        ("sin(theta)", ["cos(q0)", "q1^2/4"])],
}
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 0.5, -1.0, 2.0]),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 2))
    terms = [draw(st.sampled_from(KINETIC[n]))]
    terms += draw(st.lists(st.sampled_from(POTENTIAL[n]), max_size=2))
    text = " + ".join(t.format(c=draw(COEFFICIENTS)) for t in terms)
    prob = problem(text, n, alpha=draw(st.sampled_from([0.5, 0.8, 1.0])))

    integrands = {}
    for i, source in enumerate(draw(st.lists(st.sampled_from(INTEGRANDS[n]), max_size=2))):
        integrands[f"g{i}"] = parse(source, n)
    if draw(st.booleans()):
        tau, xi = draw(st.sampled_from(GENERATORS[n]))
        gen = SymmetryGenerator(parse(tau, n), [parse(x, n) for x in xi])
        integrands["Lambda"] = gauge_rate_from_reduced_condition(prob, gen)
    if draw(st.booleans()):
        integrands["energy"] = energy_correction_integrand(prob)
    if draw(st.booleans()):
        integrands["momentum"] = momentum_correction_integrand(prob, n - 1)

    q0 = draw(st.lists(VALUES, min_size=n, max_size=n))
    v0 = draw(st.lists(VALUES, min_size=n, max_size=n))
    return prob, q0, v0, draw(st.integers(2, 24)), integrands


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cases())
def test_inlined_loop_matches_call_per_stage_loop(case):
    both(*case)


# --------------------------------------------------------------------------
# Which error comes first


def test_rhs_error_at_stage_three_beats_channel_error_at_stage_one():
    # From q0 = 1e-12 at rest the acceleration ln(q0) + 1 is about -27, so
    # q turns negative first at stage 3, where ln(q0) in the force fails;
    # the channel ln(v0) fails at stage 1, at v0 = 0.
    prob = problem("v0^2/2 + q0*ln(q0)", 1)
    channel = {"g": parse("ln(v0)", 1)}
    kind, cls, message = both(prob, [1e-12], [0.0], 10, channel)
    assert (kind, cls) == ("raise", EvalDomainError)
    assert message.startswith("ln of non-positive value -0.06")
    # without the failing force term, the channel's own error shows
    free = problem("v0^2/2", 1)
    assert both(free, [1e-12], [0.0], 10, channel) == (
        "raise", EvalDomainError, "ln of non-positive value 0.0",
    )


def test_singular_mass_against_force_domain_error():
    # one dof: the mass is checked before any force node
    kind, cls, message = both(problem("v0 + q0^0.5", 1), [-1.0], [0.0], 10, {})
    assert (kind, cls) == ("raise", SingularHessianError)
    assert message == "singular velocity Hessian at theta = 0.0 (condition estimate inf)"
    # two dofs: the force is computed before the mass goes to the solver,
    # even when the mass is constant and known singular at compile time
    coupled = problem("(v0 + v1)^2/2 + q0^0.5", 2)
    assert both(coupled, [-1.0, 0.0], [0.0, 0.0], 10, {}) == (
        "raise", EvalDomainError, "power with real exponent needs a positive base, got -1.0",
    )
    mixed = problem("ln(q0)*v0^2/2 + v1^2/2 + sqrt(q1)*q0", 2)
    assert both(mixed, [-1.0, -1.0], [0.0, 0.0], 10, {}) == (
        "raise", EvalDomainError, "sqrt of negative value -1.0",
    )
    kind, cls, message = both(coupled, [1.0, 0.0], [0.0, 0.0], 10, {})
    assert (kind, cls) == ("raise", SingularHessianError)
    assert message == "singular velocity Hessian at theta = 0.0 (condition estimate inf)"


def test_exp_overflow_is_a_blow_up_at_the_end_of_its_step():
    # q = theta^2/2; exp(exp(exp(20 q))) overflows once 20 q > 1.88: not
    # yet at q = 0.08, the stage-4 point of the step ending at 0.4, but at
    # q = 0.1, the stage-2 point of the step ending at 0.5
    prob = problem("v0^2/2 + q0", 1, alpha=1.0)
    channel = {"g": parse("exp(exp(exp(20*q0)))", 1)}
    assert both(prob, [0.0], [0.0], 10, channel) == (
        "raise", BlowUpError, "non-finite state detected at theta = 0.5",
    )
    with pytest.raises(BlowUpError) as err:
        inlined(prob, [0.0], [0.0], 10, channel)
    assert isinstance(err.value.__cause__, OverflowError)


def test_integrand_index_beyond_n_keeps_its_message():
    prob = problem("v0^2/2 - q0^2/2", 1)
    assert both(prob, [0.5], [0.0], 10, {"g": parse("sin(q0) + q3")}) == (
        "raise", ExpressionError, "variable q3 out of range for 1 degrees of freedom",
    )
    # a domain error met before the load still comes first
    assert both(prob, [-1.0], [0.0], 10, {"g": parse("ln(q0) + v2")}) == (
        "raise", EvalDomainError, "ln of non-positive value -1.0",
    )


def test_state_dependent_singular_mass_keeps_its_estimate():
    # the mass [[(1 + q0^2)/4, 1], [1, 2]] is singular at q0 = 1: after the
    # swap its second pivot is exactly zero there, and tiny just beside
    prob = problem("(1 + q0^2)*v0^2/8 + v0*v1 + v1^2 - q1^2/2", 2)
    for q0, estimate in [(1.0, "inf"), (1.0 + 1e-15, "1.801e+15"), (-1.0, "inf")]:
        assert both(prob, [q0, 0.0], [0.0, 0.0], 10, {}) == (
            "raise", SingularHessianError,
            f"singular velocity Hessian at theta = 0.0 (condition estimate {estimate})",
        )
    kind, *_ = both(prob, [0.5, 0.0], [0.0, 0.3], 10, {"g": parse("v0*q1", 2)})
    assert kind == "ok"


@pytest.mark.parametrize("text", [
    # constant coupled mass whose first pivot is a swap
    "v0^2/8 + v0*v1 + v1^2 + v1*v2/3 + v2^2/2 - (q0 - q1)^2/2 - q2^2/2 + cos(q0)",
    # state-dependent mass, coupled in every entry
    "(1 + q0^2)*v0^2/2 + v0*v1/3 + (2 + sin(q2))*v1^2/2 + q1*v1*v2/4 + v0*v2/5"
    " + exp(theta/4)*v2^2/2 - q0*q1 + cos(q2)",
])
def test_three_dof_loop_matches_call_per_stage_loop(text):
    prob = problem(text, 3)
    integrands = {"g": parse("v0*q2 + v1^2", 3),
                  "energy": energy_correction_integrand(prob)}
    kind, *_ = both(prob, [0.3, -0.2, 0.1], [0.1, 0.4, -0.3], 24, integrands)
    assert kind == "ok"


# --------------------------------------------------------------------------
# One compiled loop per integrand set, with a constant mass folded into it


def test_newton_shooting_compiles_one_loop_per_integrand_set(monkeypatch):
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append((filename, source))
        return compile(source, filename, mode)

    monkeypatch.setattr(expressions, "compile", counting_compile, raising=False)
    prob = VariationalProblem(
        n=2,
        lagrangian=parse("(1.2*v0^2 + 1.4*v1^2)/2 + 0.6*cos(q0) - 0.3*(q0 - q1)^2/2", 2),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=0.6, observer_time=2.0),
        boundary=BoundaryConditions([0.0, 0.1], [0.5, 0.3]),
    )
    gen = SymmetryGenerator(parse("1", 2), [parse("0", 2)] * 2)
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    integrands = standard_integrands(prob, [gen], energy=True)
    traj, report = bvp_shoot(prob, steps=200, integrands=integrands)
    assert report.converged and report.iterations >= 2  # 7 or more solves
    assert set(traj.channels) == {"Lambda", "energy_correction"}

    loops = [source for filename, source in compiled if filename == "<compiled loop>"]
    assert ["c0 = 0.0" in source for source in loops] == [False, True]
    # the ODE's net-force and mass functions; the integrands compile nothing
    assert [filename for filename, _ in compiled].count("<compiled compiled>") == 2
    assert len(compiled) == 4


def loop_source(text, n):
    sources = []

    def recording_compile(source, filename, mode):
        sources.append((filename, source))
        return compile(source, filename, mode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expressions, "compile", recording_compile, raising=False)
        inlined(problem(text, n), [0.1] * n, [0.2] * n, 4, {})
    (source,) = [source for filename, source in sources if filename == "<compiled loop>"]
    return source


def test_constant_mass_is_folded_into_the_loop():
    # the coupled benchmark family: a constant diagonal mass leaves the
    # right-hand-side arithmetic only, with no solver call and no pivot test
    source = loop_source("(1.2*v0^2 + 1.4*v1^2)/2 - 0.7*(q0 - q1)^2/2", 2)
    assert "_linsolve" not in source and "abs(" not in source
    # a state-dependent mass keeps the run-time pivot choice and singular test
    source = loop_source("(1 + q0^2)*v0^2/8 + v0*v1 + v1^2", 2)
    assert re.search(r"if \w+ > t\d+: t\d+, t\d+ = 1, \w+", source)
    assert "_linsolve.singular_error(" in source
