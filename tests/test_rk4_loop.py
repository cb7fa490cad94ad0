"""The compiled RK4 loop: trees written into it against callables called
per stage, and against a node-by-node oracle.

``ivp_solve`` writes an :class:`ExplicitOde` right-hand side and
expression integrands into its compiled loop, and calls anything else
once per stage.  Both forms of one problem must give the same bytes, or
the same exception class and message, and so must the plain RK4 of
``tree_walk_oracle``, which shares no code with the emitter, and the
Newton loop of a shoot, which reads the kernel of the right-hand side
from its values on the grid, evaluated before it.
"""

import ast
import collections
import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tree_walk_oracle
from fracnoether import expressions, integrators
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
from fracnoether.integrators import BlowUpError, Sample, all_finite, bvp_shoot, ivp_solve


def tool(name):
    """The module of ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loop_ops, golden = tool("loop_ops"), tool("golden")


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


def walked(prob, q0, v0, steps, integrands):
    qs, vs, channels = tree_walk_oracle.rk4(ExplicitOde(prob), 0.0, 1.0, q0, v0, steps, integrands)
    return SimpleNamespace(q=tuple(map(tuple, qs)), v=tuple(map(tuple, vs)),
                           channels={name: tuple(c) for name, c in channels.items()})


def shared(prob, q0, v0, steps, integrands):
    """``ivp_solve``, after the Newton loop of a shoot on its grid, which
    reads the kernel column the shoot builds, has run from the same state;
    that loop must return the solve's last row, or raise what the solve
    raises."""
    ode = ExplicitOde(prob)
    final_state = integrators._final_state(ode, 0.0, 1.0, q0, steps)
    try:
        last = final_state(v0)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            ivp_solve(ode, 0.0, 1.0, q0, v0, steps)
    else:
        traj = ivp_solve(ode, 0.0, 1.0, q0, v0, steps)
        assert repr(last) == repr((*traj.q[-1], *traj.v[-1]))
    return ivp_solve(ode, 0.0, 1.0, q0, v0, steps, integrands=integrands)


def outcome(solve, *args):
    """('ok', exact q, v and channels) or ('raise', class, message); the
    repr of a float is exact, and tells -0.0 from 0.0."""
    try:
        traj = solve(*args)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return ("raise", type(exc), str(exc))
    channels = tuple((name, repr(c)) for name, c in traj.channels.items())
    return ("ok", repr(traj.q), repr(traj.v), channels)


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
        "v0^2/8 + v0*v1 + v1^2", "(1 + q0^2)*v0^2/8 + v0*v1 + v1^2",
        # a mass entry that depends on theta alone
        "exp(theta/4)*v0^2/2 + v0*v1/3 + v1^2"],
}
POTENTIAL = {
    1: ["{c}*q0^2/2", "{c}*cos(q0)", "{c}*q0^4/4", "{c}*theta*q0/2", "{c}*ln(q0)",
        "{c}*sqrt(q0)", "{c}*exp(q0)", "{c}*q0^1.5", "{c}*q0"],
    2: ["{c}*(q0 - q1)^2/2", "{c}*cos(q0)", "{c}*ln(q1)", "{c}*q1^1.5", "{c}*exp(q0)*q1"],
}
# the theta-only guarded trees are shared by stages 2 and 3, the commuted
# products are one value, and the swapped differences are two
INTEGRANDS = {
    1: ["v0*q0", "ln(q0)", "sqrt(v0)", "exp(q0)*v0", "cos(theta)*q0", "q0^1.5", "1/q0", "theta",
        "ln(theta + 0.25)", "1/(theta - 0.5)", "q0*v0 + v0*q0", "(q0 - v0)*(v0 - q0)"],
    2: ["v0*q1", "ln(q1)", "sqrt(v0 + v1)", "exp(q0)*v1", "q1^1.5", "1/(q0 - q1)",
        "ln(theta + 0.25)", "1/(theta - 0.5)", "q0*v0 + v0*q0", "(q0 - v0)*(v0 - q0)"],
}
GENERATORS = {
    1: [("1", ["0"]), ("0", ["1"]), ("theta/2", ["q0/2"]), ("sin(theta)", ["cos(q0)"])],
    2: [("1", ["0", "0"]), ("0", ["1", "1"]), ("theta/2", ["q0/2", "q1/2"]),
        ("sin(theta)", ["cos(q0)", "q1^2/4"])],
}
# Terms whose right-hand side can raise on the drawn states: a domain
# error, or a mass singular everywhere or at q0 = +-1.  Half the cases
# leave them out, so that their integrands are reached and a wrong value
# of an integrand shows.
RAISING = {"v0", "(v0 + v1)^2/2", "(1 + q0^2)*v0^2/8 + v0*v1 + v1^2", "{c}*ln(q0)",
           "{c}*sqrt(q0)", "{c}*q0^1.5", "{c}*ln(q1)", "{c}*q1^1.5"}
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 0.5, -1.0, 2.0]),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 2))
    regular = draw(st.booleans())
    kinetic, potential = ([t for t in terms if not (regular and t in RAISING)]
                          for terms in (KINETIC[n], POTENTIAL[n]))
    terms = [draw(st.sampled_from(kinetic))]
    terms += draw(st.lists(st.sampled_from(potential), max_size=2))
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cases())
def test_inlined_loop_matches_tree_walk_oracle(case):
    assert outcome(inlined, *case) == outcome(walked, *case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cases())
def test_loops_reading_columns_match_tree_walk_oracle(case):
    assert outcome(shared, *case) == outcome(walked, *case)


# --------------------------------------------------------------------------
# Trees sampled in the loop


def sampled(prob, integrands):
    """Samples of a sweep's kinds for a case: each integrand tree, the
    energy and the action integrand alone, and each plus 0.75 and -0.0
    times the first channel."""
    trees = [*integrands.values(), prob.energy, prob.action_integrand]
    samples = [Sample(tree) for tree in trees]
    for name in list(integrands)[:1]:
        samples += [Sample(tree, w, name) for tree in trees for w in (0.75, -0.0)]
    return samples


def sampling(samples):
    def solve(prob, q0, v0, steps, integrands):
        ode = ExplicitOde(prob).with_samples(samples)
        return ivp_solve(ode, 0.0, 1.0, q0, v0, steps, integrands=integrands)
    return solve


def column(sample_of, s):
    """('ok', a sample's exact column) or ('raise', class, message)."""
    try:
        return ("ok", repr(sample_of(s)))
    except (ArithmeticError, ValueError) as exc:
        return ("raise", type(exc), str(exc))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cases())
def test_samples_taken_in_the_loop_are_the_trees_evaluated_at_each_node(case):
    prob, _, _, _, integrands = case
    samples = sampled(prob, integrands)
    # sampling changes nothing of the solve, its values or its first error
    kind, *_ = expected = outcome(inlined, *case)
    assert outcome(sampling(samples), *case) == expected
    if kind == "ok":
        traj, plain = sampling(samples)(*case), inlined(*case)
        assert not plain.samples and all(map(all_finite, traj.samples.values()))
        for s in samples:
            assert column(traj.sample, s) == column(plain.sample, s)


def test_a_benchmark_charge_is_read_from_the_loop(monkeypatch):
    prob = problem(FAMILIES["oscillator"][0], 1)
    samples = sampled(prob, benchmark_integrands(prob))
    traj = sampling(samples)(prob, [0.1], [0.2], 8, benchmark_integrands(prob))
    assert list(traj.samples) == samples
    monkeypatch.setattr(integrators, "evaluate_on_grid", None)
    for s in samples:
        assert traj.sample(s) is traj.samples[s]


@pytest.mark.parametrize("case", ["sweep_oscillator_1cpu", "charge_driven_bvp"])
def test_a_command_reads_every_charge_from_the_loop(case, tmp_path, monkeypatch):
    # the sweep reports classical charges and the action; the charge
    # command's energy and momentum fail their preconditions
    (tmp_path / "plain").mkdir()
    (tmp_path / "loop_only").mkdir()
    plain = golden.run_case(case, tmp_path / "plain")

    def no_grid_evaluation(*args):
        raise AssertionError("a charge was evaluated point by point")

    monkeypatch.setattr(integrators, "evaluate_on_grid", no_grid_evaluation)
    assert golden.run_case(case, tmp_path / "loop_only") == plain


def test_a_sampled_solve_reads_no_column(made):
    # the net force of a driven family holds two theta-only subtrees, the
    # kernel and 0.4*theta/2; after a shoot on the grid has evaluated the
    # kernel's column, a solve sampling the net force itself still writes
    # both out, at every node and at the last, and reads no column
    prob = problem("1.3*v0^2/2 - 0.7*q0^2/2 + 0.4*theta*q0/2", 1)
    ode = ExplicitOde(prob)
    integrators._final_state(ode, 0.0, 1.0, [0.4], 8)
    samples = [Sample(tree) for tree in ode.net]
    sources = []

    def record(filename, source, fn, emitted):
        sources.append(source)
        return fn

    with made.watching(record):
        traj = ivp_solve(ode.with_samples(samples), 0.0, 1.0, [0.4], [0.7], 8)
    (source,) = sources
    assert "= columns" not in source and not re.search(r"\b[nm]0\b", source)
    assert re.search(r"_c\d+ - end\b", source)
    plain = inlined(prob, [0.4], [0.7], 8, {})
    assert repr(traj.q) == repr(plain.q) and repr(traj.v) == repr(plain.v)
    for s in samples:
        assert repr(traj.samples[s]) == repr(plain.sample(s))


def test_a_failing_sample_leaves_the_others_to_the_grid_evaluation():
    # ln(q0) fails once q0 < 0 at theta ~ 0.5; until then every sample is taken
    prob = problem("v0^2/2", 1)
    samples = [Sample(parse("ln(q0)", 1)), Sample(parse("v0*v0", 1))]
    traj = sampling(samples)(prob, [0.5], [-1.0], 10, {})
    plain = inlined(prob, [0.5], [-1.0], 10, {})
    assert not traj.samples
    assert column(traj.sample, samples[0]) == (
        "raise", EvalDomainError, "ln of non-positive value")
    assert column(traj.sample, samples[1]) == column(plain.sample, samples[1])
    assert column(traj.sample, samples[1])[0] == "ok"


def test_the_last_row_checks_the_state_it_reads_again():
    # from q0 = 1 at v0 = -1 the classical free particle reaches q0 = 0.0
    # exactly at theta = 1 in 4 steps: each step's check of q0 at stage 1
    # passes, and the last row's samples read the same locals after the
    # last update, so they check them again
    prob = problem("v0^2/2", 1, alpha=1.0)
    samples = [Sample(parse("q0^2.5", 1)), Sample(parse("v0*v0", 1))]
    traj = sampling(samples)(prob, [1.0], [-1.0], 4, {})
    assert traj.q[-1] == (0.0,) and not traj.samples
    assert column(traj.sample, samples[0]) == (
        "raise", EvalDomainError, "power with real exponent needs a positive base")
    assert column(traj.sample, samples[1])[0] == "ok"


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


@pytest.mark.parametrize("channel", ["1/exp(-q0*1e-306)", "sin(q0)"])
def test_a_state_that_leaves_the_floats_blows_up_at_the_end_of_its_step(channel):
    # at v0 = 4e307 the stage points of the first step stay finite, but
    # the weighted sum of its stage velocities overflows, so q0 is inf at
    # theta = 0.25; at the next step the channel would raise on it, a
    # division by zero or the ValueError of sin(inf) at theta = 0.5
    prob = problem("v0^2/2", 1, alpha=1.0)
    args = (prob, [0.0], [4e307], 4, {"g": parse(channel, 1)})
    expected = ("raise", BlowUpError, "non-finite state detected at theta = 0.25")
    assert both(*args) == outcome(walked, *args) == expected
    with pytest.raises(BlowUpError) as err:
        inlined(*args)
    # and the error the later step raised is not shown with it
    assert err.value.theta == 0.25 and err.value.__cause__ is None
    assert err.value.__suppress_context__ or err.value.__context__ is None


def test_integrand_index_beyond_n_keeps_its_message():
    prob = problem("v0^2/2 - q0^2/2", 1)
    assert both(prob, [0.5], [0.0], 10, {"g": parse("sin(q0) + q3")}) == (
        "raise", ExpressionError, "variable q3 out of range for 1 degrees of freedom",
    )
    # a domain error met before the load still comes first
    assert both(prob, [-1.0], [0.0], 10, {"g": parse("ln(q0) + v2")}) == (
        "raise", EvalDomainError, "ln of non-positive value -1.0",
    )


# Theta-only subtrees that leave their domain partway through the grid, with
# the step counts that put the exit where it is meant to be: 1/(theta - 0.5)
# at a node (two steps) and at a half-node (three), sqrt(0.7 - theta) once
# past 0.7, and ln(theta) at the first node, a = 0.
DOMAIN_EXITS = [("1/(theta - 0.5)", 2), ("1/(theta - 0.5)", 3), ("sqrt(0.7 - theta)", 8),
                ("ln(theta)", 8)]


def raised(solve, *args) -> tuple:
    """The class, message, theta and cause chain of what ``solve(*args)`` raises."""
    with pytest.raises((ArithmeticError, ValueError, RuntimeError)) as err:
        solve(*args)
    exc = err.value
    return (type(exc), str(exc), getattr(exc, "theta", None), type(exc.__cause__),
            type(exc.__context__), exc.__suppress_context__)


@pytest.mark.parametrize("text, steps", DOMAIN_EXITS)
@pytest.mark.parametrize("where", ["integrand", "lagrangian"])
def test_a_theta_only_subtree_leaving_its_domain_keeps_its_error(text, steps, where):
    base = "(1.3*v0^2 - 0.7*q0^2)/2"
    prob = problem(base if where == "integrand" else f"{base} + q0*({text})", 1)
    integrands = benchmark_integrands(prob)
    if where == "integrand":
        integrands["g"] = parse(text, 1)
    args = (prob, [0.4], [0.7], steps, integrands)
    got = raised(inlined, *args)
    assert got[0] is EvalDomainError
    assert got == raised(walked, *args) == raised(called, *args) == raised(shared, *args)


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


# The kernel (1 - alpha)/(t - theta) as its own compiled evaluator computes it.
KERNEL = re.compile(r"t0 = _c\d+ - theta\n.*\n +t1 = _c\d+ / t0\n")


def test_newton_shooting_compiles_one_loop_per_integrand_set(defined):
    prob = VariationalProblem(
        n=2,
        lagrangian=parse("(1.2*v0^2 + 1.4*v1^2)/2 + 0.6*cos(q0) - 0.3*(q0 - q1)^2/2", 2),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=0.6, observer_time=2.0),
        boundary=BoundaryConditions([0.0, 0.1], [0.5, 0.3]),
    )
    integrands = benchmark_integrands(prob)
    traj, report = bvp_shoot(prob, steps=200, integrands=integrands)
    assert report.converged and report.iterations >= 2  # 7 or more solves
    assert set(traj.channels) == {"Lambda", "energy_correction"}

    loops = [source for filename, source in defined if filename == "<compiled loop>"]
    assert ["c0 = 0.0" in source for source in loops] == [False, True]
    # the kernel, the one theta-only subtree of the net force, is evaluated
    # on the grid once, by its own evaluator, before the Newton loop, which
    # alone reads it: the solve with the channels writes it out
    (kernel,) = [source for filename, source in defined if filename == "<compiled compiled>"]
    assert KERNEL.search(kernel)
    assert ["n0, m0, = columns" in source for source in loops] == [True, False]
    # and nothing else: the Jacobian is solved on floats, the constant
    # mass is eliminated into the loop's trees, the ODE's own functions
    # are never called, and the integrands compile nothing
    assert [filename for filename, _ in defined] == [
        "<compiled compiled>", "<compiled loop>", "<compiled loop>"]


@pytest.mark.parametrize("alpha, columns", [(0.6, 1), (1.0, 0)])
def test_a_shoot_evaluates_the_kernel_and_no_other_theta_only_tree(defined, alpha, columns):
    # the driven term 0.4*theta/2 is theta-only too, but only the kernel,
    # which alpha = 1 does not have, is evaluated on the grid
    prob = VariationalProblem(
        n=1,
        lagrangian=parse("1.3*v0^2/2 - 0.7*q0^2/2 + 0.4*theta*q0/2", 1),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=2.0),
        boundary=BoundaryConditions([0.0], [0.5]),
    )
    _, report = bvp_shoot(prob, steps=50)
    assert report.converged
    built = [source for filename, source in defined if filename == "<compiled compiled>"]
    assert len(built) == columns
    assert all(KERNEL.search(source) for source in built)


def loop_source(made, prob, integrands=None):
    """The source and the function of the loop ``ivp_solve`` compiles for ``prob``."""
    sources, loops = [], []

    def record(filename, source, fn, emitted):
        if filename == "<compiled loop>":
            sources.append(source)
            loops.append(fn)
        return fn

    ode = ExplicitOde(prob)
    with made.watching(record):
        ivp_solve(ode, 0.0, 1.0, [0.1] * prob.n, [0.2] * prob.n, 4, integrands=integrands)
    (source,) = sources
    (loop,) = loops
    return source, loop


def test_constant_mass_is_folded_into_the_loop(made):
    # the coupled benchmark family: a constant diagonal mass leaves the
    # right-hand-side arithmetic only, with no solver call and no pivot test
    source, _ = loop_source(made, problem("(1.2*v0^2 + 1.4*v1^2)/2 - 0.7*(q0 - q1)^2/2", 2))
    assert "_linsolve" not in source and "abs(" not in source
    # a state-dependent mass keeps the run-time pivot choice and singular
    # test, with its constant entries eliminated at run time too
    source, _ = loop_source(made, problem("(1 + q0^2)*v0^2/8 + v0*v1 + v1^2", 2))
    assert re.search(r"if \w+ > t\d+: t\d+, t\d+ = 1, \w+", source)
    assert "_linsolve.singular_error(" in source
    assert re.search(r"= abs\(_c\d+\)", source)


@pytest.mark.parametrize("text, alpha", [("v0^2/2 + q0", 1.0), ("v0^2/2", 0.5)])
def test_a_constant_mass_divides_no_constant(made, text, alpha):
    # a constant force over a constant mass is folded before the loop is
    # emitted, and a unit mass divides nothing
    source, loop = loop_source(made, problem(text, 1, alpha))
    assert not re.search(r"= _[ck]\d+ / _[ck]\d+$", source, re.MULTILINE)
    ones = [name for name, value in loop.__kwdefaults__.items() if value == 1.0]
    assert not any(re.search(rf"/ {name}\b", source) for name in ones)


# --------------------------------------------------------------------------
# What one step of the loop executes


def benchmark_integrands(prob):
    """The channels a benchmark ``charge`` gives a corpus problem: the gauge
    of the time translation tau = 1, and the energy correction."""
    gen = SymmetryGenerator(parse("1", prob.n), [parse("0", prob.n)] * prob.n)
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    return standard_integrands(prob, [gen], energy=True)


# (bytecode instructions, calls) one step of each family's loop executes,
# pinned for the interpreter they were counted on: the calls are the
# appends of q, v and the two channels to their lists.
STEP_COST = {(3, 11): {"oscillator": (291, 4), "coupled": (537, 6)}}
FAMILIES = {
    "oscillator": ("(1.3*v0^2 - 0.7*q0^2)/2", 1),
    "coupled": ("(1.2*v0^2 + 1.4*v1^2)/2 - 0.7*(q0 - q1)^2/2", 2),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_loop_of_a_benchmark_family_computes_each_value_once(made, family):
    text, n = FAMILIES[family]
    prob = problem(text, n)
    integrands = benchmark_integrands(prob)
    source, loop = loop_source(made, prob, integrands)
    # the state is tested finite after the loop, not in it, a constant
    # nonzero mass, which cannot be singular, is not tested at all, and no
    # error a step raises is caught there (ivp_solve names it)
    assert "_isfinite" not in source and "_SingularHessianError" not in source
    assert "try:" not in source and "except" not in source
    guards = [line.strip() for line in source.splitlines() if re.match(r"\s*if .*: raise ", line)]
    assert len(guards) == len(set(guards)) == 3  # t - theta at th, half and full
    # stages 2 and 3 share t - half, the one theta-only subtree there
    assert source.count("- half") == 1
    args = (prob, [0.1] * n, [0.2] * n, 8, integrands)
    assert outcome(inlined, *args) == outcome(walked, *args)
    expected = STEP_COST.get(sys.version_info[:2])
    if expected is not None:
        nodes = np.linspace(0.0, 1.0, 5).tolist()
        # one list each for q, v and the two channels
        out = [[] for _ in range(2 * n + 2)]
        step = (nodes, 0.25, 0.125, 0.25 / 6.0, [0.1] * n + [0.2] * n, (), out)
        assert loop_ops.step_cost(loop, step) == expected[family]


def newton_loop(made, prob, steps):
    """The source of the Newton loop ``bvp_shoot(prob, steps)`` compiles,
    the loop, and the arguments of its first call."""
    found = []

    def record(filename, source, fn, emitted):
        if filename != "<compiled loop>" or loop_ops.kind(fn) != "last":
            return fn

        def loop(*args):
            found.append((source, fn, args))
            return fn(*args)

        return loop

    with made.watching(record):
        bvp_shoot(prob, steps=steps)
    return found[0]


# The Newton loops of the benchmark's BVP families: (Lagrangian, n, q_b),
# and the (bytecode instructions, calls) of one step.
NEWTON_FAMILIES = {
    "pendulum": ("1.3*v0^2/2 + 0.7*cos(q0)", 1, [2.1]),
    "quartic_bvp": ("1.2*v0^2/2 - 0.6*q0^4/4", 1, [1.1]),
    "coupled_cos": ("(1.2*v0^2 + 1.4*v1^2)/2 + 0.6*cos(q0) - 0.3*(q0 - q1)^2/2", 2, [0.3, 0.4]),
}
NEWTON_STEP_COST = {(3, 11): {"pendulum": (144, 4), "quartic_bvp": (190, 0),
                              "coupled_cos": (360, 4)}}


@pytest.mark.parametrize("family", NEWTON_FAMILIES)
def test_newton_loop_of_a_benchmark_family_reads_the_kernel_from_a_column(made, family):
    text, n, q_b = NEWTON_FAMILIES[family]
    prob = VariationalProblem(
        n=n, lagrangian=parse(text, n), interval=(0.0, 1.0),
        frac=FractionalParams(alpha=0.6, observer_time=2.0),
        boundary=BoundaryConditions([0.0] * n, q_b),
    )
    source, loop, args = newton_loop(made, prob, 8)
    # the kernel at th, half and full comes from its column, so the step
    # computes no theta-only value and checks nothing, and only the last
    # row leaves the loop
    assert not re.search(r"if .*: raise ", source)
    assert not re.search(r"- (th|half|full)\b", source)
    assert "try:" not in source and "except" not in source
    assert "out" not in source
    row = [*(f"q{j}" for j in range(n)), *(f"v{j}" for j in range(n))]
    assert source.endswith(f"    return ({', '.join(row)},)")
    expected = NEWTON_STEP_COST.get(sys.version_info[:2])
    if expected is not None:
        assert loop_ops.step_cost(loop, args) == expected[family]


# --------------------------------------------------------------------------
# A step writes only what it reads, and binds only what it reads


VELOCITY_ONLY = "1.3*v0^2/2"
DRIVEN = "1.3*v0^2/2 - 0.7*q0^2/2 + 0.4*theta*q0/2"
POINT_NAMES = {"th", "full", "half", "x0", "y0", "z0"}


def liveness_cases():
    for family, (text, n) in FAMILIES.items():
        yield pytest.param(text, n, "rows", id=f"{family}-rows")
    for family, (text, n, _) in NEWTON_FAMILIES.items():
        yield pytest.param(text, n, "newton", id=f"{family}-newton")
    for name, text in (("free", VELOCITY_ONLY), ("driven", DRIVEN)):
        yield pytest.param(text, 1, "rows", id=f"{name}-rows")
        yield pytest.param(text, 1, "newton", id=f"{name}-newton")
    yield pytest.param(FAMILIES["oscillator"][0], 1, "called", id="oscillator-called")


@pytest.mark.parametrize("text, n, kind", liveness_cases())
def test_a_step_assigns_only_what_is_read_and_binds_what_it_reads(made, text, n, kind):
    # a rows loop with the benchmark channels and the momenta sampled, a
    # Newton loop, or a loop that calls its right-hand side and channels
    prob = problem(text, n)
    ode = ExplicitOde(prob)
    state, integrands = ([0.1] * n, [0.2] * n), benchmark_integrands(prob)
    sources = []

    def record(filename, source, fn, emitted):
        if filename == "<compiled loop>":
            sources.append(source)
        return fn

    with made.watching(record):
        if kind == "newton":
            integrators._final_state(ode, 0.0, 1.0, state[0], 8)(state[1])
        elif kind == "rows":
            sampled = ode.with_samples([Sample(p) for p in ode.momentum])
            ivp_solve(sampled, 0.0, 1.0, *state, 8, integrands=integrands)
        else:
            called(prob, *state, 8, integrands)
    (source,) = sources
    # no name a statement of the step assigns goes unread, as
    # tools/loop_ops.py counts it, nor any other the loop assigns
    assert loop_ops.unread(source) == []
    (fn,) = ast.parse(source).body
    names = loop_ops.names
    assert names(fn.body, ast.Store) <= names(fn.body, ast.Load)
    # the for targets are the theta and kernel names the step reads and
    # does not compute itself: half = th + hh is computed where it is read
    (step,) = [node for node in ast.walk(fn) if isinstance(node, ast.For)]
    read = names(step.body, ast.Load) & POINT_NAMES
    assert names([step.target], ast.Store) == read - names(step.body, ast.Store)
    assert ("half" in read) == ("        half = th + hh" in source.splitlines())


@pytest.mark.parametrize("text, steps", [
    # a negated sum written into its product
    ("-(q0 + v0)*v0", 8),
    # commuted operands are one value, swapped differences two
    ("q0*v0 + v0*q0", 8), ("(q0 - v0)*(v0 - q0)", 8), ("(q0 + v0)/(v0 - q0) - q0/v0", 8),
    # theta-only trees, shared by stages 2 and 3, with their checks; at
    # two steps theta = 0.5 is the second step's first stage
    ("ln(theta + 0.25)*v0", 8), ("1/(theta - 0.5)", 3), ("1/(theta - 0.5)", 2),
])
def test_inlined_and_shared_values_keep_the_bits_and_the_errors(text, steps):
    prob = problem("(1.3*v0^2 - 0.7*q0^2)/2 + theta*q0*v0", 1)
    args = (prob, [0.4], [0.7], steps, {"g": parse(text, 1), **benchmark_integrands(prob)})
    assert both(*args) == outcome(walked, *args)


# Stage-1 values that are bare state leaves, which the step's update lines
# read after the state has moved on unless the loop copies them first:
# (Lagrangian, alpha, channels).  The oscillator's velocity changes, and the
# acceleration of v0^2/2 + q0^2/2 at alpha = 1 is q0 itself.
BARE_LEAVES = {
    "q0 channel": ("(1.3*v0^2 - 0.7*q0^2)/2", 0.6, {"g": "q0"}),
    "v0 channel": ("(1.3*v0^2 - 0.7*q0^2)/2", 0.6, {"g": "v0"}),
    "q0 acceleration": ("v0^2/2 + q0^2/2", 1.0, {"g": "theta*v0"}),
}


@pytest.mark.parametrize("case", BARE_LEAVES)
def test_a_bare_leaf_at_stage_1_is_read_before_the_update(case):
    text, alpha, channels = BARE_LEAVES[case]
    prob = problem(text, 1, alpha)
    if case == "q0 acceleration":
        assert str(ExplicitOde(prob).quotient) == "q0"
    args = (prob, [0.4], [0.7], 8, {name: parse(g, 1) for name, g in channels.items()})
    expected = outcome(walked, *args)
    assert expected[0] == "ok"
    # a rows loop, and the Newton loop of a shoot on the same grid
    assert outcome(inlined, *args) == expected
    assert outcome(shared, *args) == expected


# The deepest pure-arithmetic Lagrangians parse accepts, each with the
# count of its repeated part: a sum of q0 terms, and products and
# divisions in v0 nested inside each other.
DEEPEST = {
    "sum": (lambda k: "v0^2/2" + " + q0" * k, 97),
    "nested": (lambda k: "v0^2/2 + " + "".join(f"v0{'*/'[i % 2]}(1.{i} + " for i in range(k))
               + "v0" + ")" * k, 49),
}


def nesting(node) -> int:
    """Operators nested in the deepest expression of ``node``."""
    own = isinstance(node, (ast.BinOp, ast.UnaryOp))
    return own + max(map(nesting, ast.iter_child_nodes(node)), default=0)


@pytest.mark.parametrize("shape", DEEPEST)
def test_deepest_accepted_arithmetic_lagrangians_compile_and_run(made, shape):
    make, k = DEEPEST[shape]
    with pytest.raises(ExpressionError, match="deeper than"):
        parse(make(k + 1), 1)
    prob = problem(make(k), 1)
    integrands = {"L": prob.lagrangian, **benchmark_integrands(prob)}
    source, _ = loop_source(made, prob, integrands)
    # an inlined value nests at most the cap, the local it is assigned to
    # one operator more; beyond that a value keeps a local of its own
    statements = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assign)]
    assert max(map(nesting, statements)) == expressions._MAX_INLINE_DEPTH + 1
    args = (prob, [0.3], [0.4], 8, integrands)
    kind, *_ = both(*args)
    assert kind == "ok" and outcome(walked, *args) == outcome(inlined, *args)


def test_loop_ops_reports_the_loops_of_a_bvp_shoot_pass(capsys, compiled):
    # 9 BVPs, each shot by a solve and by a charge command: 18 shoots, each
    # building one trajectory.  The solve's shoot evaluates its kernel
    # column once (at the nodes and at the half-nodes), runs 6 Newton
    # solves that read it and builds its trajectory in its last check
    # solve, which no Newton loop runs; the charge's is answered from
    # memory, reads no column, and runs only that solve.  The
    # pass starts from empty caches, as in a fresh process
    assert loop_ops.main(["--workload", "bvp_shoot", "--seed", "4242"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:] if re.match(r"[0-9a-f]{16} ", line)]
    assert {row[1] for row in rows} == {"last", "rows"}
    assert all(row[-1] == "0" for row in rows if row[1] == "last")  # no guard
    assert sum(int(row[3]) for row in rows if row[1] == "last") == 54
    per_kind = lines[len(rows) + 1:len(rows) + 3]
    assert [re.sub(r"\d+\.\d instructions", "N instructions", line) for line in per_kind] == [
        "last loops: 54 calls, N instructions per step",
        "rows loops: 18 calls, N instructions per step"]
    assert "348 Expr.diff calls, 36 functions made" in lines
    assert "9 kernel columns, read by 54 Newton loop calls" in lines
    # a shape hit compiles nothing: the 36 definitions compile 9 loops and
    # one kernel evaluator; the shooting Jacobian is solved on floats
    assert collections.Counter(filename for filename, _ in compiled) == {
        "<compiled loop>": 9, "<compiled compiled>": 1}
    # the three scenarios of a family differ only in coefficients, a
    # constant mass's included, and the first command on each family emits
    # its loops for the others
    assert "27 loops: 9 emitted, 18 from the shape cache, 9 distinct sources" in lines
    assert "assigned and never read: 0" in lines  # no step writes a dead local
    assert ("18 shoots: 33 check solves, 9 of them also the trajectory solve; "
            "0 of 9 guesses wrong") in lines
    assert "9 of 18 shoots answered from memory" in lines
    # 9 trajectory tables of 1001 rows and 42 distinct columns in all, and
    # 18 charge tables of one repeating column each
    assert ("27 tables written: 60060 values, 18018 in repeating columns, "
            "1642 distinct among those") in lines
    # every table of the pass is on one grid, which keeps its theta texts
    assert "grids whose theta texts were formatted: 1" in lines
    # 18 commands parsed by one tree: the top parser and one per command
    assert lines[-3] == "5 argument parsers built, 16 terminal-size reads"
    assert re.fullmatch(r"GC collections: gen0 \d+, gen1 \d+, gen2 \d+", lines[-2])
    assert lines[-1] == "18 Trajectory constructions"


def test_loop_ops_shares_the_loops_of_an_ivp_corpus_pass(capsys):
    # 24 charge commands, one loop each.  Two pairs of 2-dof scenarios
    # differ only in coefficients, their constant masses' included, so the
    # second of each pair takes its loop from the shape cache
    assert loop_ops.main(["--workload", "ivp_corpus", "--seed", "4242"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:] if re.match(r"[0-9a-f]{16} ", line)]
    assert {row[1] for row in rows} == {"rows"}
    assert lines[len(rows) + 1].startswith("rows loops: 24 calls, ")
    assert "24 loops: 22 emitted, 2 from the shape cache, 22 distinct sources" in lines
    # the two velocity-only loops write no stage coordinate
    assert "assigned and never read: 0" in lines
    assert "grids whose theta texts were formatted: 1" in lines


def test_loop_ops_passes_start_from_empty_caches():
    # the second pass in one process emits what the first did, as a fresh
    # process would, not nothing from the caches the first one filled
    emitted = [loop_ops.record_pass("bvp_shoot", 4242)[1] for _ in range(2)]
    assert emitted == [9, 9]


def test_loop_ops_passes_build_their_grids_anew(monkeypatch):
    # the 1000-step grid on [0, 1] of every sweep_narrow command, built
    # before the pass, is built again in it, as in a fresh process
    built = []
    linspace = integrators.linspace
    monkeypatch.setattr(integrators, "linspace", lambda *args: built.append(args) or linspace(*args))
    integrators.uniform_grid(0.0, 1.0, 1000)
    built.clear()
    loop_ops.record_pass("sweep_narrow", 4242)
    assert built == [(0.0, 1.0, 1001)]


def test_loop_ops_sees_every_alpha_of_a_sweep_narrow_pass(capsys):
    # 10 sweeps of 51 alphas in all, run on one worker so that no alpha's
    # loop is built in a child process: one emission per shape, every
    # other alpha's loop taken from the shape cache, empty at the start
    assert loop_ops.main(["--workload", "sweep_narrow", "--seed", "4242"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "51 loops: 9 emitted, 42 from the shape cache, 9 distinct sources" in lines
    assert "assigned and never read: 0" in lines
    assert "0 shoots: 0 check solves, 0 of them also the trajectory solve; 0 of 0 guesses wrong" in lines
    assert "0 tables written: 0 values, 0 in repeating columns, 0 distinct among those" in lines
    assert "grids whose theta texts were formatted: 0" in lines
    assert lines[-3] == "5 argument parsers built, 16 terminal-size reads"
    assert lines[-1] == "51 Trajectory constructions"
