"""Generators, gauge rates, charges, and drift statistics."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from fracnoether.action import fractional_action
from fracnoether.charges import (
    ChargePreconditionError,
    ChargeSeries,
    MissingChannelError,
    SymmetryGenerator,
    charge_expression,
    classical_energy,
    classical_momentum,
    fractional_energy,
    fractional_momentum,
    gauge_rate_from_reduced_condition,
    noether_charge,
    pointwise_conservation_residual,
    quasi_invariance_residual,
    requested,
    standard_integrands,
)
from fracnoether.euler_lagrange import (
    FractionalParams,
    VariationalProblem,
    along_motion,
    to_explicit_ode,
)
from fracnoether.expressions import Const, add, evaluate_on_grid, parse
from fracnoether.integrators import ivp_solve


def problem(lagrangian, alpha, t=2.0, n=1):
    return VariationalProblem(
        n=n,
        lagrangian=parse(lagrangian, n),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=t),
    )


def generator(tau, xi, n=1, gauge=None):
    gen = SymmetryGenerator(parse(tau, n), [parse(x, n) for x in xi])
    if gauge is not None:
        gen = gen.with_gauge(parse(gauge, n))
    return gen


def at(e, theta, q, v):
    """``e`` at one point, checked: a one-point grid."""
    return evaluate_on_grid(e, [theta], [q], [v])[0]


def solve(prob, q0, v0, steps=1000, **kwargs):
    rhs = to_explicit_ode(prob)
    integrands = standard_integrands(prob, **kwargs) if kwargs else None
    return ivp_solve(rhs, prob.a, prob.b, q0, v0, steps, integrands=integrands)


# --------------------------------------------------------------------------
# the derivative along the motion


def test_total_derivative_of_coordinate_is_velocity():
    rate, accel_coeffs = along_motion(parse("q0", 1), 1)
    assert at(rate, 0.0, [2.0], [3.0]) == pytest.approx(3.0)
    # a (theta, q) expression has no acceleration term
    assert [(type(c), c.value) for c in accel_coeffs] == [(Const, 0.0)]


def test_total_derivative_product_rule():
    rate, _ = along_motion(parse("theta*q0", 1), 1)
    assert at(rate, 2.0, [5.0], [1.0]) == pytest.approx(7.0)


def test_total_derivative_of_velocity_is_acceleration():
    rate, (coeff,) = along_motion(parse("v0", 1), 1)
    point = (0.0, [0.0], [1.0])
    assert at(rate, *point) + at(coeff, *point) * -4.0 == pytest.approx(-4.0)


# --------------------------------------------------------------------------
# generator validation


def test_generators_must_not_depend_on_velocity():
    with pytest.raises(ChargePreconditionError, match="velocit"):
        SymmetryGenerator(parse("v0", 1), [parse("0", 1)])
    with pytest.raises(ChargePreconditionError, match="velocit"):
        SymmetryGenerator(parse("1", 1), [parse("v0", 1)])


# --------------------------------------------------------------------------
# invariance residuals: quasi-invariance, and condition (8) (the charge tree)


def test_full_condition_residual_for_energy_generator():
    # tau=1, xi=0 with the energy gauge balances the reduced condition but
    # leaves -(1-alpha)/(t-theta) * v^2/2 in the full one
    prob = problem("v0^2/2", alpha=0.5)
    gen = generator("1", ["0"], gauge="(1 - 0.5)/(2 - theta) * v0^2")
    expected = -(0.5 / 2.0) * 2.0 ** 2 / 2.0
    residual = quasi_invariance_residual(prob, gen)
    assert at(residual, 0.0, [0.0], [2.0]) == pytest.approx(expected, rel=1e-14)


def test_full_condition_with_zero_gauge_is_the_drag_of_the_lagrangian():
    # G0 vanishes for tau = 1 on an autonomous L, leaving c L tau
    prob = problem("(v0^2 - q0^2)/2", alpha=0.5)
    residual = quasi_invariance_residual(prob, generator("1", ["0"], gauge="0"))
    for theta, q, v in [(0.0, 0.3, 1.1), (0.7, -0.5, 0.2)]:
        expected = 0.5 / (2.0 - theta) * (v * v - q * q) / 2.0
        assert at(residual, theta, [q], [v]) == pytest.approx(expected, rel=1e-14)


def test_full_condition_holds_classically_for_time_translation():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    residual = quasi_invariance_residual(prob, generator("1", ["0"], gauge="0"))
    for theta, q, v in [(0.0, 0.3, 1.1), (0.7, -0.5, 0.2), (1.0, 2.0, -1.0)]:
        assert abs(at(residual, theta, [q], [v])) < 1e-14


def test_full_condition_holds_for_space_translation_without_q():
    prob = problem("v0^2/2 + theta*v0", alpha=1.0)
    residual = quasi_invariance_residual(prob, generator("0", ["1"], gauge="0"))
    for theta, q, v in [(0.1, 0.0, 1.0), (0.9, 3.0, -2.0)]:
        assert abs(at(residual, theta, [q], [v])) < 1e-14


def test_full_condition_needs_gauge_rate():
    prob = problem("v0^2/2", alpha=0.5)
    with pytest.raises(ChargePreconditionError, match="gauge"):
        quasi_invariance_residual(prob, generator("1", ["0"]))


def test_condition8_zero_for_null_generator():
    prob = problem("(v0^2 - q0^2)/2", alpha=0.5)
    gen = generator("0", ["0"])
    assert at(charge_expression(prob, gen), 0.2, [1.0], [2.0]) == 0.0


def test_condition8_zero_when_momentum_component_vanishes():
    # tau = 0 and dL/dv . xi = 0 leave nothing behind
    prob = problem("v0^2/2 + q1^2", alpha=0.5, n=2)
    gen = generator("0", ["0", "1"], n=2)
    assert at(charge_expression(prob, gen), 0.3, [1.0, -2.0], [0.5, 0.7]) == 0.0


def test_condition8_violated_by_time_translation():
    prob = problem("v0^2/2", alpha=0.5)
    gen = generator("1", ["0"])
    res = at(charge_expression(prob, gen), 0.0, [0.0], [1.0])
    assert res == pytest.approx(-0.5, rel=1e-15)


def test_condition8_holds_for_degenerate_linear_lagrangian():
    prob = problem("v0", alpha=0.5)
    gen = generator("1", ["0"])
    res = at(charge_expression(prob, gen), 0.0, [0.0], [1.0])
    assert res == pytest.approx(0.0, abs=1e-15)


# --------------------------------------------------------------------------
# gauge rate derivation


def test_derived_gauge_matches_energy_form_for_autonomous_lagrangian():
    prob = problem("v0^2/2 + cos(q0)", alpha=0.5)
    gen = generator("1", ["0"])
    gauge = gauge_rate_from_reduced_condition(prob, gen)
    reference = parse("(1 - 0.5)/(2 - theta) * v0 * v0", 1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = (
            float(rng.uniform(0.0, 1.0)),
            [float(rng.uniform(-2.0, 2.0))],
            [float(rng.uniform(-2.0, 2.0))],
        )
        assert at(gauge, *p) == pytest.approx(at(reference, *p), rel=1e-13, abs=1e-15)


def test_derived_gauge_matches_momentum_form_for_q_free_lagrangian():
    prob = problem("v0^2/2", alpha=0.25)
    gen = generator("0", ["1"])
    gauge = gauge_rate_from_reduced_condition(prob, gen)
    reference = parse("-(1 - 0.25)/(2 - theta) * v0", 1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = (
            float(rng.uniform(0.0, 1.0)),
            [float(rng.uniform(-2.0, 2.0))],
            [float(rng.uniform(-2.0, 2.0))],
        )
        assert at(gauge, *p) == pytest.approx(at(reference, *p), rel=1e-13, abs=1e-15)


def test_derived_gauge_vanishes_classically_for_time_translation():
    prob = problem("v0^2/2 + cos(q0)", alpha=1.0)
    gen = generator("1", ["0"])
    gauge = gauge_rate_from_reduced_condition(prob, gen)
    assert isinstance(gauge, Const)
    assert gauge.value == 0.0


def test_derived_gauge_balances_reduced_condition_for_arbitrary_generator():
    # for ANY generator the derived gauge makes the charge rate vanish
    prob = problem("v0^2/2 - q0^4/4 + theta*q0/2", alpha=0.35)
    gen = generator("sin(theta)", ["cos(q0)"])
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    traj = solve(prob, [0.4], [0.5], steps=200, generators=[gen])
    residual = pointwise_conservation_residual(prob, gen, traj)
    assert np.max(np.abs(residual)) < 1e-9


# --------------------------------------------------------------------------
# charges


def test_noether_charge_for_space_translation_is_flat():
    prob = problem("v0^2/2", alpha=0.5)
    gen = generator("0", ["1"])
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    traj = solve(prob, [0.0], [1.0], steps=1000, generators=[gen])
    series = noether_charge(prob, gen, traj)
    assert series.relative_drift < 1e-8


def test_noether_charge_classical_energy_form():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    gen = generator("1", ["0"], gauge="0")
    traj = solve(prob, [1.0], [0.0], steps=1000, generators=[gen])
    series = noether_charge(prob, gen, traj)
    assert series.relative_drift < 1e-8
    # C = L - dL/dv * v = -(v^2 + q^2)/2 = -1/2 along this motion
    assert series.values[0] == pytest.approx(-0.5, rel=1e-12)


def test_noether_charge_null_generator_is_identically_zero():
    prob = problem("(v0^2 - q0^2)/2", alpha=0.5)
    gen = generator("0", ["0"], gauge="0")
    traj = solve(prob, [1.0], [0.0], steps=100, generators=[gen])
    series = noether_charge(prob, gen, traj)
    assert all(x == 0.0 for x in series.values)
    assert series.drift == 0.0


def test_noether_charge_requires_lambda_channel():
    prob = problem("v0^2/2", alpha=0.5)
    gen = generator("0", ["1"], gauge="0")
    traj = solve(prob, [0.0], [1.0], steps=100)
    with pytest.raises(MissingChannelError):
        noether_charge(prob, gen, traj)


def test_missing_channels_are_named_before_any_tree_is_built():
    prob = problem("v0^2/2", alpha=0.5)
    traj = solve(prob, [0.0], [1.0], steps=100)
    # a generator of the wrong dimension: the missing channel is still reported first
    gen = generator("0", ["1", "0"], n=2, gauge="0")
    for call, message in [
        (lambda: noether_charge(prob, gen, traj, channel="Lambda_g1"),
         "trajectory lacks the accumulated gauge channel 'Lambda_g1'"),
        (lambda: fractional_energy(prob, traj),
         "trajectory lacks the energy correction channel 'energy_correction'"),
        (lambda: fractional_momentum(prob, traj, 0),
         "trajectory lacks the momentum correction channel 'momentum_correction_0'"),
    ]:
        with pytest.raises(MissingChannelError) as info:
            call()
        assert str(info.value) == message


def test_a_failed_precondition_is_raised_before_the_trajectory_is_read():
    # L names theta and q0; the trajectory has two dofs and no channel
    prob = problem("v0^2/2 + theta*q0", alpha=0.5)
    traj = solve(problem("(v0^2 + v1^2)/2", alpha=0.5, n=2), [0.0, 0.0], [1.0, 1.0], steps=10)
    with pytest.raises(ChargePreconditionError, match="autonomous"):
        fractional_energy(prob, traj)
    with pytest.raises(ChargePreconditionError, match="q0"):
        fractional_momentum(prob, traj, 0)
    with pytest.raises(ValueError, match="dof 1 out of range"):
        fractional_momentum(prob, traj, 1)


def test_energy_and_momentum_samplers_share_one_grid_function(defined):
    prob = problem("v0^4/12 + v0^2/2", alpha=0.6)
    traj = solve(prob, [0.0], [1.0], steps=100, energy=True, momentum=True)
    before = len(defined)
    classical_energy(prob, traj)
    fractional_energy(prob, traj)
    assert len(defined) == before + 1  # H, compiled for the grid once
    classical_momentum(prob, traj, 0)
    fractional_momentum(prob, traj, 0)
    assert len(defined) == before + 2  # and p once


def test_fractional_energy_constant_for_free_particle():
    # L - dL/dv*v = -v^2/2 decays, the correction integral restores -v0^2/2
    prob = problem("v0^2/2", alpha=0.5)
    traj = solve(prob, [0.0], [1.0], steps=1000, energy=True)
    series = fractional_energy(prob, traj)
    assert series.relative_drift < 1e-8
    assert series.values[-1] == pytest.approx(-0.5, abs=1e-10)


def test_fractional_energy_oscillator_drift_bound():
    prob = problem("(v0^2 - q0^2)/2", alpha=0.75)
    traj = solve(prob, [1.0], [0.0], steps=2000, energy=True)
    series = fractional_energy(prob, traj)
    assert series.relative_drift < 1e-7


def test_fractional_energy_alpha_one_reduces_to_classical():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    traj = solve(prob, [1.0], [0.0], steps=500, energy=True)
    frac = fractional_energy(prob, traj)
    classical = classical_energy(prob, traj)
    assert np.array_equal(frac.values, classical.values)


def test_fractional_energy_rejects_theta_dependent_lagrangian():
    prob = problem("v0^2/2 + theta*q0", alpha=0.5)
    traj = solve(prob, [0.0], [1.0], steps=100, energy=True)
    with pytest.raises(ChargePreconditionError, match="autonomous"):
        fractional_energy(prob, traj)


def test_fractional_energy_rejects_tiny_explicit_theta_term():
    # a 1e-11 theta coupling is below any sampling tolerance but still
    # makes the Lagrangian non-autonomous
    prob = problem("v0^2/2 - q0^2/2 + 1e-11*theta*q0", alpha=0.5)
    traj = solve(prob, [1.0], [0.0], steps=100, energy=True)
    with pytest.raises(ChargePreconditionError, match="autonomous"):
        fractional_energy(prob, traj)


def test_fractional_momentum_rejects_q_term_undefined_near_origin():
    # sqrt(q0 - 10) cannot be evaluated near q0 = 0, yet L depends on q0
    prob = problem("v0^2/2 + sqrt(q0 - 10)", alpha=0.5)
    traj = solve(prob, [11.0], [1.0], steps=100, momentum=True)
    with pytest.raises(ChargePreconditionError, match="q0"):
        fractional_momentum(prob, traj, 0)


def test_fractional_momentum_constant_equals_launch_velocity():
    prob = problem("v0^2/2", alpha=0.5)
    traj = solve(prob, [0.0], [1.0], steps=1000, momentum=True)
    series = fractional_momentum(prob, traj, 0)
    assert series.relative_drift < 1e-8
    assert max(abs(x - 1.0) for x in series.values) < 1e-8


def test_fractional_momentum_alpha_one_is_classical_momentum():
    prob = problem("v0^2/2", alpha=1.0)
    traj = solve(prob, [0.0], [1.0], steps=200, momentum=True)
    series = fractional_momentum(prob, traj, 0)
    assert max(abs(x - 1.0) for x in series.values) < 1e-12


def test_fractional_momentum_checks_q_dependence_per_dof():
    prob = problem("v0^2/2 + v1^2/2 - q1^2/2", alpha=0.5, n=2)
    traj = solve(prob, [0.0, 0.1], [1.0, 0.5], steps=200, momentum=True)
    ok = fractional_momentum(prob, traj, 0)
    assert ok.relative_drift < 1e-8
    with pytest.raises(ChargePreconditionError, match="q1"):
        fractional_momentum(prob, traj, 1)


def test_classical_momentum_drifts_fractionally():
    prob = problem("v0^2/2", alpha=0.5)
    traj = solve(prob, [0.0], [1.0], steps=1000)
    series = classical_momentum(prob, traj, 0)
    predicted = abs(1.0 - (1.0 / 2.0) ** 0.5)
    assert series.drift == pytest.approx(predicted, abs=1e-8)


# --------------------------------------------------------------------------
# the reported charges

# the benchmark's output gate, from this checkout
spec = importlib.util.spec_from_file_location(
    "gate", Path(__file__).resolve().parents[1] / "perfbench" / "gate.py")
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

# Lagrangians autonomous or not, each cyclic in every, some or no coordinate
LABEL_CASES = [
    ("v0^2/2", 1), ("(v0^2 - q0^2)/2", 1), ("v0^2/2 + theta*v0", 1), ("v0^2/2 + theta*q0", 1),
    ("(v0^2 + v1^2)/2", 2), ("(v0^2 + v1^2)/2 - q0^2/2", 2),
    ("(v0^2 + v1^2)/2 + theta*q1", 2), ("(v0^2 + v1^2)/2 - theta*(q0 - q1)^2/2", 2),
]
KINDS = ("noether", "energy", "momentum")


@pytest.mark.parametrize("text, n", LABEL_CASES)
def test_the_reported_labels_are_those_the_benchmark_gate_reads(text, n):
    prob = problem(text, alpha=0.6, n=n)
    raw = [{"tau": "1", "xi": ["0"] * n}, {"tau": "0", "xi": ["1"] * n}]
    shifts = [generator(g["tau"], g["xi"], n=n) for g in raw]
    shifts = [g.with_gauge(gauge_rate_from_reduced_condition(prob, g)) for g in shifts]
    for count, classical in itertools.product(range(3), (False, True)):
        for kinds in (c for size in range(4) for c in itertools.combinations(KINDS, size)):
            _, charges = requested(
                prob, generators=shifts[:count] if "noether" in kinds else (),
                energy="energy" in kinds, momentum="momentum" in kinds, classical=classical)
            scenario = {"n": n, "generators": raw[:count], "charges": list(kinds)}
            assert [c.label for c in charges] == gate.charge_labels(scenario, classical)
            # a charge fails its precondition exactly when L names theta or its q
            for c in charges:
                failing = (c.label == "energy" and "theta" in text
                           or c.label.startswith("momentum_") and f"q{c.label[-1]}" in text)
                assert isinstance(c.sample, ChargePreconditionError) == failing, c.label


# --------------------------------------------------------------------------
# pointwise identity and gauge shift


def test_pointwise_conservation_identity_along_extremal():
    prob = problem("v0^2/2 + cos(q0)", alpha=0.6)
    gen = generator("theta/2", ["q0/2"])
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    traj = solve(prob, [0.4], [0.5], steps=500, generators=[gen])
    residual = pointwise_conservation_residual(prob, gen, traj)
    assert len(residual) == len(traj.theta_grid)
    assert np.max(np.abs(residual)) < 1e-9


def test_noether_charge_drift_is_fourth_order():
    prob = problem("v0^2/2 + cos(q0)", alpha=0.5)
    gen = generator("theta/2", ["q0/2"])
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    rhs = to_explicit_ode(prob)
    drifts = {}
    for steps in (125, 250, 500):
        traj = ivp_solve(
            rhs, 0.0, 1.0, [0.4], [0.5], steps,
            integrands={"Lambda": gen.gauge_rate},
        )
        drifts[steps] = noether_charge(prob, gen, traj).relative_drift
    assert drifts[125] > 1e-13  # above the rounding floor, ratio meaningful
    assert 8.0 < drifts[125] / drifts[250] < 32.0
    assert 8.0 < drifts[250] / drifts[500] < 32.0


def test_constant_gauge_shift_tilts_charge_linearly():
    c = 0.25
    prob = problem("v0^2/2", alpha=0.5)
    gen = generator("0", ["1"])
    auto = gauge_rate_from_reduced_condition(prob, gen)
    shifted = gen.with_gauge(add(auto, Const(c)))
    traj = solve(prob, [0.0], [1.0], steps=1000, generators=[shifted])
    series = noether_charge(prob, shifted, traj)
    expected = c * 1.0  # |c| * (b - a)
    assert series.drift == pytest.approx(expected, rel=0.01)


# --------------------------------------------------------------------------
# drift statistics


def test_drift_of_constant_series():
    series = ChargeSeries.from_values(np.arange(3.0), np.array([3.0, 3.0, 3.0]))
    assert (series.drift, series.relative_drift) == (0.0, 0.0)


def test_drift_small_wobble():
    series = ChargeSeries.from_values(
        np.arange(3.0), np.array([0.0, 1e-9, -1e-9])
    )
    assert series.drift == pytest.approx(1e-9)


def test_drift_relative_normalization():
    series = ChargeSeries.from_values(np.arange(2.0), np.array([10.0, 10.5]))
    assert series.drift == pytest.approx(0.5)
    assert series.relative_drift == pytest.approx(0.5 / 11.5)


def test_charge_series_csv_format(tmp_path):
    series = ChargeSeries.from_values(
        np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0, 1.25])
    )
    path = tmp_path / "charge.csv"
    series.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta,value"
    assert len(lines) == 5
    assert lines[-1].startswith("# drift=0.25 relative_drift=")
    assert float(lines[2].split(",")[1]) == 1.0


def test_charge_series_csv_bytes_match_per_value_formatting(tmp_path):
    values = np.array([-0.0, 1e-320, 1.0 / 3.0, 1e22, 5e-324, -1e-310, 1e-300, -1e-300,
                       1e300, -1e300, -2.5])
    series = ChargeSeries.from_values(np.linspace(0.0, 0.3, 11), values)
    path = tmp_path / "charge.csv"
    series.write_csv(path)
    rows = [f"{format(t, '.17g')},{format(x, '.17g')}" for t, x in zip(series.theta_grid, values)]
    trailer = (
        f"# drift={format(series.drift, '.17g')} "
        f"relative_drift={format(series.relative_drift, '.17g')}"
    )
    assert path.read_text() == "\n".join(["theta,value", *rows, trailer]) + "\n"


def test_samplers_reject_a_trajectory_of_another_dof_count():
    # a 2-dof solve handed to a 1-dof problem: every sampler would read its
    # first columns and return numbers
    two = problem("(v0^2 + v1^2)/2 - q0^2/2", alpha=0.6, n=2)
    gen2 = generator("1", ["0", "0"], n=2)
    gen2 = gen2.with_gauge(gauge_rate_from_reduced_condition(two, gen2))
    traj = solve(two, [0.3, 0.1], [0.2, 0.4], steps=20, generators=[gen2], energy=True,
                 momentum=True)
    one = problem("v0^2/2", alpha=0.6)
    gen1 = generator("0", ["1"])
    gen1 = gen1.with_gauge(gauge_rate_from_reduced_condition(one, gen1))
    match = "trajectory has 2 degrees of freedom, the problem 1"
    for sample in [
        lambda: noether_charge(one, gen1, traj),
        lambda: classical_energy(one, traj),
        lambda: fractional_energy(one, traj),
        lambda: classical_momentum(one, traj, 0),
        lambda: fractional_momentum(one, traj, 0),
        lambda: fractional_action(one, traj),
        lambda: pointwise_conservation_residual(one, gen1, traj),
    ]:
        with pytest.raises(ValueError, match=match):
            sample()
