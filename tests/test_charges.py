"""Generators, gauge rates, charges, and drift statistics."""

import numpy as np
import pytest

from fracnoether import expressions
from fracnoether.charges import (
    ChargePreconditionError,
    ChargeSeries,
    InvarianceResiduals,
    MissingChannelError,
    SymmetryGenerator,
    TotalDerivative,
    classical_energy,
    classical_momentum,
    drift,
    fractional_energy,
    fractional_momentum,
    gauge_rate_from_reduced_condition,
    noether_charge,
    pointwise_conservation_residual,
    standard_integrands,
)
from fracnoether.euler_lagrange import (
    FractionalParams,
    VariationalProblem,
    to_explicit_ode,
)
from fracnoether.expressions import Const, EvalPoint, add, evaluate, parse
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


def solve(prob, q0, v0, steps=1000, **kwargs):
    rhs = to_explicit_ode(prob)
    integrands = standard_integrands(prob, **kwargs) if kwargs else None
    return ivp_solve(rhs, prob.a, prob.b, q0, v0, steps, integrands=integrands)


# --------------------------------------------------------------------------
# TotalDerivative


def test_total_derivative_of_coordinate_is_velocity():
    derivative = TotalDerivative(parse("q0", 1), 1)
    assert derivative(EvalPoint(0.0, [2.0], [3.0])) == pytest.approx(3.0)


def test_total_derivative_product_rule():
    derivative = TotalDerivative(parse("theta*q0", 1), 1)
    assert derivative(EvalPoint(2.0, [5.0], [1.0])) == pytest.approx(7.0)


def test_total_derivative_of_velocity_is_acceleration():
    derivative = TotalDerivative(parse("v0", 1), 1)
    assert derivative(EvalPoint(0.0, [0.0], [1.0]), accel=[-4.0]) == pytest.approx(-4.0)


def test_total_derivative_requires_accel_for_velocity_terms():
    derivative = TotalDerivative(parse("v0^2", 1), 1)
    with pytest.raises(ValueError, match="accel"):
        derivative(EvalPoint(0.0, [0.0], [1.0]))


# --------------------------------------------------------------------------
# generator validation


def test_generators_must_not_depend_on_velocity():
    with pytest.raises(ChargePreconditionError, match="velocit"):
        SymmetryGenerator(parse("v0", 1), [parse("0", 1)])
    with pytest.raises(ChargePreconditionError, match="velocit"):
        SymmetryGenerator(parse("1", 1), [parse("v0", 1)])


# --------------------------------------------------------------------------
# invariance residuals


def test_full_condition_residual_for_energy_generator():
    # tau=1, xi=0 with the energy gauge balances the reduced condition but
    # leaves -(1-alpha)/(t-theta) * v^2/2 in the full one
    prob = problem("v0^2/2", alpha=0.5)
    gen = generator("1", ["0"], gauge="(1 - 0.5)/(2 - theta) * v0^2")
    p = EvalPoint(0.0, [0.0], [2.0])
    expected = -(0.5 / 2.0) * 2.0 ** 2 / 2.0
    assert InvarianceResiduals(prob, gen).quasi_invariance_at(p) == pytest.approx(
        expected, rel=1e-14
    )


def test_full_condition_holds_classically_for_time_translation():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    residuals = InvarianceResiduals(prob, generator("1", ["0"], gauge="0"))
    for theta, q, v in [(0.0, 0.3, 1.1), (0.7, -0.5, 0.2), (1.0, 2.0, -1.0)]:
        res = residuals.quasi_invariance_at(EvalPoint(theta, [q], [v]))
        assert abs(res) < 1e-14


def test_full_condition_holds_for_space_translation_without_q():
    prob = problem("v0^2/2 + theta*v0", alpha=1.0)
    residuals = InvarianceResiduals(prob, generator("0", ["1"], gauge="0"))
    for theta, q, v in [(0.1, 0.0, 1.0), (0.9, 3.0, -2.0)]:
        res = residuals.quasi_invariance_at(EvalPoint(theta, [q], [v]))
        assert abs(res) < 1e-14


def test_full_condition_needs_gauge_rate():
    prob = problem("v0^2/2", alpha=0.5)
    residuals = InvarianceResiduals(prob, generator("1", ["0"]))
    with pytest.raises(ChargePreconditionError, match="gauge"):
        residuals.quasi_invariance_at(EvalPoint(0.0, [0.0], [1.0]))


def test_condition8_zero_for_null_generator():
    prob = problem("(v0^2 - q0^2)/2", alpha=0.5)
    gen = generator("0", ["0"])
    assert InvarianceResiduals(prob, gen).condition8_at(EvalPoint(0.2, [1.0], [2.0])) == 0.0


def test_condition8_zero_when_momentum_component_vanishes():
    # tau = 0 and dL/dv . xi = 0 leave nothing behind
    prob = problem("v0^2/2 + q1^2", alpha=0.5, n=2)
    gen = generator("0", ["0", "1"], n=2)
    p = EvalPoint(0.3, [1.0, -2.0], [0.5, 0.7])
    assert InvarianceResiduals(prob, gen).condition8_at(p) == 0.0


def test_condition8_violated_by_time_translation():
    prob = problem("v0^2/2", alpha=0.5)
    gen = generator("1", ["0"])
    res = InvarianceResiduals(prob, gen).condition8_at(EvalPoint(0.0, [0.0], [1.0]))
    assert res == pytest.approx(-0.5, rel=1e-15)


def test_condition8_holds_for_degenerate_linear_lagrangian():
    prob = problem("v0", alpha=0.5)
    gen = generator("1", ["0"])
    res = InvarianceResiduals(prob, gen).condition8_at(EvalPoint(0.0, [0.0], [1.0]))
    assert res == pytest.approx(0.0, abs=1e-15)


# --------------------------------------------------------------------------
# reusable residual objects


def test_reusable_residuals_compile_each_tree_once(monkeypatch):
    compiled = []

    def counting_compile(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(expressions, "compile", counting_compile, raising=False)
    prob = problem("exp(theta/4)*v0^2/2 - cos(q0)", alpha=0.6)
    gen = generator("1", ["0"], gauge="0")
    derivative = TotalDerivative(parse("theta*v0^2", 1), 1)
    residuals = InvarianceResiduals(prob, gen)
    for k in range(30):
        p = EvalPoint(k / 30, [0.2], [0.4])
        derivative(p, [1.0])
        residuals.quasi_invariance_at(p)
        residuals.condition8_at(p)
    # rate and one acceleration coefficient, then the two residual trees
    assert len(compiled) == 4


def test_total_derivative_object_checks_dimension():
    with pytest.raises(ValueError, match="dimension"):
        TotalDerivative(parse("q0", 1), 1)(EvalPoint(0.0, [1.0, 2.0], [0.0, 0.0]))


# --------------------------------------------------------------------------
# gauge rate derivation


def test_derived_gauge_matches_energy_form_for_autonomous_lagrangian():
    prob = problem("v0^2/2 + cos(q0)", alpha=0.5)
    gen = generator("1", ["0"])
    gauge = gauge_rate_from_reduced_condition(prob, gen)
    reference = parse("(1 - 0.5)/(2 - theta) * v0 * v0", 1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = EvalPoint(
            float(rng.uniform(0.0, 1.0)),
            [float(rng.uniform(-2.0, 2.0))],
            [float(rng.uniform(-2.0, 2.0))],
        )
        assert evaluate(gauge, p) == pytest.approx(evaluate(reference, p), rel=1e-13, abs=1e-15)


def test_derived_gauge_matches_momentum_form_for_q_free_lagrangian():
    prob = problem("v0^2/2", alpha=0.25)
    gen = generator("0", ["1"])
    gauge = gauge_rate_from_reduced_condition(prob, gen)
    reference = parse("-(1 - 0.25)/(2 - theta) * v0", 1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = EvalPoint(
            float(rng.uniform(0.0, 1.0)),
            [float(rng.uniform(-2.0, 2.0))],
            [float(rng.uniform(-2.0, 2.0))],
        )
        assert evaluate(gauge, p) == pytest.approx(evaluate(reference, p), rel=1e-13, abs=1e-15)


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
    assert np.all(series.values == 0.0)
    assert series.drift == 0.0


def test_noether_charge_requires_lambda_channel():
    prob = problem("v0^2/2", alpha=0.5)
    gen = generator("0", ["1"], gauge="0")
    traj = solve(prob, [0.0], [1.0], steps=100)
    with pytest.raises(MissingChannelError):
        noether_charge(prob, gen, traj)


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
    assert np.max(np.abs(series.values - 1.0)) < 1e-8


def test_fractional_momentum_alpha_one_is_classical_momentum():
    prob = problem("v0^2/2", alpha=1.0)
    traj = solve(prob, [0.0], [1.0], steps=200, momentum=True)
    series = fractional_momentum(prob, traj, 0)
    assert np.max(np.abs(series.values - 1.0)) < 1e-12


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
# pointwise identity and gauge shift


def test_pointwise_conservation_identity_along_extremal():
    prob = problem("v0^2/2 + cos(q0)", alpha=0.6)
    gen = generator("theta/2", ["q0/2"])
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    traj = solve(prob, [0.4], [0.5], steps=500, generators=[gen])
    residual = pointwise_conservation_residual(prob, gen, traj)
    assert residual.shape == traj.theta_grid.shape
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
    assert drift(series) == (0.0, 0.0)


def test_drift_small_wobble():
    series = ChargeSeries.from_values(
        np.arange(3.0), np.array([0.0, 1e-9, -1e-9])
    )
    d, rd = drift(series)
    assert d == pytest.approx(1e-9)


def test_drift_relative_normalization():
    series = ChargeSeries.from_values(np.arange(2.0), np.array([10.0, 10.5]))
    d, rd = drift(series)
    assert d == pytest.approx(0.5)
    assert rd == pytest.approx(0.5 / 11.5)
    assert series.drift == d and series.relative_drift == rd


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
    values = np.array([-0.0, 1e-320, 1.0 / 3.0, 1e22])
    series = ChargeSeries.from_values(np.linspace(0.0, 0.3, 4), values)
    path = tmp_path / "charge.csv"
    series.write_csv(path)
    rows = [f"{format(t, '.17g')},{format(x, '.17g')}" for t, x in zip(series.theta_grid, values)]
    trailer = (
        f"# drift={format(series.drift, '.17g')} "
        f"relative_drift={format(series.relative_drift, '.17g')}"
    )
    assert path.read_text() == "\n".join(["theta,value", *rows, trailer]) + "\n"
