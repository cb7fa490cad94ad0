"""Gamma function, weighted action quadrature, stationarity probes."""

import math

import numpy as np
import pytest

from fracnoether import acceptance, action
from fracnoether.action import fractional_action, gamma_fn, stationarity_check
from fracnoether.euler_lagrange import (
    BoundaryConditions,
    FractionalParams,
    VariationalProblem,
)
from fracnoether.expressions import parse
from fracnoether.integrators import Trajectory, bvp_shoot


def problem(lagrangian, alpha, t=2.0, boundary=None):
    return VariationalProblem(
        n=1,
        lagrangian=parse(lagrangian, 1),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=t),
        boundary=boundary,
    )


def flat_trajectory(steps, q_of=None, v_of=None):
    grid = np.linspace(0.0, 1.0, steps + 1)
    q = np.zeros((steps + 1, 1)) if q_of is None else q_of(grid)[:, None]
    v = np.zeros((steps + 1, 1)) if v_of is None else v_of(grid)[:, None]
    return Trajectory(theta_grid=grid, q=q, v=v, channels={})


# --------------------------------------------------------------------------
# gamma


def test_gamma_known_values():
    assert gamma_fn(1.0) == 1.0 and gamma_fn(5.0) == 24.0
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    for x in (0.001, 0.3, 1.5, 7.25, 49.999, 50.0):
        assert gamma_fn(x) == math.gamma(x)


def test_gamma_recurrence():
    rng = np.random.default_rng(6)
    for x in rng.uniform(0.05, 19.0, size=100):
        lhs = gamma_fn(float(x) + 1.0)
        assert abs(lhs - x * gamma_fn(float(x))) <= 1e-12 * abs(lhs)


def test_gamma_rejects_non_positive():
    with pytest.raises(ValueError, match="positive"):
        gamma_fn(0.0)
    with pytest.raises(ValueError, match="positive"):
        gamma_fn(-1.5)


# --------------------------------------------------------------------------
# fractional_action


def test_unit_lagrangian_matches_kernel_closed_form():
    prob = problem("1", alpha=0.5)
    traj = flat_trajectory(1000)
    exact = (math.sqrt(2.0) - 1.0) / gamma_fn(1.5)
    assert abs(fractional_action(prob, traj) - exact) / exact < 1e-10


def test_classical_unit_speed_line():
    prob = problem("v0^2/2", alpha=1.0)
    traj = flat_trajectory(100, q_of=lambda g: g, v_of=lambda g: np.ones_like(g))
    assert fractional_action(prob, traj) == pytest.approx(0.5, rel=1e-14)


def test_zero_lagrangian_gives_zero_action():
    prob = problem("0", alpha=0.5)
    traj = flat_trajectory(100)
    assert fractional_action(prob, traj) == 0.0


def test_classical_action_is_its_simpson_sum():
    # Gamma(1) is exactly 1, so at alpha = 1 nothing rounds the sum again
    steps = 16
    traj = flat_trajectory(steps, q_of=lambda g: np.sin(3.0 * g))
    f = [row[0] for row in traj.q]
    simpson = 1.0 / steps / 3.0 * (
        f[0] + f[-1] + 4.0 * math.fsum(f[1:-1:2]) + 2.0 * math.fsum(f[2:-1:2]))
    assert fractional_action(problem("q0", alpha=1.0), traj) == simpson


def test_action_whose_sums_stay_finite_is_finite():
    # +-8e307 at the even interior nodes: their sum is 8e307, so the action
    # is finite, though a sum over every other even node would overflow
    steps = 16
    q = [8e307 if i % 4 == 2 else -8e307 if i % 4 == 0 and 0 < i < steps else 0.0
         for i in range(steps + 1)]
    traj = flat_trajectory(steps, q_of=lambda g: np.array(q))
    action = fractional_action(problem("q0", alpha=1.0), traj)
    assert action == 1.0 / steps / 3.0 * (2.0 * 8e307)
    assert action == pytest.approx(3.333e306, rel=1e-3)


def test_simpson_refinement_is_fourth_order():
    prob = problem("1", alpha=0.5)
    exact = (math.sqrt(2.0) - 1.0) / gamma_fn(1.5)
    err_coarse = abs(fractional_action(prob, flat_trajectory(100)) - exact)
    err_fine = abs(fractional_action(prob, flat_trajectory(200)) - exact)
    assert 10.0 < err_coarse / err_fine < 24.0


def test_action_requires_even_step_count():
    prob = problem("1", alpha=0.5)
    traj = flat_trajectory(101)
    with pytest.raises(ValueError, match="even"):
        fractional_action(prob, traj)


def test_action_checks_interval_span():
    prob = problem("1", alpha=0.5)
    grid = np.linspace(0.0, 0.5, 11)
    traj = Trajectory(
        theta_grid=grid, q=np.zeros((11, 1)), v=np.zeros((11, 1)), channels={}
    )
    with pytest.raises(ValueError, match="span"):
        fractional_action(prob, traj)


# --------------------------------------------------------------------------
# stationarity_check


EPS_LADDER = [1e-2, 5e-3, 2.5e-3]


def test_classical_free_particle_extremal_is_stationary():
    prob = problem("v0^2/2", alpha=1.0)
    traj = flat_trajectory(200, q_of=lambda g: g, v_of=lambda g: np.ones_like(g))
    rep = stationarity_check(prob, traj, parse("sin(pi*theta)"), EPS_LADDER)
    assert rep.fitted_exponent == pytest.approx(2.0, abs=0.2)
    assert abs(rep.first_order_coefficient) < 1e-6 * abs(rep.base_action) + 1e-9
    # quadratic response coefficient is pi^2/4 for this bump
    assert rep.deltas[0] == pytest.approx(
        (math.pi ** 2 / 4.0) * rep.epsilons[0] ** 2, rel=1e-3
    )


def test_fractional_extremal_is_stationary():
    prob = problem("v0^2/2", alpha=0.5, boundary=BoundaryConditions([0.0], [1.0]))
    traj, report = bvp_shoot(prob, steps=1000)
    assert report.converged
    rep = stationarity_check(prob, traj, parse("sin(pi*theta)"), EPS_LADDER)
    assert rep.fitted_exponent == pytest.approx(2.0, abs=0.2)
    assert abs(rep.first_order_coefficient) < 1e-6 * abs(rep.base_action) + 1e-9


def test_non_extremal_shows_first_order_variation():
    # a straight line is not an extremal of the weighted free particle
    prob = problem("v0^2/2", alpha=0.5)
    traj = flat_trajectory(1000, q_of=lambda g: g, v_of=lambda g: np.ones_like(g))
    rep = stationarity_check(prob, traj, parse("sin(pi*theta)"), EPS_LADDER)
    assert abs(rep.first_order_coefficient) > 1e-3
    assert rep.fitted_exponent < 1.5


def test_stationarity_criterion_runs_five_actions(monkeypatch):
    # the base, +eps for each of the three eps, and -eps at the smallest only
    calls = []
    counted = action.fractional_action
    monkeypatch.setattr(action, "fractional_action",
                        lambda *args: calls.append(args) or counted(*args))
    assert acceptance.criterion_stationarity().passed
    assert len(calls) == 5


def test_bump_must_vanish_at_endpoints():
    prob = problem("v0^2/2", alpha=0.5)
    traj = flat_trajectory(100)
    with pytest.raises(ValueError, match="vanish"):
        stationarity_check(prob, traj, parse("cos(pi*theta)"), EPS_LADDER)


def test_bump_must_be_theta_only():
    prob = problem("v0^2/2", alpha=0.5)
    traj = flat_trajectory(100)
    with pytest.raises(ValueError, match="theta alone"):
        stationarity_check(prob, traj, parse("sin(pi*theta)*q0", 1), EPS_LADDER)


@pytest.mark.parametrize("ladder", [[0.0, 1e-2], [-1e-2, 5e-3], [math.nan, 1e-2], [1e-2, math.inf]])
def test_epsilons_must_be_finite_and_positive(ladder, monkeypatch):
    prob = problem("v0^2/2", alpha=0.5, boundary=BoundaryConditions([0.0], [1.0]))
    traj, _ = bvp_shoot(prob, steps=100)

    def unreachable(*args):
        raise AssertionError("an action was evaluated")

    monkeypatch.setattr(action, "fractional_action", unreachable)
    with pytest.raises(ValueError, match="^epsilons must be finite and positive$"):
        stationarity_check(prob, traj, parse("sin(pi*theta)"), ladder)


def test_one_distinct_epsilon_fits_no_exponent():
    prob = problem("v0^2/2", alpha=0.5, boundary=BoundaryConditions([0.0], [1.0]))
    traj, _ = bvp_shoot(prob, steps=100)
    bump = parse("sin(pi*theta)")
    with pytest.raises(ValueError, match="^a log-log slope needs two distinct x values$"):
        stationarity_check(prob, traj, bump, [1e-2, 1e-2])
    rep = stationarity_check(prob, traj, bump, [1e-2, 5e-3, 1e-2])
    assert rep.fitted_exponent == pytest.approx(2.0, abs=0.2)
