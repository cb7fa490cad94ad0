"""RK4 with quadrature channels, shooting, and order measurement."""

import math

import numpy as np
import pytest

from fracnoether.euler_lagrange import (
    BoundaryConditions,
    FractionalParams,
    VariationalProblem,
    to_explicit_ode,
)
from fracnoether.expressions import Const, parse
from fracnoether.integrators import (
    BlowUpError,
    ExactSolution,
    Trajectory,
    bvp_shoot,
    convergence_order,
    ivp_solve,
)


def free_rhs(theta, q, v):
    return [0.0] * len(q)


def problem(lagrangian, alpha, t=2.0, n=1, boundary=None):
    return VariationalProblem(
        n=n,
        lagrangian=parse(lagrangian, n),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=t),
        boundary=boundary,
    )


# closed form for the weighted free particle, alpha=0.5, t=2, v(0)=1, q(0)=0
def exact_free_v(theta):
    return ((2.0 - theta) / 2.0) ** 0.5


def exact_free_q(theta):
    return (2.0 ** 1.5 - (2.0 - theta) ** 1.5) / (1.5 * math.sqrt(2.0))


# --------------------------------------------------------------------------
# ivp_solve


def test_constant_rhs_is_reproduced_to_rounding():
    traj = ivp_solve(free_rhs, 0.0, 1.0, [0.0], [1.0], 10)
    assert traj.q[-1, 0] == pytest.approx(1.0, abs=5e-15)
    assert traj.v[-1, 0] == 1.0


def test_fractional_free_particle_velocity_profile():
    prob = problem("v0^2/2", alpha=0.5)
    rhs = to_explicit_ode(prob)
    traj = ivp_solve(rhs, 0.0, 1.0, [0.0], [1.0], 1000)
    exact = exact_free_v(traj.theta_grid)
    rel = np.max(np.abs(traj.v[:, 0] - exact) / exact)
    assert rel < 1e-8


def test_unit_integrand_accumulates_interval_length():
    traj = ivp_solve(
        free_rhs, 0.0, 1.0, [0.0], [1.0], 10, integrands={"one": Const(1.0)}
    )
    assert traj.channels["one"][-1] == pytest.approx(1.0, abs=1e-12)
    assert traj.channels["one"][0] == 0.0


def test_channel_additivity_across_a_split():
    prob = problem("v0^2/2", alpha=0.5)
    rhs = to_explicit_ode(prob)
    g = parse("v0^2 / (2 - theta)", 1)
    full = ivp_solve(rhs, 0.0, 1.0, [0.0], [1.0], 800, integrands={"g": g})

    first = ivp_solve(rhs, 0.0, 0.5, [0.0], [1.0], 400, integrands={"g": g})
    second = ivp_solve(
        rhs,
        0.5,
        1.0,
        first.q[-1],
        first.v[-1],
        400,
        integrands={"g": g},
    )
    stitched = first.channels["g"][-1] + second.channels["g"][-1]
    assert abs(stitched - full.channels["g"][-1]) < 1e-10


def test_grid_is_uniform_and_channels_start_at_zero():
    traj = ivp_solve(free_rhs, 0.25, 1.75, [0.0], [1.0], 7, integrands={"one": Const(1.0)})
    steps = np.diff(traj.theta_grid)
    h = (1.75 - 0.25) / 7
    assert np.all(np.abs(steps - h) <= 1e-12 * h)
    assert traj.channels["one"][0] == 0.0


def test_blow_up_detected_with_location():
    def explosive(theta, q, v):
        return [1e155 * v[0] * v[0]]

    with pytest.raises(BlowUpError) as err:
        ivp_solve(explosive, 0.0, 1.0, [0.0], [1.0], 10)
    assert 0.0 < err.value.theta <= 1.0


def test_step_count_validated():
    with pytest.raises(ValueError):
        ivp_solve(free_rhs, 0.0, 1.0, [0.0], [1.0], 1)


def test_trajectory_csv_round_trip(tmp_path):
    prob = problem("v0^2/2", alpha=0.5)
    rhs = to_explicit_ode(prob)
    traj = ivp_solve(
        rhs, 0.0, 1.0, [0.0], [1.0], 10, integrands={"one": Const(1.0)}
    )
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta,q0,v0,one"
    assert len(lines) == 12
    row = lines[3].split(",")
    assert float(row[0]) == traj.theta_grid[2]
    assert float(row[1]) == traj.q[2, 0]
    assert float(row[2]) == traj.v[2, 0]
    assert float(row[3]) == traj.channels["one"][2]


def test_trajectory_csv_bytes_match_per_value_formatting(tmp_path):
    special = [-0.0, 1e-320, 1.0 / 3.0, 1e22, -2.5e-300, math.pi]
    q = np.array([special, special[::-1]]).T
    traj = Trajectory(
        theta_grid=np.linspace(0.0, 1.0, 6),
        q=q,
        v=-q,
        channels={"a": np.array([0.0] + special[1:]), "b": np.array([0.0] * 6)},
    )
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    expected = ["theta,q0,q1,v0,v1,a,b"]
    for k in range(6):
        row = [traj.theta_grid[k], *traj.q[k], *traj.v[k], traj.channels["a"][k], 0.0]
        expected.append(",".join(format(x, ".17g") for x in row))
    assert path.read_text() == "\n".join(expected) + "\n"


# --------------------------------------------------------------------------
# bvp_shoot


def test_classical_free_particle_straight_line():
    prob = problem("v0^2/2", alpha=1.0, boundary=BoundaryConditions([0.0], [1.0]))
    traj, report = bvp_shoot(prob, steps=100)
    assert report.converged
    assert report.initial_velocity[0] == pytest.approx(1.0, abs=1e-9)


def test_fractional_free_particle_boundary_velocity():
    # oracle: 1 / integral of the closed-form velocity profile
    prob = problem("v0^2/2", alpha=0.5, boundary=BoundaryConditions([0.0], [1.0]))
    traj, report = bvp_shoot(prob, steps=1000)
    expected = 1.0 / ((2.0 / 3.0) * (2.0 - 2.0 ** -0.5))
    assert report.converged
    assert report.iterations <= 1  # boundary map affine in v0
    assert report.initial_velocity[0] == pytest.approx(expected, rel=1e-9)


def test_harmonic_oscillator_bvp():
    prob = problem(
        "(v0^2 - q0^2)/2", alpha=1.0,
        boundary=BoundaryConditions([0.0], [math.sin(1.0)]),
    )
    traj, report = bvp_shoot(prob, steps=500)
    assert report.converged
    assert report.initial_velocity[0] == pytest.approx(1.0, abs=1e-6)


def test_shooting_report_on_failure():
    prob = problem("v0^2/2", alpha=0.5, boundary=BoundaryConditions([0.0], [1.0]))
    traj, report = bvp_shoot(prob, steps=100, max_iter=0)
    assert not report.converged
    assert report.iterations == 0
    assert max(abs(x) for x in report.boundary_miss) > 1e-9


def test_bvp_requires_boundary():
    prob = problem("v0^2/2", alpha=0.5)
    with pytest.raises(ValueError, match="boundary"):
        bvp_shoot(prob)


def test_bvp_final_run_carries_channels():
    prob = problem("v0^2/2", alpha=0.5, boundary=BoundaryConditions([0.0], [1.0]))
    traj, report = bvp_shoot(prob, steps=100, integrands={"one": Const(1.0)})
    assert report.converged
    assert traj.channels["one"][-1] == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# convergence_order


def test_order_four_on_oscillator():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    exact = ExactSolution(q=lambda th: [math.cos(th)], v=lambda th: [-math.sin(th)])
    report = convergence_order(prob, exact, [100, 200, 400, 800])
    assert not report.indeterminate
    assert abs(report.slope - 4.0) <= 0.3


def test_order_four_on_fractional_free_particle():
    prob = problem("v0^2/2", alpha=0.5)
    exact = ExactSolution(
        q=lambda th: [exact_free_q(th)], v=lambda th: [exact_free_v(th)]
    )
    report = convergence_order(prob, exact, [100, 200, 400, 800])
    assert not report.indeterminate
    assert abs(report.slope - 4.0) <= 0.3


def test_order_indeterminate_for_exact_problem():
    # straight line is reproduced to rounding at every step count
    prob = problem("v0^2/2", alpha=1.0)
    exact = ExactSolution(q=lambda th: [th], v=lambda th: [1.0])
    report = convergence_order(prob, exact, [10, 20, 40])
    assert report.indeterminate
    assert report.slope is None


def test_refinement_shrinks_error_sixteenfold():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    exact = ExactSolution(q=lambda th: [math.cos(th)], v=lambda th: [-math.sin(th)])
    report = convergence_order(prob, exact, [100, 200])
    ratio = report.errors[0] / report.errors[1]
    assert 10.0 < ratio < 24.0
