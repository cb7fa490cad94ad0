"""RK4 with quadrature channels, shooting, and order measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracnoether import integrators
from fracnoether.charges import ChargeSeries
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
    assert traj.q[-1][0] == pytest.approx(1.0, abs=5e-15)
    assert traj.v[-1][0] == 1.0


def test_fractional_free_particle_velocity_profile():
    prob = problem("v0^2/2", alpha=0.5)
    rhs = to_explicit_ode(prob)
    traj = ivp_solve(rhs, 0.0, 1.0, [0.0], [1.0], 1000)
    exact = exact_free_v(np.asarray(traj.theta_grid))
    rel = np.max(np.abs(np.asarray(traj.v)[:, 0] - exact) / exact)
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


def test_state_of_the_wrong_dimension_is_rejected(monkeypatch):
    def compile_rk4_loop(*args):
        raise AssertionError("a loop was compiled before the state was checked")

    monkeypatch.setattr(integrators, "_compile_rk4_loop", compile_rk4_loop)
    one = to_explicit_ode(problem("v0^2/2 - q0^2/2", alpha=0.5))
    two = to_explicit_ode(problem("(v0^2 + v1^2)/2", alpha=0.5, n=2))
    for rhs, q0, message in [
        (one, [0.1, 0.2], "q0 and v0 have length 2, the ODE has 1 degrees of freedom"),
        (two, [0.1], "q0 and v0 have length 1, the ODE has 2 degrees of freedom"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ivp_solve(rhs, 0.0, 1.0, q0, [0.0] * len(q0), 10)


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
    assert float(row[1]) == traj.q[2][0]
    assert float(row[2]) == traj.v[2][0]
    assert float(row[3]) == traj.channels["one"][2]


def test_trajectory_csv_bytes_match_per_value_formatting(tmp_path):
    special = [-0.0, 1e-320, 1.0 / 3.0, 1e22, -2.5e-300, math.pi, 1e300, -1e-300]
    q = np.array([special, special[::-1]]).T
    traj = Trajectory(
        theta_grid=np.linspace(0.0, 1.0, 8),
        q=q,
        v=-q,
        channels={"a": np.array([0.0] + special[1:]), "b": np.array([0.0] * 8)},
    )
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    expected = ["theta,q0,q1,v0,v1,a,b"]
    for k in range(8):
        row = [traj.theta_grid[k], *traj.q[k], *traj.v[k], traj.channels["a"][k], 0.0]
        expected.append(",".join(format(x, ".17g") for x in row))
    assert path.read_text() == "\n".join(expected) + "\n"


# --------------------------------------------------------------------------
# the one table writer and its kept theta texts


def per_value_csv(header, grid, columns, trailer=""):
    rows = [",".join(format(float(x), ".17g") for x in row) for row in zip(grid, *columns)]
    return "\n".join([",".join(header), *rows]) + "\n" + trailer


def trajectory_csv(traj):
    header = ["theta", *(f"q{j}" for j in range(traj.n_dof)),
              *(f"v{j}" for j in range(traj.n_dof)), *traj.channels]
    columns = [*zip(*traj.q), *zip(*traj.v), *traj.channels.values()]
    return per_value_csv(header, traj.theta_grid, columns)


def charge_csv(series):
    trailer = (f"# drift={format(series.drift, '.17g')} "
               f"relative_drift={format(series.relative_drift, '.17g')}\n")
    return per_value_csv(["theta", "value"], series.theta_grid, [series.values], trailer)


def still_trajectory(grid):
    q = np.linspace(1.0 / 3.0, 7.0, len(grid))[:, None]
    return Trajectory(theta_grid=grid, q=q, v=-q, channels={})


def assert_kept_texts_are_of(grid):
    """A grid of ``uniform_grid`` keeps its own texts; any other grid, formatted
    per table, keeps none."""
    if type(grid) is integrators._Grid:
        assert grid.texts == [format(x, ".17g") for x in grid]
    else:
        assert getattr(grid, "texts", None) is None


def test_two_grids_written_alternately_keep_their_bytes(tmp_path):
    grids = [integrators.uniform_grid(0.0, 1.0, 6), integrators.uniform_grid(-0.1, 2.0 / 3.0, 4)]
    assert np.array(grids[0]).tobytes() == np.linspace(0.0, 1.0, 7).tobytes()
    assert np.array(grids[1]).tobytes() == np.linspace(-0.1, 2.0 / 3.0, 5).tobytes()
    kept = []
    for k in range(4):
        grid = grids[k % 2]
        traj = still_trajectory(grid)
        path = tmp_path / f"traj{k}.csv"
        traj.write_csv(path)
        assert path.read_text() == trajectory_csv(traj)
        assert traj.theta_grid is grid
        assert_kept_texts_are_of(grid)
        kept.append(grid.texts)
    # each grid formatted once, its texts reused by its second table
    assert kept[2] is kept[0] and kept[3] is kept[1] and kept[0] is not kept[1]


def test_grids_equal_in_value_but_not_in_bytes_are_rendered_apart(tmp_path):
    plus = integrators.uniform_grid(-1.0, 0.0, 4)
    minus = integrators.uniform_grid(-1.0, -0.0, 4)  # its last node is -0.0
    assert plus == minus and np.array(plus).tobytes() != np.array(minus).tobytes()
    texts = []
    for k, grid in enumerate([plus, minus, plus]):
        series = ChargeSeries.from_values(grid, np.full(5, 0.25))
        path = tmp_path / f"charge{k}.csv"
        series.write_csv(path)
        assert path.read_text() == charge_csv(series)
        assert series.theta_grid is grid
        assert_kept_texts_are_of(grid)
        texts.append(path.read_text().splitlines()[-2])  # the last row, before the trailer
    assert texts == ["0,0.25", "-0,0.25", "0,0.25"]


def test_an_int_grid_is_written_as_its_values_as_floats(tmp_path):
    # the int64 grid 0, 1, 2 has the bytes of the float grid 0, 5e-324, 1e-323
    subnormal = np.array([0.0, 5e-324, 1e-323])
    ints = np.arange(3)
    assert subnormal.tobytes() == ints.tobytes()
    for k, grid in enumerate([subnormal, ints, subnormal]):
        traj = still_trajectory(grid)
        assert all(type(x) is float for x in traj.theta_grid)
        path = tmp_path / f"traj{k}.csv"
        traj.write_csv(path)
        assert path.read_text() == trajectory_csv(traj)
        assert_kept_texts_are_of(traj.theta_grid)
    assert (tmp_path / "traj1.csv").read_text().splitlines()[3].startswith("2,")


def test_trajectory_and_charges_on_one_grid_share_its_texts(tmp_path):
    grid = integrators.uniform_grid(0.1, 0.9, 8)
    assert np.array(grid).tobytes() == np.linspace(0.1, 0.9, 9).tobytes()
    special = np.array([0.0, -0.0, 1e-320, 1.0 / 3.0, 1e22, -2.5e-300, math.pi, 1e300, -1e-300])
    traj = Trajectory(
        theta_grid=grid,
        q=np.column_stack([special, special[::-1]]),
        v=np.column_stack([-special, 2.0 * special]),
        channels={"Lambda": special, "energy_correction": np.cbrt(special)},
    )
    traj.write_csv(tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_text() == trajectory_csv(traj)
    texts = grid.texts
    for k, values in enumerate([special, special[::-1], np.exp(special[:1]) * grid]):
        series = ChargeSeries.from_values(traj.theta_grid, values)
        series.write_csv(tmp_path / f"charge{k}.csv")
        assert (tmp_path / f"charge{k}.csv").read_text() == charge_csv(series)
        assert grid.texts is texts
    assert_kept_texts_are_of(traj.theta_grid)


# --------------------------------------------------------------------------
# columns that repeat their values, each distinct value formatted once


def row_by_row_csv(header, grid, columns):
    """The table built one row at a time, every value its own ``"%.17g"``."""
    lines = [",".join(header)]
    for k, theta in enumerate(grid):
        line = "%.17g" % theta
        for column in columns:
            line = line + "," + "%.17g" % column[k]
        lines.append(line)
    return "\n".join(lines) + "\n"


def assert_table_bytes(tmp_path, columns):
    grid = integrators.linspace(0.0, 1.0, len(columns[0]))
    header = ["theta", *(f"c{j}" for j in range(len(columns)))]
    integrators.write_table(tmp_path / "table.csv", header, grid, columns, trailer="# end\n")
    expected = row_by_row_csv(header, grid, columns) + "# end\n"
    assert (tmp_path / "table.csv").read_text() == expected


# Small pools, so that drawn columns repeat: zeros of both signs in both
# orders (one dict key, two texts), nans, infinities and ints equal to floats.
POOLS = [
    [0.0, -0.0, 2.5],
    [-0.0, 0.0, 2.5],
    [math.nan, math.inf, -math.inf, 1.0 / 3.0],
    [3, 3.0, -7, True, 1e-320, 0.1],
    [-0.0, 0.0, math.nan, 1, 1.0, -math.inf, 2.0 ** 53 + 2, 2 ** 53 + 1],
    [1e300, -2.5e-300, math.pi],
]


# a value of any pool, or a nan object of its own
MIXED = st.sampled_from([*(x for pool in POOLS for x in pool), None]).map(
    lambda x: float("nan") if x is None else x)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(columns=st.integers(0, 40).flatmap(lambda rows: st.lists(
    st.one_of(st.sampled_from(POOLS).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)),
        st.lists(MIXED, min_size=rows, max_size=rows),
        st.lists(st.floats(), min_size=rows, max_size=rows)),
    min_size=1, max_size=4)))
def test_columns_drawn_from_small_pools_write_each_value_as_its_own_text(
        tmp_path_factory, columns):
    assert_table_bytes(tmp_path_factory.getbasetemp(), columns)


def test_a_column_of_fewer_than_16_rows(tmp_path):
    for column in ([0.5] * 10, [0.5, 0.5, 0.25], [-0.0] + [0.0] * 9, [0.0] * 9 + [-0.0],
                   [0.25], []):
        assert_table_bytes(tmp_path, [column])


def test_a_column_exactly_half_of_whose_values_are_distinct(tmp_path):
    pairs = [x for k in range(1, 17) for x in (k / 7.0, k / 7.0)]
    assert_table_bytes(tmp_path, [pairs])  # 16 of 32 distinct
    assert_table_bytes(tmp_path, [pairs + [1e-3]])  # 17 of 33
    assert_table_bytes(tmp_path, [[-0.0, 0.0] + pairs[2:]])
    assert_table_bytes(tmp_path, [pairs[:-2] + [0.0, -0.0]])


def test_a_column_of_distinct_values(tmp_path):
    assert_table_bytes(tmp_path, [[math.exp(k / 9.0) for k in range(40)]])
    # no repeat among the first 16 values, one value repeated after them
    assert_table_bytes(tmp_path, [[k / 3.0 for k in range(16)] + [1e-9] * 30])


def test_columns_of_both_kinds_in_one_table(tmp_path):
    rows = 50
    assert_table_bytes(tmp_path, [
        [0.25] * rows,
        [math.sin(k) for k in range(rows)],
        [0.0, -0.0] * (rows // 2),
        [math.nan, 1.0 / 3.0, -math.inf] * (rows // 3) + [math.inf] * (rows % 3),
        [(-1.0) ** (k // 7) * 0.1 for k in range(rows)],
        [-0.0] + [0.0] * (rows - 1),
    ])


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


def test_shooting_report_on_failure(monkeypatch):
    monkeypatch.setattr(integrators, "SHOOTING_MAX_ITER", 0)
    prob = problem("v0^2/2", alpha=0.5, boundary=BoundaryConditions([0.0], [1.0]))
    traj, report = bvp_shoot(prob, steps=100)
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


def test_one_distinct_step_count_fits_no_slope():
    prob = problem("(v0^2 - q0^2)/2", alpha=1.0)
    exact = ExactSolution(q=lambda th: [math.cos(th)], v=lambda th: [-math.sin(th)])
    with pytest.raises(ValueError, match="^a log-log slope needs two distinct x values$"):
        convergence_order(prob, exact, [100, 100])
    # a repeated count among distinct ones still fits the line
    report = convergence_order(prob, exact, [100, 200, 100])
    assert abs(report.slope - 4.0) <= 0.3


def test_log_log_slope_needs_two_distinct_x_values():
    assert integrators.log_log_slope([1.0, 2.0, 1.0], [3.0, 12.0, 3.0]) == pytest.approx(2.0)
    for xs in ([2.0, 2.0], [5.0]):
        with pytest.raises(ValueError, match="two distinct x values"):
            integrators.log_log_slope(xs, [1.0] * len(xs))
