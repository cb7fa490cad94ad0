"""Newton shooting against a reference written with ``ivp_solve`` alone.

``bvp_shoot`` runs its Newton solves through the compiled loop keeping only
the state at b, and builds one trajectory, at the final velocity, in the
check solve it expects to converge where that guess holds.  The reference
below is the same Newton iteration with every solve a full ``ivp_solve``
and no guess: the report, every array of the trajectory and every error
must be the same, bit for bit, whatever the guess says.
"""

import numpy as np
import pytest

from fracnoether import cli, integrators
from fracnoether.charges import (
    SymmetryGenerator,
    gauge_rate_from_reduced_condition,
    standard_integrands,
)
from fracnoether.euler_lagrange import (
    BoundaryConditions,
    FractionalParams,
    VariationalProblem,
    to_explicit_ode,
)
from fracnoether.expressions import EvalDomainError, parse
from fracnoether.integrators import BlowUpError, ShootingReport, bvp_shoot, ivp_solve


def problem(text, n, alpha, q_a, q_b):
    return VariationalProblem(
        n=n,
        lagrangian=parse(text, n),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=2.0),
        boundary=BoundaryConditions(q_a, q_b),
    )


def time_translation_integrands(prob):
    """The channels a benchmark ``charge`` of a BVP gives: the gauge of
    tau = 1, and the energy correction."""
    gen = SymmetryGenerator(parse("1", prob.n), [parse("0", prob.n)] * prob.n)
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    return standard_integrands(prob, [gen], energy=True)


def reference_shoot(prob, steps, integrands=None):
    """Newton shooting where every solve is an ``ivp_solve`` with its
    trajectory.  The trajectory returned is a solve at the final velocity
    with the integrands; where no channel is asked for, or a converged shoot
    re-solves with them, it holds the q and v of the last check solve."""
    rhs = to_explicit_ode(prob)
    a, b = prob.interval
    q_a = np.array(prob.boundary.q_a)
    q_b = np.array(prob.boundary.q_b)
    n = prob.n
    v0 = (q_b - q_a) / (b - a)

    def boundary_miss(v_init):
        traj = ivp_solve(rhs, a, b, q_a, v_init, steps)
        return traj.q[-1] - q_b, traj

    miss, check = boundary_miss(v0)
    iterations = 0
    converged = bool(np.max(np.abs(miss)) <= integrators.SHOOTING_TOL)
    while not converged and iterations < integrators.SHOOTING_MAX_ITER:
        jac = np.empty((n, n))
        for k in range(n):
            delta = 1e-6 * (1.0 + abs(v0[k]))
            probe = v0.copy()
            probe[k] += delta
            miss_k, _ = boundary_miss(probe)
            jac[:, k] = (miss_k - miss) / delta
        v0 = v0 + integrators.linsolve.solve(jac, -miss)
        miss, check = boundary_miss(v0)
        iterations += 1
        converged = bool(np.max(np.abs(miss)) <= integrators.SHOOTING_TOL)

    traj = ivp_solve(rhs, a, b, q_a, v0, steps, integrands=integrands)
    assert repr(traj.q) == repr(check.q) and repr(traj.v) == repr(check.v)
    report = ShootingReport(
        converged=converged,
        iterations=iterations,
        boundary_miss=tuple(float(x) for x in traj.q[-1] - q_b),
        initial_velocity=tuple(float(x) for x in v0),
    )
    return traj, report


def assert_same_shoot(got, want):
    (traj, report), (ref_traj, ref_report) = got, want
    assert repr(report) == repr(ref_report)
    for name in ("theta_grid", "q", "v"):
        assert repr(getattr(traj, name)) == repr(getattr(ref_traj, name)), name
    assert list(traj.channels) == list(ref_traj.channels)
    for name, values in traj.channels.items():
        assert repr(values) == repr(ref_traj.channels[name]), name


# The three families of the benchmark's bvp_shoot workload, with
# coefficients, alpha and q_b inside its ranges.
BENCHMARK_BVPS = {
    "pendulum": ("1.3*v0^2/2 + 0.7*cos(q0)", 1, 0.4, [0.0], [2.1]),
    "quartic_bvp": ("1.2*v0^2/2 - 0.6*q0^4/4", 1, 0.6, [0.0], [1.1]),
    "coupled_cos": (
        "(1.2*v0^2 + 1.4*v1^2)/2 + 0.6*cos(q0) - 0.3*(q0 - q1)^2/2", 2, 0.5,
        [0.0, 0.0], [0.3, 0.4],
    ),
}


@pytest.mark.parametrize("family", sorted(BENCHMARK_BVPS))
@pytest.mark.parametrize("channels", [True, False])
def test_shoot_matches_the_reference_bit_for_bit(family, channels):
    prob = problem(*BENCHMARK_BVPS[family])
    integrands = time_translation_integrands(prob) if channels else None
    got = bvp_shoot(prob, steps=200, integrands=integrands)
    assert got[1].converged and got[1].iterations >= 2
    assert_same_shoot(got, reference_shoot(prob, 200, integrands))


def trigonometric_integrands(prob):
    """The gauge channel of tau = sin(theta), xi = cos(q0)."""
    gen = SymmetryGenerator(parse("sin(theta)", 1), [parse("cos(q0)", 1)])
    gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
    return standard_integrands(prob, [gen])


@pytest.mark.parametrize("channels", [None, time_translation_integrands, trigonometric_integrands])
def test_a_driven_shoot_matches_the_reference_bit_for_bit(channels):
    # theta enters the force itself, and sin(theta) and its derivative the
    # trigonometric gauge
    prob = problem("1.2*v0^2/2 - 0.6*q0^2/2 + 0.4*theta*q0/2", 1, 0.5, [0.0], [0.8])
    integrands = channels and channels(prob)
    got = bvp_shoot(prob, steps=200, integrands=integrands)
    assert got[1].converged and got[1].iterations >= 1
    assert_same_shoot(got, reference_shoot(prob, 200, integrands))


@pytest.mark.parametrize("channels", [True, False])
def test_unconverged_shoot_matches_the_reference(monkeypatch, channels):
    monkeypatch.setattr(integrators, "SHOOTING_MAX_ITER", 0)
    prob = problem(*BENCHMARK_BVPS["pendulum"])
    integrands = time_translation_integrands(prob) if channels else None
    got = bvp_shoot(prob, steps=200, integrands=integrands)
    assert not got[1].converged and got[1].iterations == 0
    assert set(got[0].channels) == (set(integrands) if channels else set())
    assert_same_shoot(got, reference_shoot(prob, 200, integrands))


def assert_same_error(got, want):
    """Same class, message and theta, raised from the same chain."""
    got, want = got.value, want.value
    assert type(got) is type(want) and str(got) == str(want)
    assert getattr(got, "theta", None) == getattr(want, "theta", None)
    assert type(got.__cause__) is type(want.__cause__)
    assert type(got.__context__) is type(want.__context__)
    assert got.__suppress_context__ == want.__suppress_context__


def last_finite_velocity(prob, steps):
    """The largest initial velocity, to within a tenth of a Newton probe
    step, whose solve stays finite, by bisection."""
    rhs = to_explicit_ode(prob)

    def blows_up(v):
        try:
            ivp_solve(rhs, 0.0, 1.0, [0.0], [v], steps)
        except BlowUpError:
            return True
        return False

    lo, hi = 0.0, 1.0
    while not blows_up(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-7 * (1.0 + abs(lo)):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if blows_up(mid) else (mid, hi)
    return lo


# q^3 overflows to inf with no error, and exp(q) raises OverflowError
@pytest.mark.parametrize("text", ["v0^2/2 + q0^4/4", "v0^2/2 + exp(q0)"])
def test_a_probe_that_blows_up_raises_what_ivp_solve_raises(text):
    steps = 20
    v_last = last_finite_velocity(problem(text, 1, 0.5, [0.0], [1.0]), steps)
    # the first check solve, at q_b / 1, stays finite; its probe does not
    prob = problem(text, 1, 0.5, [0.0], [v_last])
    rhs = to_explicit_ode(prob)
    probe = v_last + 1e-6 * (1.0 + abs(v_last))
    assert np.isfinite(ivp_solve(rhs, 0.0, 1.0, [0.0], [v_last], steps).q).all()
    with pytest.raises(BlowUpError) as want:
        ivp_solve(rhs, 0.0, 1.0, [0.0], [probe], steps)
    with pytest.raises(BlowUpError) as got:
        bvp_shoot(prob, steps=steps)
    assert_same_error(got, want)


def test_a_check_solve_that_leaves_the_domain_raises_what_ivp_solve_raises():
    # dL/dq0 = ln(q0) + 1, and the first check solve runs q0 from 1 to -1
    prob = problem("v0^2/2 + q0*ln(q0)", 1, 0.5, [1.0], [-1.0])
    with pytest.raises(EvalDomainError) as want:
        ivp_solve(to_explicit_ode(prob), 0.0, 1.0, [1.0], [-2.0], 50)
    with pytest.raises(EvalDomainError) as got:
        bvp_shoot(prob, steps=50)
    assert_same_error(got, want)


# Theta-only subtrees that leave their domain partway through the grid:
# 1/(theta - 0.5) at a node (20 steps) and at a half-node (21),
# sqrt(0.7 - theta) once past 0.7, ln(theta) at the first node, a = 0.
DOMAIN_EXITS = [("1/(theta - 0.5)", 20), ("1/(theta - 0.5)", 21), ("sqrt(0.7 - theta)", 20),
                ("ln(theta)", 20)]


@pytest.mark.parametrize("text, steps", DOMAIN_EXITS)
@pytest.mark.parametrize("where", ["integrand", "lagrangian"])
def test_a_theta_only_subtree_leaving_its_domain_raises_what_the_reference_raises(
        text, steps, where):
    # in the Lagrangian every Newton solve meets it; as a channel only the
    # solve at the final velocity does
    base = BENCHMARK_BVPS["pendulum"][0]
    prob = problem(base if where == "integrand" else f"{base} + q0*({text})",
                   1, 0.4, [0.0], [1.0])
    integrands = {"g": parse(text, 1), **time_translation_integrands(prob)} if (
        where == "integrand") else None
    with pytest.raises(EvalDomainError) as want:
        reference_shoot(prob, steps, integrands)
    with pytest.raises(EvalDomainError) as got:
        bvp_shoot(prob, steps=steps, integrands=integrands)
    assert_same_error(got, want)


def test_one_step_is_rejected_before_any_solve():
    prob = problem(*BENCHMARK_BVPS["pendulum"])
    with pytest.raises(ValueError, match="^steps must be at least 2$"):
        bvp_shoot(prob, steps=1)


@pytest.mark.parametrize("channels", [True, False])
def test_a_converged_shoot_builds_one_trajectory(monkeypatch, channels):
    built = []
    post_init = integrators.Trajectory.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(integrators.Trajectory, "__post_init__", counted)
    prob = problem(*BENCHMARK_BVPS["coupled_cos"])
    integrands = time_translation_integrands(prob) if channels else None
    traj, report = bvp_shoot(prob, steps=100, integrands=integrands)
    assert report.converged and report.iterations >= 2  # 7 or more Newton solves
    assert len(built) == 1 and built[0] is traj


def test_a_shoot_evaluates_its_columns_once_for_all_of_its_solves(made):
    runs, values, arguments = [], [], []

    def record(filename, source, fn, emitted):
        if filename == "<compiled compiled>":
            def kernel(theta, q, v):
                runs.append(theta)
                values.append(fn(theta, q, v))
                return values[-1]
            return kernel
        if filename == "<compiled loop>":
            def loop(nodes, h, hh, h6, state, columns, *rest):
                arguments.append(columns)
                return fn(nodes, h, hh, h6, state, columns, *rest)
            return loop
        return fn

    made.watchers.append(record)
    prob = problem(*BENCHMARK_BVPS["coupled_cos"])
    integrands = time_translation_integrands(prob)

    def shoot():
        runs.clear()
        values.clear()
        arguments.clear()
        traj, report = bvp_shoot(prob, steps=100, integrands=integrands)
        return (repr(traj.q), repr(traj.v), repr(traj.channels)), report

    def assert_newton_run(report):
        # the kernel is the one theta-only subtree of the net force: its
        # evaluator runs at the 101 nodes and then at the 100 half-nodes,
        # once, and the first check solve and the n probes and the check
        # solve of each Newton iteration all read those values; the last
        # check solve is the solve with the channels, which writes the
        # kernel out, and no velocity is solved twice
        assert report.converged and report.iterations >= 2
        grid = integrators.uniform_grid(0.0, 1.0, 100)
        halves = [th + 0.5 * 0.01 for th in grid[:-1]]
        assert runs == [*grid, *halves]
        assert len(arguments) == 1 + 3 * report.iterations
        # (kernel at the nodes, kernel at the half-nodes): the values the
        # evaluator returned, in that order
        newton, final = arguments[:-1], arguments[-1]
        assert len(newton[0]) == 2 and all(columns is newton[0] for columns in newton)
        assert newton[0] == (values[:len(grid)], values[len(grid):])
        assert final == ()
        return newton[0]

    first, report = shoot()
    column = assert_newton_run(report)
    # the same shoot again is answered from memory, wrappers or not: no
    # column and no Newton loop, only the final solve
    assert shoot() == (first, report)
    assert runs == [] and arguments == [()]
    # from empty caches the column is evaluated again: no store outlives its shoot
    cli.clear_caches()
    assert shoot() == (first, report)
    again = assert_newton_run(report)
    assert again[1] is not column[1] and again == column


# The guess of _check_converges patched to say yes at every check solve, no
# at every one, and left as it is.
GUESSES = {"always": lambda misses: True, "never": lambda misses: False,
           "shipped": integrators._check_converges}


@pytest.fixture(params=sorted(GUESSES))
def guess(request, monkeypatch):
    """The shoots of a test run under each guess, from empty caches, so that
    no shoot of the test is answered from memory without its guesses."""
    cli.clear_caches()
    monkeypatch.setattr(integrators, "_check_converges", GUESSES[request.param])
    return request.param


DRIVEN = ("1.2*v0^2/2 - 0.6*q0^2/2 + 0.4*theta*q0/2", 1, 0.5, [0.0], [0.8])
GUESSED_SHOOTS = {
    **{f"{family}-{'channels' if channels else 'bare'}": (
        BENCHMARK_BVPS[family], time_translation_integrands if channels else None)
       for family in BENCHMARK_BVPS for channels in (True, False)},
    "driven-bare": (DRIVEN, None),
    "driven-channels": (DRIVEN, time_translation_integrands),
    "driven-trigonometric": (DRIVEN, trigonometric_integrands),
}


@pytest.mark.parametrize("case", GUESSED_SHOOTS)
def test_no_guess_of_convergence_changes_a_shoot(guess, case):
    args, channels = GUESSED_SHOOTS[case]
    prob = problem(*args)
    integrands = channels and channels(prob)
    got = bvp_shoot(prob, steps=200, integrands=integrands)
    assert got[1].converged and got[1].iterations >= 1
    assert_same_shoot(got, reference_shoot(prob, 200, integrands))


@pytest.mark.parametrize("max_iter", [0, 1])
def test_no_guess_changes_an_unconverged_shoot(guess, monkeypatch, max_iter):
    monkeypatch.setattr(integrators, "SHOOTING_MAX_ITER", max_iter)
    prob = problem(*BENCHMARK_BVPS["quartic_bvp"])
    integrands = time_translation_integrands(prob)
    got = bvp_shoot(prob, steps=200, integrands=integrands)
    assert not got[1].converged and got[1].iterations == max_iter
    assert_same_shoot(got, reference_shoot(prob, 200, integrands))


def test_a_guessed_solve_that_raises_short_of_convergence_changes_nothing(guess):
    # sqrt(q0 - 1.8*theta) leaves its domain on the first check solve of
    # the pendulum, which falls short of q_b = 2.1, and not on the
    # converged one: the shoot returns what the reference returns
    prob = problem(*BENCHMARK_BVPS["pendulum"])
    integrands = {"g": parse("sqrt(q0 - 1.8*theta)", 1), **time_translation_integrands(prob)}
    with pytest.raises(EvalDomainError):
        ivp_solve(to_explicit_ode(prob), 0.0, 1.0, [0.0], [2.1], 200, integrands=integrands)
    got = bvp_shoot(prob, steps=200, integrands=integrands)
    assert got[1].converged
    assert_same_shoot(got, reference_shoot(prob, 200, integrands))


def test_a_guessed_solve_that_raises_raises_what_the_reference_raises(guess):
    # sqrt(1.9 - q0) stays in its domain on the first check solve, which
    # falls short of q_b = 2.1, and leaves it on the later ones
    prob = problem(*BENCHMARK_BVPS["pendulum"])
    integrands = {"g": parse("sqrt(1.9 - q0)", 1)}
    ivp_solve(to_explicit_ode(prob), 0.0, 1.0, [0.0], [2.1], 200, integrands=integrands)
    with pytest.raises(EvalDomainError) as want:
        reference_shoot(prob, 200, integrands)
    with pytest.raises(EvalDomainError) as got:
        bvp_shoot(prob, steps=200, integrands=integrands)
    assert_same_error(got, want)


def test_the_shipped_guess_solves_no_velocity_twice(monkeypatch):
    # each benchmark family, with and without channels, converges in two or
    # more iterations, and its last check solve is its one ivp_solve
    solves, newton = [], []
    solve, final_state = integrators.ivp_solve, integrators._final_state

    def counted_solve(*args, **kwargs):
        solves.append(args[4])
        return solve(*args, **kwargs)

    def counted_final_state(*args):
        fn = final_state(*args)

        def counted(v0):
            newton.append(v0)
            return fn(v0)

        return counted

    monkeypatch.setattr(integrators, "ivp_solve", counted_solve)
    monkeypatch.setattr(integrators, "_final_state", counted_final_state)
    for case, (args, channels) in GUESSED_SHOOTS.items():
        if case.startswith("driven"):
            continue  # linear: one iteration, too few misses to guess from
        cli.clear_caches()  # no shoot of the case is remembered
        solves.clear()
        newton.clear()
        prob = problem(*args)
        traj, report = bvp_shoot(prob, steps=200, integrands=channels and channels(prob))
        v0 = list(report.initial_velocity)
        assert report.converged and report.iterations >= 2, case
        assert solves == [v0] and v0 not in newton, case
        assert len(newton) == (1 + prob.n) * report.iterations, case
