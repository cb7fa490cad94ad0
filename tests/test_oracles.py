"""Independent oracles: sympy for the Euler-Lagrange accelerations and the
derived gauge rates, scipy for trajectories and the gamma function.

The sympy oracle re-derives every formula with sympy's own differentiation
from the expression text, so it shares no code with the package's
expression engine, force assembly, or gauge construction; scipy's DOP853
integrates those sympy equations, sharing nothing with the compiled RK4
loop.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from fracnoether.action import gamma_fn
from fracnoether.charges import (
    ENERGY_CHANNEL,
    SymmetryGenerator,
    energy_correction_integrand,
    gauge_rate_from_reduced_condition,
)
from fracnoether.euler_lagrange import (
    ExplicitOde,
    FractionalParams,
    VariationalProblem,
    to_explicit_ode,
)
from fracnoether.expressions import parse
from fracnoether.integrators import ivp_solve
from tree_walk_oracle import euler_lagrange_residual

ALPHA, T = 0.6, 2.0
TOL = 1e-12

theta = sp.Symbol("theta")


def symbols(n):
    return (
        [sp.Symbol(f"q{i}") for i in range(n)],
        [sp.Symbol(f"v{i}") for i in range(n)],
        [sp.Symbol(f"a{i}") for i in range(n)],
    )


def to_sympy(text, n):
    q, v, _ = symbols(n)
    names = {"theta": theta, "ln": sp.log, "pi": sp.pi}
    names.update({str(s): s for s in q + v})
    return sp.sympify(text.replace("^", "**"), locals=names)


def problem(text, n, alpha=ALPHA):
    return VariationalProblem(
        n=n,
        lagrangian=parse(text, n),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=T),
    )


def d_along(e, q, v, a):
    """Total theta-derivative along a motion with accelerations a."""
    return sp.diff(e, theta) + sum(
        sp.diff(e, qk) * vk + sp.diff(e, vk) * ak for qk, vk, ak in zip(q, v, a)
    )


def oracle_accelerations(text, n, alpha=ALPHA):
    """Numeric function (theta, q, v) -> accelerations solving
    dL/dq - d/dtheta(dL/dv) = (1-alpha)/(t-theta) dL/dv."""
    q, v, a = symbols(n)
    L = to_sympy(text, n)
    drag = (1 - sp.Rational(alpha)) / (T - theta)
    equations = [
        sp.diff(L, qj) - d_along(sp.diff(L, vj), q, v, a) - drag * sp.diff(L, vj)
        for qj, vj in zip(q, v)
    ]
    mass, rhs = sp.linear_eq_to_matrix(equations, a)
    mass_fn = sp.lambdify([theta, *q, *v], mass, "numpy")
    rhs_fn = sp.lambdify([theta, *q, *v], rhs, "numpy")

    def accel(th, qs, vs):
        m = np.array(mass_fn(th, *qs, *vs), dtype=float)
        b = np.array(rhs_fn(th, *qs, *vs), dtype=float).reshape(n)
        return np.linalg.solve(m, b)

    return accel


def sample_points(n, count=12, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (
            float(rng.uniform(0.0, 1.0)),
            rng.uniform(-1.0, 1.0, size=n).tolist(),
            rng.uniform(-1.0, 1.0, size=n).tolist(),
        )


# Lagrangians with dp/dq != 0, dp/dtheta != 0, and off-diagonal Hessians.
FORCE_CASES = [
    ("(1 + q0^2)*v0^2/2 - q0^2/2", 1),
    ("exp(theta/4)*v0^2/2 - cos(q0)", 1),
    ("v0^2/2 + v0*v1/3 + v1^2 - q0*q1", 2),
    ("(2 + sin(q1))*v0^2/2 + v1^2/2 + theta*q0*v1", 2),
]


@pytest.mark.parametrize("text,n", FORCE_CASES)
def test_explicit_ode_matches_sympy_accelerations(text, n):
    prob = problem(text, n)
    ode = ExplicitOde(prob)
    oracle = oracle_accelerations(text, n)
    points = list(sample_points(n))
    expected = np.array([oracle(th, q, v) for th, q, v in points])
    scale = 1.0 + np.abs(expected)

    scalar = np.array([ode(th, q, v) for th, q, v in points])
    assert np.all(np.abs(scalar - expected) <= TOL * scale)

    for (th, q, v), accel in zip(points, expected):
        residual = euler_lagrange_residual(ode, th, q, v, accel)
        assert np.max(np.abs(residual)) <= TOL * (1.0 + np.max(np.abs(accel)))


# The last two of each list have a q-dependent tau, whose rate along the
# motion has a velocity part.
GENERATORS = {
    1: [("1", ["0"]), ("0", ["1"]), ("theta/2", ["q0/2"]), ("sin(theta)", ["cos(q0)"]),
        ("q0", ["0"]), ("theta*q0/2", ["q0/2"])],
    2: [
        ("1", ["0", "0"]),
        ("0", ["1", "1"]),
        ("theta/2", ["q0/2", "q1/2"]),
        ("sin(theta)", ["cos(q0)", "q1^2/4"]),
        ("q0", ["0", "0"]),
        ("theta*q1/2", ["q0/2", "0"]),
    ],
}

GAUGE_LAGRANGIANS = [
    ("v0^2/2 - q0^2/2 + theta*q0/2", 1),
    ("exp(theta/4)*v0^2/2 - cos(q0)", 1),
    ("(v0^2 + v1^2)/2 - (q0 - q1)^2/2", 2),
    ("(2 + sin(q1))*v0^2/2 + v1^2/2 + theta*q0*v1", 2),
]


def oracle_gauge(text, n, tau_text, xi_texts, alpha):
    """The reduced invariance condition solved for the gauge rate:
    dL/dtheta tau + dL/dq.xi + dL/dv.(xi_dot - v tau_dot) + L tau_dot
      - (1-alpha)/(t-theta) dL/dv.(xi - v tau)."""
    q, v, a = symbols(n)
    L = to_sympy(text, n)
    tau = to_sympy(tau_text, n)
    xi = [to_sympy(x, n) for x in xi_texts]
    tau_dot = d_along(tau, q, v, a)
    p = [sp.diff(L, vj) for vj in v]
    out = sp.diff(L, theta) * tau + L * tau_dot
    for j in range(n):
        out += sp.diff(L, q[j]) * xi[j] + p[j] * (d_along(xi[j], q, v, a) - v[j] * tau_dot)
    out -= (1 - sp.Rational(alpha)) / (T - theta) * sum(
        p[j] * (xi[j] - v[j] * tau) for j in range(n)
    )
    return sp.lambdify([theta, *q, *v], out, "math")


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("text,n", GAUGE_LAGRANGIANS)
def test_derived_gauge_matches_sympy_reduced_condition(text, n, alpha):
    prob = problem(text, n, alpha=alpha)
    for tau_text, xi_texts in GENERATORS[n]:
        gen = SymmetryGenerator(parse(tau_text, n), [parse(x, n) for x in xi_texts])
        gauge = gauge_rate_from_reduced_condition(prob, gen)
        oracle = oracle_gauge(text, n, tau_text, xi_texts, alpha)
        for th, q, v in sample_points(n, count=8, seed=1):
            expected = float(oracle(th, *q, *v))
            got = gauge.evaluate(th, q, v)
            assert abs(got - expected) <= TOL * (1.0 + abs(expected)), (tau_text, xi_texts)


# --------------------------------------------------------------------------
# Trajectories against scipy's DOP853, the gamma function against scipy's

# A pendulum-family and a coupled-family corpus Lagrangian with initial state
TRAJECTORY_CASES = [
    ("1.3*v0^2/2 + 0.7*cos(q0)", 1, [0.4], [0.2]),
    ("(1.2*v0^2 + 1.4*v1^2)/2 - 0.8*(q0 - q1)^2/2", 2, [0.3, -0.1], [0.2, 0.5]),
    # state-dependent masses, eliminated at run time inside the loop
    ("(1 + q0^2)*v0^2/2 - q0^2/2", 1, [0.4], [0.2]),
    ("(2 + sin(q1))*v0^2/2 + v1^2/2 + theta*q0*v1", 2, [0.3, -0.1], [0.2, 0.5]),
    ("(1 + q0^2)*v0^2/2 + v0*v1/3 + (2 + sin(q2))*v1^2/2 + q1*v1*v2/4 + v0*v2/5"
     " + exp(theta/4)*v2^2/2 - q0*q1 + cos(q2)", 3, [0.3, -0.2, 0.1], [0.1, 0.4, -0.3]),
]


@pytest.mark.parametrize("text,n,q0,v0", TRAJECTORY_CASES)
def test_trajectory_and_channel_match_scipy_dop853(text, n, q0, v0):
    """RK4 with its energy-correction channel against a tight DOP853 solve of
    the sympy equations of motion, the channel carried as one more state."""
    scipy_integrate = pytest.importorskip("scipy.integrate")
    prob = problem(text, n)
    steps = 1000
    traj = ivp_solve(
        to_explicit_ode(prob), prob.a, prob.b, q0, v0, steps,
        integrands={ENERGY_CHANNEL: energy_correction_integrand(prob)},
    )
    accel = oracle_accelerations(text, n)
    q, v, _ = symbols(n)
    L = to_sympy(text, n)
    correction = sp.lambdify(
        [theta, *q, *v], sum(sp.diff(L, vj) * vj for vj in v) / (T - theta), "math"
    )

    def augmented(th, y):
        qs, vs = y[:n], y[n : 2 * n]
        return [*vs, *accel(th, qs, vs), correction(th, *qs, *vs)]

    sol = scipy_integrate.solve_ivp(
        augmented, prob.interval, [*q0, *v0, 0.0], method="DOP853",
        rtol=1e-13, atol=1e-13, t_eval=traj.theta_grid,
    )
    assert sol.success
    assert np.max(np.abs(traj.q - sol.y[:n].T)) < 1e-10
    assert np.max(np.abs(traj.v - sol.y[n : 2 * n].T)) < 1e-10
    assert np.max(np.abs(traj.channels[ENERGY_CHANNEL] - sol.y[2 * n])) < 1e-10


def test_gamma_matches_scipy_on_zero_to_three():
    scipy_special = pytest.importorskip("scipy.special")
    xs = np.concatenate([[1e-8, 1e-3, 0.1, 0.25, 0.4999], np.linspace(0.01, 3.0, 300)])
    assert np.any(xs < 0.5)  # the reflection branch
    for x in xs:
        expected = float(scipy_special.gamma(x))
        assert gamma_fn(float(x)) == pytest.approx(expected, rel=1e-13, abs=0.0), x
