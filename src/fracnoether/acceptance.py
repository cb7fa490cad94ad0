"""Built-in acceptance corpus.

Each criterion is a self-contained check with analytically derived
oracles, runnable at desk scale.  The CLI ``verify`` subcommand and the
test suite both execute this corpus; the criteria and their tolerances
are fixed here, not configurable.  It runs on the standard library: the
two criteria that draw random numbers draw them from ``random.Random``
with fixed seeds.
"""

from __future__ import annotations

import math
import random

from .action import fractional_action, gamma_fn, stationarity_check
from .charges import (
    SymmetryGenerator,
    classical_momentum,
    fractional_energy,
    fractional_momentum,
    gauge_rate_from_reduced_condition,
    noether_charge,
    pointwise_conservation_residual,
    standard_integrands,
)
from .euler_lagrange import (
    BoundaryConditions,
    FractionalParams,
    VariationalProblem,
    to_explicit_ode,
)
from .expressions import (
    Const,
    Q,
    Theta,
    V,
    add,
    cos,
    div,
    exp,
    mul,
    parse,
    sin,
    sqrt,
    sub,
)
from .integrators import (
    ExactSolution, Trajectory, bvp_shoot, convergence_order, ivp_solve, uniform_grid,
)
from .records import Record


class CriterionResult(Record):
    name: str
    passed: bool
    detail: str


def _problem(lagrangian: str, n: int, alpha: float, t: float = 2.0,
             interval=(0.0, 1.0), boundary=None) -> VariationalProblem:
    return VariationalProblem(
        n=n,
        lagrangian=parse(lagrangian, n),
        interval=interval,
        frac=FractionalParams(alpha=alpha, observer_time=t),
        boundary=boundary,
    )


def _solve_ivp(prob, q0, v0, steps, **integrand_kwargs):
    rhs = to_explicit_ode(prob)
    integrands = standard_integrands(prob, **integrand_kwargs) if integrand_kwargs else None
    return ivp_solve(rhs, prob.a, prob.b, q0, v0, steps, integrands=integrands)


# --------------------------------------------------------------------------
# 1. classical limit


def criterion_classical_limit() -> CriterionResult:
    prob = _problem("(v0^2 - q0^2)/2", 1, alpha=1.0)
    traj = _solve_ivp(prob, [1.0], [0.0], 1000, energy=True)
    traj_err = max(abs(q - math.cos(th)) for th, (q,) in zip(traj.theta_grid, traj.q))
    energy = fractional_energy(prob, traj)
    ok = traj_err < 1e-9 and energy.relative_drift < 1e-10
    return CriterionResult(
        "classical_limit_oscillator",
        ok,
        f"max |q - cos| = {traj_err:.3e} (tol 1e-9), "
        f"energy relative drift = {energy.relative_drift:.3e} (tol 1e-10)",
    )


# --------------------------------------------------------------------------
# 2. fractional free-particle closed form


def _free_particle_velocity(theta, alpha=0.5, t=2.0, a=0.0, v0=1.0):
    return v0 * ((t - theta) / (t - a)) ** (1.0 - alpha)


def _free_particle_position(theta, alpha=0.5, t=2.0, a=0.0, v0=1.0, q0=0.0):
    c = v0 / (t - a) ** (1.0 - alpha)
    return q0 + c * ((t - a) ** (2.0 - alpha) - (t - theta) ** (2.0 - alpha)) / (2.0 - alpha)


def criterion_free_particle_velocity() -> CriterionResult:
    prob = _problem("v0^2/2", 1, alpha=0.5)
    traj = _solve_ivp(prob, [0.0], [1.0], 1000)
    rel_err = max(abs(v - exact) / abs(exact) for v, exact in zip(
        traj.v.columns[0], map(_free_particle_velocity, traj.theta_grid)))
    ok = rel_err < 1e-8
    return CriterionResult(
        "free_particle_closed_form",
        ok,
        f"max relative velocity error = {rel_err:.3e} (tol 1e-8)",
    )


# --------------------------------------------------------------------------
# 3. fractional momentum conservation


def criterion_fractional_momentum() -> CriterionResult:
    alpha, t, a = 0.5, 2.0, 0.0
    prob = _problem("v0^2/2", 1, alpha=alpha, t=t)
    traj = _solve_ivp(prob, [0.0], [1.0], 1000, momentum=True)
    series = fractional_momentum(prob, traj, 0)
    # v(theta) = K (t-theta)^(1-alpha) with K = v0/(t-a)^(1-alpha); the
    # antiderivative of the correction collapses the charge to the
    # constant K (t-a)^(1-alpha), i.e. exactly the launch velocity.
    coefficient = 1.0 / (t - a) ** (1.0 - alpha)
    analytic = coefficient * (t - a) ** (1.0 - alpha)
    const_err = max(abs(x - analytic) for x in series.values)
    ok = series.relative_drift < 1e-8 and const_err < 1e-8
    return CriterionResult(
        "fractional_momentum_constant",
        ok,
        f"relative drift = {series.relative_drift:.3e} (tol 1e-8), "
        f"max |charge - {analytic:g}| = {const_err:.3e}",
    )


# --------------------------------------------------------------------------
# 4. fractional energy conservation with 4th-order consistency


def criterion_fractional_energy() -> CriterionResult:
    details = []
    ok = True
    for alpha in (0.25, 0.5, 0.75):
        prob = _problem("(v0^2 - q0^2)/2", 1, alpha=alpha)

        def energy_drift(steps: int) -> float:
            traj = _solve_ivp(prob, [1.0], [0.0], steps, energy=True)
            return fractional_energy(prob, traj).relative_drift

        fine = energy_drift(2000)
        # the N-doubling factor is measured where drift still dominates
        # rounding; at N = 2000 it has already hit the 1e-15 floor
        d125, d250, d500 = energy_drift(125), energy_drift(250), energy_drift(500)
        r1 = d125 / max(d250, 1e-300)
        r2 = d250 / max(d500, 1e-300)
        good = fine < 1e-6 and 8.0 < r1 < 32.0 and 8.0 < r2 < 32.0
        ok = ok and good
        details.append(
            f"alpha={alpha}: drift(N=2000)={fine:.2e}, halving ratios {r1:.1f}, {r2:.1f}"
        )
    return CriterionResult(
        "fractional_energy_drift",
        ok,
        "; ".join(details) + " (tol 1e-6, ratios in [8,32])",
    )


# --------------------------------------------------------------------------
# 5. theorem-as-test corpus


_CORPUS_LAGRANGIANS = (
    ("v0^2/2", 1),
    ("(v0^2 - q0^2)/2", 1),
    ("v0^2/2 + cos(q0)", 1),
    ("v0^2/2 - q0^4/4 + q0", 1),
    ("v0^2/2 - q0^2/2 + theta*q0/2", 1),
    ("(v0^2 + v1^2)/2 - (q0 - q1)^2/2", 2),
)

_CORPUS_ALPHAS = (0.3, 0.5, 0.75, 1.0)


def _corpus_generators(n: int):
    if n == 1:
        specs = [
            ("1", ["0"]),
            ("0", ["1"]),
            ("theta/2", ["q0/2"]),
            ("sin(theta)", ["cos(q0)"]),
        ]
    else:
        specs = [
            ("1", ["0", "0"]),
            ("0", ["1", "1"]),
            ("theta/2", ["q0/2", "q1/2"]),
            ("sin(theta)", ["cos(q0)", "q1^2/4"]),
        ]
    return [
        SymmetryGenerator(parse(tau, n), [parse(x, n) for x in xi])
        for tau, xi in specs
    ]


def criterion_theorem_as_test() -> CriterionResult:
    worst_pointwise = 0.0
    worst_drift = 0.0
    combos = 0
    for li, (text, n) in enumerate(_CORPUS_LAGRANGIANS):
        q0 = [0.4] if n == 1 else [0.4, -0.2]
        v0 = [0.5] if n == 1 else [0.5, 0.1]
        for gi, gen in enumerate(_corpus_generators(n)):
            alpha = _CORPUS_ALPHAS[(li + gi) % len(_CORPUS_ALPHAS)]
            prob = _problem(text, n, alpha=alpha)
            gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
            rhs = to_explicit_ode(prob)
            traj = ivp_solve(
                rhs, prob.a, prob.b, q0, v0, 2000,
                integrands={"Lambda": gen.gauge_rate},
            )
            residual = pointwise_conservation_residual(prob, gen, traj, ode=rhs)
            series = noether_charge(prob, gen, traj)
            worst_pointwise = max(worst_pointwise, *map(abs, residual))
            worst_drift = max(worst_drift, series.relative_drift)
            combos += 1
    ok = worst_pointwise < 1e-9 and worst_drift < 1e-6
    return CriterionResult(
        "theorem_as_test_corpus",
        ok,
        f"{combos} Lagrangian/generator combos: worst pointwise dC/dtheta = "
        f"{worst_pointwise:.3e} (tol 1e-9), worst relative drift = "
        f"{worst_drift:.3e} (tol 1e-6)",
    )


# --------------------------------------------------------------------------
# 6. classical momentum breaks away from alpha = 1


def criterion_broken_classical_momentum() -> CriterionResult:
    t, a, b = 2.0, 0.0, 1.0
    alphas = [0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]
    drifts = []
    max_formula_err = 0.0
    for alpha in alphas:
        prob = _problem("v0^2/2", 1, alpha=alpha, t=t)
        traj = _solve_ivp(prob, [0.0], [1.0], 1000)
        series = classical_momentum(prob, traj, 0)
        predicted = abs(1.0 - ((t - b) / (t - a)) ** (1.0 - alpha))
        max_formula_err = max(max_formula_err, abs(series.drift - predicted))
        drifts.append(series.drift)
    monotone = all(drifts[i] > drifts[i + 1] for i in range(len(drifts) - 1))
    zero_at_one = drifts[-1] < 1e-12
    ok = max_formula_err < 1e-6 and monotone and zero_at_one
    return CriterionResult(
        "broken_classical_momentum",
        ok,
        f"max |drift - formula| = {max_formula_err:.3e} (tol 1e-6), "
        f"monotone in (1-alpha): {monotone}, drift(alpha=1) = {drifts[-1]:.3e}",
    )


# --------------------------------------------------------------------------
# 7. action kernel and gamma checks


def criterion_action_kernel() -> CriterionResult:
    alpha, t = 0.5, 2.0
    prob = _problem("1", 1, alpha=alpha, t=t)
    steps = 1000
    rest = [(0.0,)] * (steps + 1)
    flat = Trajectory(theta_grid=uniform_grid(0.0, 1.0, steps), q=rest, v=rest, channels={})
    action = fractional_action(prob, flat)
    exact = (math.sqrt(2.0) - 1.0) / gamma_fn(1.5)
    rel_err = abs(action.value - exact) / exact

    g1 = abs(gamma_fn(1.0) - 1.0)
    g_half = abs(gamma_fn(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi)
    rng = random.Random(7)
    rec = 0.0
    for x in (rng.uniform(0.05, 19.0) for _ in range(100)):
        rec = max(rec, abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) / abs(gamma_fn(x + 1.0)))
    ok = rel_err < 1e-10 and g1 < 1e-13 and g_half < 1e-13 and rec < 1e-12
    return CriterionResult(
        "action_kernel_quadrature",
        ok,
        f"kernel action rel err = {rel_err:.3e} (tol 1e-10), |gamma(1)-1| = {g1:.1e}, "
        f"gamma(1/2) rel err = {g_half:.1e}, worst recurrence = {rec:.1e} (tol 1e-12)",
    )


# --------------------------------------------------------------------------
# 8. stationarity of the shot extremal


def criterion_stationarity() -> CriterionResult:
    prob = _problem(
        "v0^2/2", 1, alpha=0.5,
        boundary=BoundaryConditions([0.0], [1.0]),
    )
    traj, report = bvp_shoot(prob, steps=1000)
    bump = parse("sin(pi*theta)")
    rep = stationarity_check(prob, traj, bump, [1e-2, 5e-3, 2.5e-3])
    coeff_tol = 1e-6 * abs(rep.base_action) + 1e-9
    exponent_ok = rep.fitted_exponent is not None and 1.8 <= rep.fitted_exponent <= 2.2
    ok = report.converged and abs(rep.first_order_coefficient) < coeff_tol and exponent_ok
    exponent_text = (
        "indeterminate" if rep.fitted_exponent is None else f"{rep.fitted_exponent:.3f}"
    )
    return CriterionResult(
        "extremal_stationarity",
        ok,
        f"first-order coefficient = {rep.first_order_coefficient:.3e} "
        f"(tol {coeff_tol:.1e}), fitted exponent = {exponent_text} (2 +- 0.2)",
    )


# --------------------------------------------------------------------------
# 9. derivative engine against finite differences


def _random_expression(rng, n: int, depth: int):
    if depth == 0:
        pick = rng.randrange(4)
        if pick == 0:
            return Const(rng.uniform(-2.0, 2.0))
        if pick == 1:
            return Theta()
        if pick == 2:
            return Q(rng.randrange(n))
        return V(rng.randrange(n))
    pick = rng.randrange(8)
    a = _random_expression(rng, n, depth - 1)
    b = _random_expression(rng, n, depth - 1)
    if pick == 0:
        return add(a, b)
    if pick == 1:
        return sub(a, b)
    if pick == 2:
        return mul(a, b)
    if pick == 3:
        return sin(a)
    if pick == 4:
        return cos(a)
    if pick == 5:
        return exp(mul(Const(0.3), a))
    if pick == 6:
        # denominator clamped away from zero
        return div(a, add(Const(2.0), mul(b, b)))
    return sqrt(add(Const(1.0), mul(a, a)))


def _central_difference(e, var, theta, q, v, h=1e-6):
    if isinstance(var, Theta):
        return (e.evaluate(theta + h, q, v) - e.evaluate(theta - h, q, v)) / (2 * h)
    target = list(q) if isinstance(var, Q) else list(v)
    hi, lo = list(target), list(target)
    hi[var.index] += h
    lo[var.index] -= h
    if isinstance(var, Q):
        return (e.evaluate(theta, hi, v) - e.evaluate(theta, lo, v)) / (2 * h)
    return (e.evaluate(theta, q, hi) - e.evaluate(theta, q, lo)) / (2 * h)


def criterion_derivative_engine() -> CriterionResult:
    rng = random.Random(20260401)
    n = 2
    worst = 0.0
    for _ in range(20):
        e = _random_expression(rng, n, 3)
        theta = rng.uniform(-1.0, 1.0)
        q = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        v = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        variables = [Theta(), Q(0), Q(1), V(0), V(1)]
        var = variables[rng.randrange(len(variables))]
        sym = e.diff(var).evaluate(theta, q, v)
        fd = _central_difference(e, var, theta, q, v)
        err = abs(sym - fd) / (1.0 + abs(sym))
        worst = max(worst, err)
    ok = worst < 1e-6
    return CriterionResult(
        "derivative_engine_fd",
        ok,
        f"20 random expressions: worst relative deviation = {worst:.3e} (tol 1e-6)",
    )


# --------------------------------------------------------------------------
# 10. integrator order


def criterion_integrator_order() -> CriterionResult:
    ladder = [100, 200, 400, 800]

    prob1 = _problem("(v0^2 - q0^2)/2", 1, alpha=1.0)
    exact1 = ExactSolution(q=lambda th: [math.cos(th)], v=lambda th: [-math.sin(th)])
    rep1 = convergence_order(prob1, exact1, ladder)

    prob2 = _problem("v0^2/2", 1, alpha=0.5)
    exact2 = ExactSolution(
        q=lambda th: [_free_particle_position(th)],
        v=lambda th: [_free_particle_velocity(th)],
    )
    rep2 = convergence_order(prob2, exact2, ladder)

    ok = (
        not rep1.indeterminate
        and not rep2.indeterminate
        and abs(rep1.slope - 4.0) <= 0.3
        and abs(rep2.slope - 4.0) <= 0.3
    )
    return CriterionResult(
        "integrator_order",
        ok,
        f"oscillator slope = {rep1.slope:.3f}, free-particle slope = {rep2.slope:.3f} "
        f"(4 +- 0.3)",
    )


CRITERIA = (
    criterion_classical_limit,
    criterion_free_particle_velocity,
    criterion_fractional_momentum,
    criterion_fractional_energy,
    criterion_theorem_as_test,
    criterion_broken_classical_momentum,
    criterion_action_kernel,
    criterion_stationarity,
    criterion_derivative_engine,
    criterion_integrator_order,
)


def run_all() -> list[CriterionResult]:
    return [criterion() for criterion in CRITERIA]
