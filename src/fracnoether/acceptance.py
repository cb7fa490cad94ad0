"""Built-in acceptance corpus.

Each criterion is a self-contained check with analytically derived
oracles, runnable at desk scale.  The CLI ``verify`` subcommand and the
test suite both execute this corpus; the criteria and their tolerances
are fixed here, not configurable.  It runs on the standard library: the
two criteria that draw random numbers draw them from ``random.Random``
with fixed seeds.

Every problem starts as a scenario dict, validated as a scenario file is.
Criteria 1-6 read the ``Run`` of the commands' ``cli._solve``, each charge
sampled in the RK4 loop; 4 and 6 sweep alpha, the later alphas sharing
the first's trees (``with_alpha``), and 6 reads the rows ``sweep`` writes
(``cli._sweep_rows``).  Criteria 7-10 take the scenario's problem only:
a kernel on a trajectory at rest, a shot extremal with its shooting
report, the derivative engine and the RK4 order are no command's output.
"""

from __future__ import annotations

import math
import random

from . import cli
from .action import fractional_action, gamma_fn, stationarity_check
from .charges import pointwise_conservation_residual
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
    ExactSolution, Trajectory, bvp_shoot, convergence_order, uniform_grid,
)
from .records import Record, replace
from .scenarios import Scenario, scenario_from_dict


class CriterionResult(Record):
    name: str
    passed: bool
    detail: str


def _scenario(lagrangian: str, alpha, mode: dict, n: int = 1, **fields) -> Scenario:
    """A scenario on [0, 1] with observer time 2; ``alpha`` a number or a
    sweep ``{"from", "to", "count"}``, ``fields`` any further scenario fields."""
    return scenario_from_dict({
        "name": "acceptance", "n": n, "lagrangian": lagrangian, "alpha": alpha,
        "observer_time": 2.0, "interval": [0.0, 1.0], "mode": mode, **fields,
    })


def _ivp(q0: list, v0: list) -> dict:
    return {"type": "ivp", "q0": q0, "v0": v0}


# --------------------------------------------------------------------------
# 1. classical limit


def criterion_classical_limit() -> CriterionResult:
    scenario = _scenario("(v0^2 - q0^2)/2", 1.0, _ivp([1.0], [0.0]), charges=["energy"])
    run = cli._solve(scenario, 1.0, sampled=True)
    traj, energy = run.trajectory, run.series["energy"]
    traj_err = max(abs(q - math.cos(th)) for th, (q,) in zip(traj.theta_grid, traj.q))
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
    traj = cli._solve(_scenario("v0^2/2", 0.5, _ivp([0.0], [1.0])), 0.5).trajectory
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
    scenario = _scenario("v0^2/2", alpha, _ivp([0.0], [1.0]), charges=["momentum"])
    series = cli._solve(scenario, alpha, sampled=True).series["momentum_0"]
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
    sweep = _scenario("(v0^2 - q0^2)/2", {"from": 0.25, "to": 0.75, "count": 3},
                      _ivp([1.0], [0.0]), charges=["energy"])
    # the N-doubling factor is measured where drift still dominates
    # rounding; at N = 2000 it has already hit the 1e-15 floor.  A scenario
    # holds even step counts only, for the action's Simpson rule, so the
    # counts are set past that check: the energy charge reads no action.
    ladder = [replace(sweep, steps=steps) for steps in (2000, 125, 250, 500)]
    details = []
    ok = True
    for alpha in sweep.alphas():
        fine, d125, d250, d500 = [
            cli._solve(scenario, alpha, sampled=True).series["energy"].relative_drift
            for scenario in ladder]
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


# The generators of each degree-of-freedom count, their gauges derived ("auto").
_CORPUS_GENERATORS = {
    1: (
        {"tau": "1", "xi": ["0"]},
        {"tau": "0", "xi": ["1"]},
        {"tau": "theta/2", "xi": ["q0/2"]},
        {"tau": "sin(theta)", "xi": ["cos(q0)"]},
    ),
    2: (
        {"tau": "1", "xi": ["0", "0"]},
        {"tau": "0", "xi": ["1", "1"]},
        {"tau": "theta/2", "xi": ["q0/2", "q1/2"]},
        {"tau": "sin(theta)", "xi": ["cos(q0)", "q1^2/4"]},
    ),
}


def criterion_theorem_as_test() -> CriterionResult:
    worst_pointwise = 0.0
    worst_drift = 0.0
    combos = 0
    for li, (text, n) in enumerate(_CORPUS_LAGRANGIANS):
        start = _ivp([0.4], [0.5]) if n == 1 else _ivp([0.4, -0.2], [0.5, 0.1])
        for gi, generator in enumerate(_CORPUS_GENERATORS[n]):
            alpha = _CORPUS_ALPHAS[(li + gi) % len(_CORPUS_ALPHAS)]
            scenario = _scenario(text, alpha, start, n=n, steps=2000,
                                 generators=[generator], charges=["noether"])
            run = cli._solve(scenario, alpha, sampled=True)
            (gen,) = run.generators
            residual = pointwise_conservation_residual(run.problem, gen, run.trajectory)
            worst_pointwise = max(worst_pointwise, *map(abs, residual))
            worst_drift = max(worst_drift, run.series["noether_g0"].relative_drift)
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
    sweep = _scenario("v0^2/2", {"from": 0.25, "to": 1.0, "count": 7}, _ivp([0.0], [1.0]),
                      charges=["momentum"])
    # one row per alpha: its classical momentum's, or its failed solve's
    rows = [row for alpha in sweep.alphas() for row in cli._sweep_rows(sweep, alpha)
            if row["label"] in ("classical_momentum_0", "")]
    errors = [f"alpha={row['alpha']}: {row['status']}" for row in rows if row["status"] != "ok"]
    if errors:
        return CriterionResult("broken_classical_momentum", False, "; ".join(errors))
    drifts = []
    max_formula_err = 0.0
    for row in rows:
        predicted = abs(1.0 - ((t - b) / (t - a)) ** (1.0 - row["alpha"]))
        max_formula_err = max(max_formula_err, abs(row["drift"] - predicted))
        drifts.append(row["drift"])
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
    prob = _scenario("1", 0.5, _ivp([0.0], [0.0])).problem
    steps = 1000
    rest = [(0.0,)] * (steps + 1)
    flat = Trajectory(theta_grid=uniform_grid(0.0, 1.0, steps), q=rest, v=rest, channels={})
    action = fractional_action(prob, flat)
    exact = (math.sqrt(2.0) - 1.0) / gamma_fn(1.5)
    rel_err = abs(action - exact) / exact

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
    prob = _scenario("v0^2/2", 0.5, {"type": "bvp", "qa": [0.0], "qb": [1.0]}).problem
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

    prob1 = _scenario("(v0^2 - q0^2)/2", 1.0, _ivp([1.0], [0.0])).problem
    exact1 = ExactSolution(q=lambda th: [math.cos(th)], v=lambda th: [-math.sin(th)])
    rep1 = convergence_order(prob1, exact1, ladder)

    prob2 = _scenario("v0^2/2", 0.5, _ivp([0.0], [1.0])).problem
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
