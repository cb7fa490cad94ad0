"""Batch front end: scenario files in, CSV/JSON results out.

Subcommands: ``solve`` (trajectory + manifest), ``charge`` (one CSV per
requested charge plus a drift summary), ``sweep`` (long-format CSV over an
alpha ladder, fractional charges next to their uncorrected classical
counterparts, the alphas shared out over forked workers by
``fanout.fork_map``), and ``verify`` (the built-in acceptance corpus). Each
alpha is solved once, by ``_solve``, into a :class:`Run` that the writers read.

Exit codes: 0 success, 1 charge/acceptance failure, 2 validation error
(an output file that cannot be written is one), 3 solver error.

``main`` may be called any number of times in one process. The argparse
tree is built on its first call and reused after that: ``build_parser()``
returns that shared tree, which callers must not change. Help and usage
texts still follow ``COLUMNS`` on every call, since argparse reads the
terminal width when it formats them. The process keeps more between
commands: the compiled functions by shape (loops, tree evaluators and
acceleration functions), each with its code, the last 32
theta grids, each with its theta texts once a table is written on it,
and the last 32 shoots of boundary problems that returned
(``integrators._SHOOTS``), keyed by all that their Newton iteration
reads: the structure of the ODE's trees with every constant's value, the
grid, q_a and q_b by ``float.hex``, the shooting tolerance and iteration
limit.
A remembered shoot, as ``charge`` after ``solve`` on one boundary problem,
builds no Newton loop or kernel column, and runs only its final solve.
``clear_caches()`` empties all of them and the argparse tree, so the next
command starts as it would in a fresh process; no output depends on them.
A shell user runs one command per process and gains nothing from them.

Each alpha is refused before it is solved where its step is too coarse
for the kernel: rho = h*(1 - alpha)/(t - b), with h = (b - a)/steps, the
step times the drag's largest damping rate, may not exceed 2.785, below
which classical RK4 is stable on the real axis
(``integrators.RK4_STABILITY_BOUND``). ``solve`` and ``charge`` then exit
2 with one ``validation error:`` line naming rho and the smallest even
step count under the bound, and write no file; ``sweep`` writes an
``error:`` row for that alpha and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import expressions, integrators
from .action import action_sample, fractional_action
from .charges import (  # the charge functions are called by name (Run.series)
    ChargePreconditionError,
    ChargeSeries,
    classical_energy,
    classical_momentum,
    fractional_energy,
    fractional_momentum,
    noether_charge,
    requested,
)
from .euler_lagrange import SingularHessianError, VariationalProblem, to_explicit_ode
from .expressions import EvalDomainError, ExpressionError
from .integrators import BlowUpError, Sample, ShootingError, bvp_shoot, ivp_solve
from .records import Record, plain, replace
from .scenarios import (
    Scenario,
    ScenarioError,
    build_generators,
    build_problem,
    check_output_dir,
    check_stable,
    check_steps,
    load_scenario,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

# The failures of a solve, exit code 3: a state that left the finite floats,
# a shoot that failed, a singular velocity Hessian, a tree outside its domain.
SOLVER_ERRORS = (BlowUpError, ShootingError, SingularHessianError, EvalDomainError)

# Failures of one charge label: an unmet precondition, a missing channel, or
# a charge expression that leaves its domain on the trajectory.
CHARGE_FAILURES = (ChargePreconditionError, LookupError, EvalDomainError)


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.steps is not None:
        check_steps(args.steps, scenario.interval)
        scenario = replace(scenario, steps=args.steps)
    if args.output is not None:
        scenario = replace(scenario, output_dir=check_output_dir(args.output))
    return scenario


class Run(Record):
    """One alpha as :func:`_solve` solved it: its problem, generators, trajectory, shooting
    report (None for an IVP), ``charges.requested`` list and the seconds taken."""

    problem: VariationalProblem
    generators: list
    trajectory: integrators.Trajectory
    shooting: integrators.ShootingReport | None
    charges: list
    seconds: float

    @functools.cached_property
    def series(self) -> dict:
        """Each label's series, or the failure its charge function raised, in report
        order, computed on first read by the function this module holds under that name."""
        series = {}
        for charge in self.charges:
            try:
                series[charge.label] = globals()[charge.function](
                    prob=self.problem, traj=self.trajectory, **charge.arguments)
            except CHARGE_FAILURES as exc:
                series[charge.label] = exc
        return series


def _solve(scenario: Scenario, alpha: float, sampled: bool = False, classical: bool = False):
    """Solve one alpha point, with every channel its charges need, into a :class:`Run`.

    With ``sampled`` the solve also samples those whose preconditions hold
    in its loop, and with ``classical`` the classical charges and the action
    integrand too, all listed before it starts; it then integrates only the
    channels those samples read, since a failing charge reads none.

    An alpha whose step RK4 cannot resolve is refused first, before any
    tree is built (``scenarios.check_stable``)."""
    start = time.perf_counter()
    check_stable(scenario, alpha)
    prob = build_problem(scenario, alpha)
    gens = build_generators(scenario, prob)
    integrands, charges = requested(
        prob,
        generators=gens if "noether" in scenario.charges else (),
        energy="energy" in scenario.charges,
        momentum="momentum" in scenario.charges,
        classical=classical,
    )
    samples = []
    if sampled:
        samples = [c.sample for c in charges if isinstance(c.sample, Sample)]
        read = {s.channel for s in samples}
        integrands = {name: tree for name, tree in integrands.items() if name in read}
    if classical:
        samples.append(action_sample(prob))
    if scenario.mode["type"] == "bvp":
        traj, report = bvp_shoot(
            prob, steps=scenario.steps, integrands=integrands, samples=samples)
        if not report.converged:
            raise ShootingError(
                f"shooting did not converge in {report.iterations} iterations "
                f"(miss {max(abs(x) for x in report.boundary_miss):.3e})"
            )
    else:
        rhs = to_explicit_ode(prob).with_samples(samples)
        traj = ivp_solve(
            rhs,
            prob.a,
            prob.b,
            scenario.mode["q0"],
            scenario.mode["v0"],
            scenario.steps,
            integrands=integrands,
        )
        report = None
    return Run(prob, gens, traj, report, charges, time.perf_counter() - start)


def _output_dir(path) -> Path:
    """Create the output directory, or find it there, before anything is
    solved; a path that cannot be one is a validation error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot use output directory {str(out)!r}: {exc}") from exc
    return out


def _write_manifest(path: Path, scenario: Scenario, report, wall_time: float) -> None:
    manifest = {
        "scenario": plain(scenario),
        "solver": {
            "method": "rk4",
            "steps": scenario.steps,
            "boundary_tol": integrators.SHOOTING_TOL,
            "max_iter": integrators.SHOOTING_MAX_ITER,
        },
        "shooting": plain(report),
        "wall_time_seconds": wall_time,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_solve(args) -> int:
    scenario = _load(args)
    if scenario.is_sweep:
        raise ScenarioError("solve needs a fixed alpha; use the sweep command")
    out = _output_dir(scenario.output_dir)
    run = _solve(scenario, scenario.alpha)
    run.trajectory.write_csv(out / f"{scenario.name}_traj.csv")
    _write_manifest(out / f"{scenario.name}_manifest.json", scenario, run.shooting, run.seconds)
    print(f"wrote {out / (scenario.name + '_traj.csv')}")
    return EXIT_OK


def cmd_charge(args) -> int:
    scenario = _load(args)
    if scenario.is_sweep:
        raise ScenarioError("charge needs a fixed alpha; use the sweep command")
    if not scenario.charges:
        raise ScenarioError("charge needs at least one requested charge kind")
    out = _output_dir(scenario.output_dir)
    run = _solve(scenario, scenario.alpha, sampled=True)

    print(f"{'label':<24}{'drift':>14}{'relative_drift':>18}")
    for label, series in run.series.items():
        if not isinstance(series, ChargeSeries):
            print(f"{label:<24}{'failed':>14}{'':>18}  {series}")
            continue
        series.write_csv(out / f"{scenario.name}_charge_{label}.csv")
        print(f"{label:<24}{series.drift:>14.3e}{series.relative_drift:>18.3e}")
    return EXIT_FAILURE if any(isinstance(s, Exception) for s in run.series.values()) else EXIT_OK


def _sweep_rows(scenario: Scenario, alpha: float) -> list[dict]:
    rows = []
    try:
        run = _solve(scenario, alpha, sampled=True, classical=True)
        action = fractional_action(run.problem, run.trajectory)
        for label, series in run.series.items():
            if not isinstance(series, ChargeSeries):
                rows.append({"alpha": alpha, "label": label, "status": f"error: {series}"})
                continue
            rows.append(
                {
                    "alpha": alpha,
                    "label": label,
                    "drift": series.drift,
                    "relative_drift": series.relative_drift,
                    "action": action,
                    "status": "ok",
                }
            )
    except (*SOLVER_ERRORS, ScenarioError, ExpressionError) as exc:
        rows.append({"alpha": alpha, "label": "", "status": f"error: {exc}"})
    return rows


# The fields of a sweep CSV row, in order; a failed label leaves its numbers empty.
SWEEP_COLUMNS = ("alpha", "label", "drift", "relative_drift", "action", "status")


def _sweep_field(value) -> str:
    return value if isinstance(value, str) else format(value, ".17g")


def cmd_sweep(args) -> int:
    scenario = _load(args)
    if not scenario.is_sweep:
        raise ScenarioError("sweep needs an alpha sweep specification {from, to, count}")
    if not scenario.charges:
        raise ScenarioError("sweep needs at least one requested charge kind")
    from .fanout import fork_map  # only sweep reads it

    out = _output_dir(scenario.output_dir)
    shares = fork_map(functools.partial(_sweep_rows, scenario), scenario.alphas())
    rows = [row for share in shares for row in share]
    rows.sort(key=lambda r: (r["alpha"], r["label"]))
    path = out / f"{scenario.name}_sweep.csv"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_sweep_field(row.get(key, "")) for key in SWEEP_COLUMNS) + "\n")
    print(f"wrote {path}")
    bad = [row for row in rows if row["status"] != "ok"]
    return EXIT_FAILURE if bad else EXIT_OK


def cmd_verify(args) -> int:
    from . import acceptance  # only verify reads it

    out = _output_dir(check_output_dir(args.output))
    results = acceptance.run_all()
    width = max(len(r.name) for r in results) + 2
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}} {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    report = {
        "criteria": plain(results),
        "passed": passed,
        "total": len(results),
    }
    (out / "verify_report.json").write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_OK if passed == len(results) else EXIT_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built on the first call and
    shared by every later one in the process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="fracnoether",
        description="Solve power-law weighted variational problems and "
        "verify their conserved charges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--output", help="output directory override")
        p.add_argument("--steps", type=int, help="step-count override")

    add_common(sub.add_parser("solve", help="integrate one scenario, write trajectory CSV"))
    add_common(sub.add_parser("charge", help="compute requested charges and drift"))
    add_common(sub.add_parser("sweep", help="run an alpha sweep, write long-format CSV"))
    p_verify = sub.add_parser("verify", help="run the built-in acceptance corpus")
    p_verify.add_argument("--output", default=".", help="directory for verify_report.json")

    return parser


def clear_caches() -> None:
    """Return the process to the caches of a fresh one: the functions kept
    by shape with their code (``expressions._SHAPES``: loops, tree
    evaluators and acceleration functions), the grids with their
    theta texts (``integrators.uniform_grid``), the last 32 shoots that
    returned (``integrators._SHOOTS``, keyed by the structure and
    constants of the ODE's trees, the grid, q_a, q_b, the shooting
    tolerance and iteration limit) and the argparse tree of
    :func:`build_parser`.  What a command computes or writes does not
    depend on them."""
    expressions._SHAPES.clear()
    integrators._built_grid.cache_clear()
    integrators._SHOOTS.clear()
    build_parser.cache_clear()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up here, not when the parser was built, so a command function
    # replaced since then is the one that runs
    commands = {"solve": cmd_solve, "charge": cmd_charge, "sweep": cmd_sweep,
                "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except (ScenarioError, ExpressionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:  # an output file that cannot be written; its path is in exc
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
