"""Batch front end: scenario files in, CSV/JSON results out.

Subcommands: ``solve`` (trajectory + manifest), ``charge`` (one CSV per
requested charge plus a drift summary), ``sweep`` (long-format CSV over an
alpha ladder, fractional charges next to their uncorrected classical
counterparts), and ``verify`` (the built-in acceptance corpus).

Exit codes: 0 success, 1 charge/acceptance failure, 2 validation error,
3 solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import acceptance
from .action import fractional_action
from .charges import (
    ChargePreconditionError,
    ChargeSeries,
    classical_energy,
    classical_momentum,
    fractional_energy,
    fractional_momentum,
    gauge_channel,
    noether_charge,
    standard_integrands,
)
from .euler_lagrange import SingularHessianError, to_explicit_ode
from .expressions import EvalDomainError, ExpressionError
from .integrators import BlowUpError, ShootingError, bvp_shoot, ivp_solve
from .scenarios import (
    Scenario,
    ScenarioError,
    build_generators,
    build_problem,
    load_scenario,
    scenario_echo,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


class SolverFailure(RuntimeError):
    """Wraps any numerical failure that should map to exit code 3."""


# Failures of one charge label: an unmet precondition, a missing channel, or
# a charge expression that leaves its domain on the trajectory.
CHARGE_FAILURES = (ChargePreconditionError, LookupError, EvalDomainError)


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.steps is not None:
        if args.steps < 2 or args.steps % 2 != 0:
            raise ScenarioError("steps must be an even integer >= 2")
        scenario = dataclasses.replace(scenario, steps=args.steps)
    if args.output is not None:
        scenario = dataclasses.replace(scenario, output_dir=args.output)
    return scenario


def _solve(scenario: Scenario, alpha: float):
    """Solve one alpha point with every channel the scenario's charges need."""
    prob = build_problem(scenario, alpha)
    gens = build_generators(scenario, prob)
    integrands = standard_integrands(
        prob,
        generators=gens if "noether" in scenario.charges else [],
        energy="energy" in scenario.charges,
        momentum="momentum" in scenario.charges,
    )
    try:
        if scenario.mode == "bvp":
            traj, report = bvp_shoot(prob, steps=scenario.steps, integrands=integrands)
            if not report.converged:
                raise SolverFailure(
                    f"shooting did not converge in {report.iterations} iterations "
                    f"(miss {max(abs(x) for x in report.boundary_miss):.3e})"
                )
        else:
            rhs = to_explicit_ode(prob)
            traj = ivp_solve(
                rhs,
                prob.a,
                prob.b,
                scenario.q0,
                scenario.v0,
                scenario.steps,
                integrands=integrands,
            )
            report = None
    except (BlowUpError, ShootingError, SingularHessianError, EvalDomainError) as exc:
        raise SolverFailure(str(exc)) from exc
    return prob, gens, traj, report


def _charge_labels(scenario: Scenario, n_gens: int, n_dof: int, classical: bool):
    labels = []
    if "noether" in scenario.charges:
        labels.extend(f"noether_g{i}" for i in range(n_gens))
    if "energy" in scenario.charges:
        labels.append("energy")
        if classical:
            labels.append("classical_energy")
    if "momentum" in scenario.charges:
        labels.extend(f"momentum_{j}" for j in range(n_dof))
        if classical:
            labels.extend(f"classical_momentum_{j}" for j in range(n_dof))
    return labels


def _compute_charge(label: str, prob, gens, traj) -> ChargeSeries:
    if label.startswith("noether_g"):
        index = int(label.removeprefix("noether_g"))
        channel = gauge_channel(index, len(gens))
        return noether_charge(prob, gens[index], traj, channel=channel)
    if label == "energy":
        return fractional_energy(prob, traj)
    if label == "classical_energy":
        return classical_energy(prob, traj)
    if label.startswith("classical_momentum_"):
        return classical_momentum(prob, traj, int(label.rsplit("_", 1)[1]))
    if label.startswith("momentum_"):
        return fractional_momentum(prob, traj, int(label.rsplit("_", 1)[1]))
    raise ValueError(f"unknown charge label {label!r}")


def _ensure_output_dir(scenario: Scenario) -> Path:
    out = Path(scenario.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(path: Path, scenario: Scenario, report, wall_time: float) -> None:
    manifest = {
        "scenario": scenario_echo(scenario),
        "solver": {
            "method": "rk4",
            "steps": scenario.steps,
            "boundary_tol": 1e-9,
            "max_iter": 50,
        },
        "shooting": None
        if report is None
        else {
            "converged": report.converged,
            "iterations": report.iterations,
            "boundary_miss": list(report.boundary_miss),
            "initial_velocity": list(report.initial_velocity),
        },
        "wall_time_seconds": wall_time,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_solve(args) -> int:
    scenario = _load(args)
    if scenario.is_sweep:
        raise ScenarioError("solve needs a fixed alpha; use the sweep command")
    start = time.perf_counter()
    prob, gens, traj, report = _solve(scenario, scenario.alpha)
    wall = time.perf_counter() - start
    out = _ensure_output_dir(scenario)
    traj.write_csv(out / f"{scenario.name}_traj.csv")
    _write_manifest(out / f"{scenario.name}_manifest.json", scenario, report, wall)
    print(f"wrote {out / (scenario.name + '_traj.csv')}")
    return EXIT_OK


def cmd_charge(args) -> int:
    scenario = _load(args)
    if scenario.is_sweep:
        raise ScenarioError("charge needs a fixed alpha; use the sweep command")
    if not scenario.charges:
        raise ScenarioError("charge needs at least one requested charge kind")
    prob, gens, traj, _ = _solve(scenario, scenario.alpha)
    out = _ensure_output_dir(scenario)

    labels = _charge_labels(scenario, len(gens), prob.n, classical=False)
    failures: dict[str, str] = {}
    print(f"{'label':<24}{'drift':>14}{'relative_drift':>18}")
    for label in labels:
        try:
            series = _compute_charge(label, prob, gens, traj)
        except CHARGE_FAILURES as exc:
            failures[label] = str(exc)
            print(f"{label:<24}{'failed':>14}{'':>18}  {exc}")
            continue
        series.write_csv(out / f"{scenario.name}_charge_{label}.csv")
        print(f"{label:<24}{series.drift:>14.3e}{series.relative_drift:>18.3e}")
    if failures:
        return EXIT_FAILURE
    return EXIT_OK


def _sweep_rows(scenario: Scenario, alpha: float) -> list[dict]:
    rows = []
    try:
        prob, gens, traj, _ = _solve(scenario, alpha)
        action = fractional_action(prob, traj).value
        labels = _charge_labels(scenario, len(gens), prob.n, classical=True)
        for label in labels:
            try:
                series = _compute_charge(label, prob, gens, traj)
            except CHARGE_FAILURES as exc:
                rows.append(
                    {"alpha": alpha, "label": label, "status": f"error: {exc}"}
                )
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
    except (SolverFailure, ScenarioError, ExpressionError, EvalDomainError) as exc:
        rows.append({"alpha": alpha, "label": "", "status": f"error: {exc}"})
    return rows


def cmd_sweep(args) -> int:
    scenario = _load(args)
    if not scenario.is_sweep:
        raise ScenarioError("sweep needs an alpha sweep specification {from, to, count}")
    rows = [row for alpha in scenario.alphas() for row in _sweep_rows(scenario, alpha)]
    rows.sort(key=lambda r: (r["alpha"], r["label"]))
    out = _ensure_output_dir(scenario)
    path = out / f"{scenario.name}_sweep.csv"
    with open(path, "w", newline="") as fh:
        fh.write("alpha,label,drift,relative_drift,action,status\n")
        for row in rows:
            fh.write(
                ",".join(
                    [
                        format(row["alpha"], ".17g"),
                        row["label"],
                        format(row["drift"], ".17g") if "drift" in row else "",
                        format(row["relative_drift"], ".17g")
                        if "relative_drift" in row
                        else "",
                        format(row["action"], ".17g") if "action" in row else "",
                        row["status"],
                    ]
                )
                + "\n"
            )
    print(f"wrote {path}")
    bad = [row for row in rows if row["status"] != "ok"]
    return EXIT_FAILURE if bad else EXIT_OK


def cmd_verify(args) -> int:
    results = acceptance.run_all()
    width = max(len(r.name) for r in results) + 2
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}} {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    out = Path(args.output) if args.output else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": passed,
        "total": len(results),
    }
    (out / "verify_report.json").write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_OK if passed == len(results) else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracnoether",
        description="Solve power-law weighted variational problems and "
        "verify their conserved charges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario_required=True):
        if scenario_required:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--output", help="output directory override")
        p.add_argument("--steps", type=int, help="step-count override")

    p_solve = sub.add_parser("solve", help="integrate one scenario, write trajectory CSV")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_charge = sub.add_parser("charge", help="compute requested charges and drift")
    add_common(p_charge)
    p_charge.set_defaults(func=cmd_charge)

    p_sweep = sub.add_parser("sweep", help="run an alpha sweep, write long-format CSV")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the built-in acceptance corpus")
    p_verify.add_argument("--output", help="directory for verify_report.json")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ExpressionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
