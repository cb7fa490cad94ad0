"""Scenario files: the self-contained JSON inputs the CLI runs on.

A scenario bundles a Lagrangian, the kernel parameters (fixed alpha or an
alpha sweep), the interval and mode (initial values or two-point boundary
values), solver resolution, symmetry generators, and the charge kinds to
report.  Everything is validated before any computation or output happens.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .charges import SymmetryGenerator, gauge_rate_from_reduced_condition
from .euler_lagrange import BoundaryConditions, FractionalParams, VariationalProblem
from .expressions import Expr, ExpressionError, parse

VALID_CHARGES = ("noether", "energy", "momentum")


class ScenarioError(ValueError):
    """Invalid scenario content; reported before any output is written."""


@dataclass(frozen=True)
class AlphaSweep:
    start: float
    stop: float
    count: int

    def values(self) -> list[float]:
        return [float(x) for x in np.linspace(self.start, self.stop, self.count)]


@dataclass(frozen=True)
class GeneratorSpec:
    tau: str
    xi: tuple
    gauge: str  # "auto" or expression text


@dataclass(frozen=True)
class Scenario:
    name: str
    n: int
    lagrangian: str
    alpha: float | AlphaSweep
    observer_time: float
    interval: tuple
    mode: str  # "ivp" or "bvp"
    q0: tuple | None
    v0: tuple | None
    qa: tuple | None
    qb: tuple | None
    steps: int
    generators: tuple
    charges: tuple
    output_dir: str

    @property
    def is_sweep(self) -> bool:
        return isinstance(self.alpha, AlphaSweep)

    def alphas(self) -> list[float]:
        return self.alpha.values() if self.is_sweep else [self.alpha]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _is_integer(raw) -> bool:
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _number(raw, label: str) -> float:
    """A finite real number that is not a bool; the one numeric field check."""
    _require(
        isinstance(raw, (int, float))
        and not isinstance(raw, bool)
        and abs(raw) <= sys.float_info.max,
        f"{label} must be a finite number",
    )
    return float(raw)


def _vector(raw, n: int, label: str) -> tuple:
    _require(isinstance(raw, (list, tuple)), f"{label} must be a list of numbers")
    _require(len(raw) == n, f"{label} must have length n = {n}")
    return tuple(_number(x, f"{label}[{i}]") for i, x in enumerate(raw))


def _parse_expr(text, n: int, label: str) -> Expr:
    _require(isinstance(text, str), f"{label} must be an expression string")
    try:
        return parse(text, n)
    except ExpressionError as exc:
        raise ScenarioError(f"{label}: {exc}") from exc


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a raw scenario mapping; raises ScenarioError on any defect."""
    _require(isinstance(raw, dict), "scenario must be a JSON object")
    known = {
        "name", "n", "lagrangian", "alpha", "observer_time", "interval",
        "mode", "steps", "generators", "charges", "output_dir",
    }
    unknown = set(raw) - known
    _require(not unknown, f"unknown scenario fields: {sorted(unknown)}")

    name = raw.get("name")
    _require(isinstance(name, str) and name != "", "scenario needs a non-empty name")
    _require(
        all(c.isalnum() or c in "-_" for c in name),
        "name may contain only letters, digits, '-' and '_'",
    )

    n = raw.get("n")
    _require(_is_integer(n) and n >= 1, "n must be a positive integer")

    lagrangian = raw.get("lagrangian")
    _parse_expr(lagrangian, n, "lagrangian")

    alpha_raw = raw.get("alpha")
    if isinstance(alpha_raw, dict):
        missing = {"from", "to", "count"} - set(alpha_raw)
        _require(not missing, f"alpha sweep needs fields: {sorted(missing)}")
        count = alpha_raw["count"]
        _require(_is_integer(count) and count >= 2, "sweep count must be at least 2")
        start = _number(alpha_raw["from"], "alpha.from")
        stop = _number(alpha_raw["to"], "alpha.to")
        sweep = AlphaSweep(start=start, stop=stop, count=count)
        for value in sweep.values():
            _require(0.0 < value <= 1.0, "alpha must lie in (0,1]")
        alpha: float | AlphaSweep = sweep
    else:
        alpha = _number(alpha_raw, "alpha")
        _require(0.0 < alpha <= 1.0, "alpha must lie in (0,1]")

    interval_raw = raw.get("interval")
    _require(
        isinstance(interval_raw, (list, tuple)) and len(interval_raw) == 2,
        "interval must be [a, b]",
    )
    a, b = (_number(x, f"interval[{i}]") for i, x in enumerate(interval_raw))
    _require(a < b, "interval must satisfy a < b")

    observer_time = _number(raw.get("observer_time"), "observer_time")
    _require(observer_time > b, "observer time must exceed b")

    mode_raw = raw.get("mode")
    _require(isinstance(mode_raw, dict) and "type" in mode_raw, "mode must be an object with a type")
    mode = mode_raw["type"]
    q0 = v0 = qa = qb = None
    if mode == "ivp":
        q0 = _vector(mode_raw.get("q0"), n, "mode.q0")
        v0 = _vector(mode_raw.get("v0"), n, "mode.v0")
        extra = set(mode_raw) - {"type", "q0", "v0"}
    elif mode == "bvp":
        qa = _vector(mode_raw.get("qa"), n, "mode.qa")
        qb = _vector(mode_raw.get("qb"), n, "mode.qb")
        extra = set(mode_raw) - {"type", "qa", "qb"}
    else:
        raise ScenarioError("mode.type must be 'ivp' or 'bvp'")
    _require(not extra, f"unknown mode fields: {sorted(extra)}")

    steps = raw.get("steps", 1000)
    _require(
        _is_integer(steps) and steps >= 2 and steps % 2 == 0,
        "steps must be an even integer >= 2",
    )

    generators = []
    for i, gen_raw in enumerate(raw.get("generators", [])):
        _require(isinstance(gen_raw, dict), f"generators[{i}] must be an object")
        extra = set(gen_raw) - {"tau", "xi", "gauge"}
        _require(not extra, f"generators[{i}] has unknown fields: {sorted(extra)}")
        tau = gen_raw.get("tau", "0")
        xi_raw = gen_raw.get("xi")
        _require(
            isinstance(xi_raw, (list, tuple)) and len(xi_raw) == n,
            f"generators[{i}].xi must list {n} expressions",
        )
        gauge = gen_raw.get("gauge", "auto")
        _require(isinstance(gauge, str), f"generators[{i}].gauge must be a string")
        tau_expr = _parse_expr(tau, n, f"generators[{i}].tau")
        xi_exprs = [
            _parse_expr(text, n, f"generators[{i}].xi[{j}]")
            for j, text in enumerate(xi_raw)
        ]
        if gauge != "auto":
            _parse_expr(gauge, n, f"generators[{i}].gauge")
        try:
            SymmetryGenerator(tau_expr, xi_exprs)
        except ValueError as exc:
            raise ScenarioError(f"generators[{i}]: {exc}") from exc
        generators.append(GeneratorSpec(tau=tau, xi=tuple(xi_raw), gauge=gauge))

    charges_raw = raw.get("charges", [])
    _require(isinstance(charges_raw, (list, tuple)), "charges must be a list")
    for kind in charges_raw:
        _require(kind in VALID_CHARGES, f"unknown charge kind {kind!r}")
    _require(
        "noether" not in charges_raw or generators,
        "charge kind 'noether' needs at least one generator",
    )

    output_dir = raw.get("output_dir", ".")
    _require(isinstance(output_dir, str) and output_dir != "", "output_dir must be a path")

    return Scenario(
        name=name,
        n=n,
        lagrangian=lagrangian,
        alpha=alpha,
        observer_time=observer_time,
        interval=(a, b),
        mode=mode,
        q0=q0,
        v0=v0,
        qa=qa,
        qb=qb,
        steps=steps,
        generators=tuple(generators),
        charges=tuple(charges_raw),
        output_dir=output_dir,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw)


def build_problem(scenario: Scenario, alpha: float) -> VariationalProblem:
    boundary = None
    if scenario.mode == "bvp":
        boundary = BoundaryConditions(q_a=scenario.qa, q_b=scenario.qb)
    return VariationalProblem(
        n=scenario.n,
        lagrangian=parse(scenario.lagrangian, scenario.n),
        interval=scenario.interval,
        frac=FractionalParams(alpha=alpha, observer_time=scenario.observer_time),
        boundary=boundary,
    )


def build_generators(
    scenario: Scenario, prob: VariationalProblem
) -> list[SymmetryGenerator]:
    """Instantiate generator specs against a problem, deriving 'auto' gauges."""
    out = []
    for spec in scenario.generators:
        tau = parse(spec.tau, scenario.n)
        xi = [parse(text, scenario.n) for text in spec.xi]
        gen = SymmetryGenerator(tau, xi)
        if spec.gauge == "auto":
            gen = gen.with_gauge(gauge_rate_from_reduced_condition(prob, gen))
        else:
            gen = gen.with_gauge(parse(spec.gauge, scenario.n))
        out.append(gen)
    return out


def scenario_echo(scenario: Scenario) -> dict:
    """JSON-ready resolved form of a scenario for run manifests."""
    alpha: object
    if scenario.is_sweep:
        alpha = {
            "from": scenario.alpha.start,
            "to": scenario.alpha.stop,
            "count": scenario.alpha.count,
        }
    else:
        alpha = scenario.alpha
    mode: dict = {"type": scenario.mode}
    if scenario.mode == "ivp":
        mode["q0"] = list(scenario.q0)
        mode["v0"] = list(scenario.v0)
    else:
        mode["qa"] = list(scenario.qa)
        mode["qb"] = list(scenario.qb)
    return {
        "name": scenario.name,
        "n": scenario.n,
        "lagrangian": scenario.lagrangian,
        "alpha": alpha,
        "observer_time": scenario.observer_time,
        "interval": list(scenario.interval),
        "mode": mode,
        "steps": scenario.steps,
        "generators": [
            {"tau": g.tau, "xi": list(g.xi), "gauge": g.gauge}
            for g in scenario.generators
        ],
        "charges": list(scenario.charges),
        "output_dir": scenario.output_dir,
    }
