"""The CLI's contract on drawn scenarios: every input ends in a documented
exit code, no output holds a non-finite number, and what a command writes
does not depend on the caches earlier commands of the process left.

Scenario dicts are drawn from a small grammar (one or two degrees of
freedom, at most 40 steps, initial and boundary values, fixed alphas and
sweeps, values such as 0, -0 and 1e300, expressions with ``ln``, ``sqrt``,
``exp``, ``^``, ``/`` and constants up to 1e308, auto and explicit gauges,
any subset of the charge kinds), some of them one defect away from valid,
and run in-process through ``cli.main``.
"""

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from fracnoether import cli, fanout

VALUES = [0.0, -0.0, 0.3, -0.5, 1.0, 2.0, 1e300]
CONSTANTS = ["0", "1", "2", "0.5", "3.7", "1e300", "1e308", "pi"]
FUNCTIONS = ["ln", "sqrt", "exp", "sin", "cos"]
EXPONENTS = ["2", "3", "0.5", "4"]
KINETIC = {1: ["v0^2/2", "(1 + q0^2)*v0^2/2", "exp(q0)*v0^2/2", "v0^2/2 + v0*theta"],
           2: ["(v0^2 + v1^2)/2", "v0^2 + v1^2/2 + v0*v1*cos(q0 - q1)", "(v0 + v1)^2/2"]}
INTERVALS = [(0.0, 1.0), (-0.0, 1.0), (0.0, 5.0), (-1.0, 0.5), (1e300, 2e300)]
FIELDS = ["name", "n", "lagrangian", "alpha", "observer_time", "interval", "mode", "steps",
          "generators", "charges", "output_dir"]
# every subset of the charge kinds, the empty one last
CHARGES = [[kind for k, kind in enumerate(["noether", "energy", "momentum"]) if mask >> k & 1]
           for mask in range(7, -1, -1)]
WRONG = [None, "1", 3, 2.5, -0.0, 1e300, [], {}, True, "ln(q0", [1, 2, 3]]


def expressions(names):
    atoms = st.sampled_from(names + CONSTANTS)
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, st.sampled_from(EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda e: f"-{e}"),
    ), max_leaves=4)


@st.composite
def scenarios(draw):
    """A command and its scenario dict."""
    n = draw(st.sampled_from([1, 2]))
    positions = ["theta", *(f"q{j}" for j in range(n))]
    state = [*positions, *(f"v{j}" for j in range(n))]
    kinetic = draw(st.sampled_from(KINETIC[n]))
    lagrangian = draw(st.one_of(
        st.just(kinetic),
        expressions(positions).map(lambda e: f"{kinetic} + {e}"),
        expressions(positions).map(lambda e: f"{kinetic} - {e}"),
        expressions(state).map(lambda e: f"{kinetic} - {e}"),
        expressions(state),
    ))
    a, b = draw(st.sampled_from(INTERVALS))
    values = st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)
    if draw(st.booleans()):
        mode = {"type": "ivp", "q0": draw(values), "v0": draw(values)}
    else:
        mode = {"type": "bvp", "qa": draw(values), "qb": draw(values)}
    sweep = draw(st.booleans())
    if sweep:
        alpha = {"from": draw(st.sampled_from([0.3, 0.5, 0.9])),
                 "to": draw(st.sampled_from([0.5, 1.0])), "count": draw(st.sampled_from([2, 3]))}
        command = "sweep"
    else:
        alpha = draw(st.sampled_from([0.3, 0.6, 1.0]))
        command = draw(st.sampled_from(["solve", "charge"]))
    charges = draw(st.sampled_from(CHARGES))
    generators = draw(st.lists(st.fixed_dictionaries({
        "tau": expressions(positions),
        "xi": st.lists(expressions(positions), min_size=n, max_size=n),
        "gauge": st.one_of(st.just("auto"), st.just("0"), expressions(state)),
    }), min_size="noether" in charges, max_size=2))
    raw = {
        "name": "drawn", "n": n, "lagrangian": lagrangian, "alpha": alpha,
        "observer_time": draw(st.sampled_from([2.0 * abs(b) + 1.0, 1e308, b + 0.5])),
        "interval": [a, b], "mode": mode, "steps": draw(st.integers(1, 20)) * 2,
        "generators": generators, "charges": charges, "output_dir": "out",
    }
    # one defect in some dicts: a missing field, a wrong type, an odd step
    # count, or the command of the other kind of alpha
    defect = draw(st.sampled_from(["none"] * 6 + ["missing", "type", "odd", "command"]))
    if defect == "missing":
        del raw[draw(st.sampled_from(FIELDS))]
    elif defect == "type":
        raw[draw(st.sampled_from(FIELDS))] = draw(st.sampled_from(WRONG))
    elif defect == "odd":
        raw["steps"] = draw(st.sampled_from([1, 3, 39]))
    elif defect == "command":
        command = "solve" if sweep else "sweep"
    return command, raw


def run(command, raw, directory: Path, cpus: int = 1):
    """Exit code, stderr and the files written of ``command`` on ``raw`` in
    ``directory``, with ``fanout.usable_cpus`` reading ``cpus``."""
    directory.mkdir()
    path = directory / "scenario.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    usable_cpus = fanout.usable_cpus
    fanout.usable_cpus = lambda: cpus
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--scenario", str(path), "--output",
                             str(directory / "out")])
    finally:
        fanout.usable_cpus = usable_cpus
    files = {}
    if (directory / "out").exists():
        files = {p.name: p.read_text() for p in sorted((directory / "out").iterdir())}
    return code, err.getvalue(), files


def numbers(name: str, text: str) -> list[float]:
    """Every number a written file holds; a sweep row's label and status
    are text."""
    if name.endswith(".json"):
        def walk(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                return [x for item in value for x in walk(item)]
            return [value] if type(value) in (int, float) else []

        return walk(json.loads(text))
    lines = text.splitlines()
    if name.endswith("_sweep.csv"):
        rows = [[cells[0], *cells[2:5]] for cells in (line.split(",") for line in lines[1:])]
    else:
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        rows += [[field.split("=")[1] for field in line[2:].split()]
                 for line in lines if line.startswith("#")]
    return [float(cell) for row in rows for cell in row if cell]


# Three scenarios that once broke the contract: an action whose Simpson
# sums overflow (a traceback), an action that is infinite at alpha = 1 and
# a drift that overflows between finite charge values (an `inf` written
# with exit code 0).
FOUND = {
    "action_overflow": ("sweep", {
        "name": "drawn", "n": 1, "lagrangian": "v0^2/2 + 1e308",
        "alpha": {"from": 0.5, "to": 1.0, "count": 2}, "observer_time": 2.0,
        "interval": [0.0, 1.0], "mode": {"type": "ivp", "q0": [0.3], "v0": [0.3]},
        "steps": 20, "generators": [], "charges": ["energy"], "output_dir": "out"}),
    "action_infinite": ("sweep", {
        "name": "drawn", "n": 1, "lagrangian": "v0^2/2 + 1e308",
        "alpha": {"from": 0.3, "to": 1.0, "count": 2}, "observer_time": 1e308,
        "interval": [0.0, 5.0], "mode": {"type": "bvp", "qa": [2.0], "qb": [1.0]},
        "steps": 2, "generators": [{"tau": "1", "xi": ["0.5"], "gauge": "auto"}],
        "charges": ["noether", "momentum"], "output_dir": "out"}),
    "drift_overflow": ("charge", {
        "name": "drawn", "n": 1, "lagrangian": "v0^2/2", "alpha": 1.0,
        "observer_time": 2.0, "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [-0.9], "v0": [1.8]}, "steps": 20,
        "generators": [{"tau": "0", "xi": ["1e308*q0"], "gauge": "0"}],
        "charges": ["noether"], "output_dir": "out"}),
}


@settings(max_examples=70, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
@example(FOUND["action_overflow"])
@example(FOUND["action_infinite"])
@example(FOUND["drift_overflow"])
@example(("sweep", {**FOUND["drift_overflow"][1], "alpha": {"from": 0.5, "to": 1.0, "count": 2}}))
def test_every_drawn_scenario_ends_in_a_documented_exit_code(case):
    command, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err, files = run(command, raw, Path(tmp) / "one")
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            prefix = "validation error: " if code == 2 else "solver error: "
            assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err
        if code == 2:
            assert files == {}
        for name, text in files.items():
            assert all(map(math.isfinite, numbers(name, text))), (name, text)
        if command == "sweep" and code in (0, 1):
            assert run(command, raw, Path(tmp) / "two", cpus=2) == (code, err, files)


# A number written in an expression: not a digit of a name such as q0.
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:e\d+)?")
NUMBERS = [c for c in CONSTANTS if c != "pi"] + EXPONENTS


@st.composite
def siblings(draw):
    """A command, its scenario dict, and the sibling dict whose every
    number in an expression is redrawn: mostly trees of the same shape with
    other constants."""
    command, raw = draw(scenarios())

    def redrawn(value):
        if isinstance(value, str):
            return NUMBER.sub(lambda _: draw(st.sampled_from(NUMBERS)), value)
        if isinstance(value, list):
            return [redrawn(item) for item in value]
        if isinstance(value, dict):
            return {key: redrawn(item) for key, item in value.items()}
        return value

    return command, raw, redrawn(raw)


def timeless(result):
    """``run``'s result without the wall time a manifest records."""
    code, err, files = result
    return code, err, {name: re.sub(r'\n *"wall_time_seconds": [^\n]*', "", text)
                       for name, text in files.items()}


# A boundary problem whose shoot converges, and its sibling of the same
# shape: the warm charge is answered from the shoot the warm solve left.
PENDULUM = {
    "name": "drawn", "n": 1, "lagrangian": "1.3*v0^2/2 + 0.7*cos(q0)", "alpha": 0.6,
    "observer_time": 2.0, "interval": [0.0, 1.0],
    "mode": {"type": "bvp", "qa": [0.0], "qb": [2.1]}, "steps": 40,
    "generators": [{"tau": "1", "xi": ["0"], "gauge": "auto"}],
    "charges": ["noether", "energy", "momentum"], "output_dir": "out"}


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(siblings())
@example(("charge", PENDULUM, {**PENDULUM, "lagrangian": "1.2*v0^2/2 + 0.5*cos(q0)"}))
def test_a_run_after_a_sibling_writes_what_a_run_from_empty_caches_writes(case):
    # the warm run finds the loops, grids, solvers and shoots its sibling
    # left, the cold one starts as a fresh process does (cli.clear_caches);
    # a boundary problem runs solve, then charge, whose shoot the warm
    # process remembers from the solve
    command, raw, sibling = case
    mode = raw.get("mode")
    chain = [command]
    if command in ("solve", "charge") and isinstance(mode, dict) and mode.get("type") == "bvp":
        chain = ["solve", "charge"]
    with tempfile.TemporaryDirectory() as tmp:
        run(command, sibling, Path(tmp) / "sibling")
        warm = [run(step, raw, Path(tmp) / step) for step in chain]
        cold = []
        for step in chain:
            shutil.rmtree(Path(tmp) / step)
            cli.clear_caches()
            cold.append(run(step, raw, Path(tmp) / step))
    assert list(map(timeless, warm)) == list(map(timeless, cold))
