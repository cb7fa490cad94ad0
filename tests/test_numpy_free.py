"""The four commands, ``verify`` included, run without numpy or
dataclasses, and the pure-Python replacements of the numpy formulas they
used give the same bits; numpy is the oracle here.

``uniform_grid`` and a scenario's sweep alphas are ``integrators.linspace``,
``numpy.linspace``'s formula, and the drift statistics find the largest
deviation from the first sample without forming one difference per sample.
"""

import json
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracnoether
from fracnoether.charges import ChargeSeries, _drift_stats
from fracnoether import integrators
from fracnoether.integrators import Trajectory, linspace, uniform_grid
from fracnoether.records import replace
from fracnoether.scenarios import MAX_STEPS, scenario_from_dict

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(fracnoether.__file__).parents[1])

FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODERATE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def bits(values) -> bytes:
    return array("d", values).tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(start=st.one_of(MODERATE, FINITE), stop=st.one_of(MODERATE, FINITE),
       num=st.integers(0, 2001))
def test_linspace_is_numpys_bit_for_bit(start, stop, num):
    with np.errstate(all="ignore"):
        assert bits(linspace(start, stop, num)) == np.linspace(start, stop, num).tobytes()


@pytest.mark.parametrize("start, stop, num", [
    (0.0, 5e-324, 3), (-5e-324, 5e-324, 7),  # the step underflows to zero
    (-1e308, 1e308, 5),  # the interval overflows
    (1.0, 0.25, 4), (-0.0, 1.0, 3), (0.0, -0.0, 2),  # descending, and signed zeros
])
def test_linspace_edge_cases_are_numpys(start, stop, num):
    with np.errstate(all="ignore"):
        assert bits(linspace(start, stop, num)) == np.linspace(start, stop, num).tobytes()


def numpy_grid_check(grid: np.ndarray) -> bool:
    """The uniformity rule of ``uniform_grid``, in numpy."""
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    return not (h <= 0 or np.any(np.abs(np.diff(grid) - h) > 1e-6 * abs(h)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.one_of(MODERATE, st.floats(-1e300, 1e300)), width=st.floats(1e-12, 1e300),
       steps=st.integers(2, 2000))
def test_uniform_grid_is_numpys_grid_or_rejected_as_numpy_would(a, width, steps):
    b = a + width
    with np.errstate(all="ignore"):
        expected = np.linspace(a, b, steps + 1)
        uniform = a < b and numpy_grid_check(expected)
    if uniform:
        assert bits(uniform_grid(a, b, steps)) == expected.tobytes()
    else:
        with pytest.raises(ValueError):
            uniform_grid(a, b, steps)


def test_uniform_grid_is_built_once_and_keeps_signed_zeros():
    grid = uniform_grid(-1.0, 0.0, 10)
    assert uniform_grid(-1.0, 0.0, 10) is grid and isinstance(grid, tuple)
    assert math.copysign(1.0, uniform_grid(-1.0, -0.0, 10)[-1]) == -1.0
    with pytest.raises(ValueError, match="uniform"):
        uniform_grid(1e14, 1e14 + 1, 2000)


@pytest.mark.parametrize("a, b, steps", [
    (0.0, 1.0, 10_000), (0.0, 1.0, 20_000), (0.0, 1.0, 100_000), (0.0, 1.0, MAX_STEPS),
    (-1.0, 0.0, 100_000), (0.0, 3.0, MAX_STEPS), (5.0, 6.0, MAX_STEPS), (1e3, 1e3 + 1, 10_000),
])
def test_linspaces_own_rounding_is_accepted(a, b, steps):
    # each node rounded by under one float spacing of the largest |node|,
    # a spacing error far below a millionth of the step
    expected = np.linspace(a, b, steps + 1)
    assert numpy_grid_check(expected)
    assert bits(uniform_grid(a, b, steps)) == expected.tobytes()


@pytest.mark.parametrize("a, b, steps, message", [
    (1e14, 1e14 + 1, 2000, "must be strictly increasing and uniform"),  # floats 1/64 apart
    (1e14, 1e14 + 1, 10, "must be strictly increasing and uniform"),
    (1e9, 1e9 + 1, 1000, "must be strictly increasing and uniform"),  # 1.2e-7 apart, h 1e-3
    (-1e308, 1e308, 4, "must have a finite step and finite nodes"),
])
def test_a_grid_whose_floats_are_too_coarse_for_its_step_is_refused(a, b, steps, message):
    if math.isfinite(b - a):  # the numpy rule reads finite grids only
        assert not numpy_grid_check(np.linspace(a, b, steps + 1))
    with pytest.raises(ValueError, match=f"^theta grid {message}$"):
        uniform_grid(a, b, steps)


def test_a_subnormal_step_is_judged_by_its_own_size():
    # no absolute term swamps a millionth of a subnormal step: spacings of
    # 1e-310 and 4e-310 around h = 2.5e-310 are not uniform, while
    # linspace's own grid of that size is
    with pytest.raises(ValueError, match="^theta grid must be strictly increasing and uniform$"):
        integrators._check_grid((0.0, 1e-310, 5e-310))
    grid = uniform_grid(0.0, 1e-310, 2)
    assert bits(grid) == np.linspace(0.0, 1e-310, 3).tobytes()
    assert numpy_grid_check(np.array(grid))
    assert not numpy_grid_check(np.array([0.0, 1e-310, 5e-310]))


@pytest.mark.parametrize("steps", [1, 0, -2])
def test_fewer_than_two_steps_are_refused_by_the_grid(steps):
    with pytest.raises(ValueError, match="^steps must be at least 2$"):
        uniform_grid(0.0, 1.0, steps)


def test_a_grid_of_a_non_finite_step_or_node_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        uniform_grid(-1e308, 1e308, 4)  # the step overflows: nan, inf, inf, inf, 1e308
    with pytest.raises(ValueError, match="finite"):
        integrators._check_grid((0.0, math.nan, 1.0))  # a finite step, a nan node
    with pytest.raises(ValueError, match="finite"):
        Trajectory(theta_grid=(0.0, 0.5, math.inf), q=[(0.0,)] * 3, v=[(0.0,)] * 3, channels={})


def test_uniform_grid_builds_the_least_recently_used_of_33_grids_anew():
    grids = [uniform_grid(0.0, 1.0, steps) for steps in range(2, 66, 2)]  # 32 grids
    assert uniform_grid(0.0, 1.0, 2) is grids[0]  # used again: now the most recent
    uniform_grid(0.0, 1.0, 66)  # the 33rd: the least recently used, 4 steps, goes
    assert uniform_grid(0.0, 1.0, 2) is grids[0]
    again = uniform_grid(0.0, 1.0, 4)
    assert again is not grids[1] and again == grids[1]


SWEEP = scenario_from_dict({
    "name": "sweep", "n": 1, "lagrangian": "v0^2/2", "alpha": {"from": 0.5, "to": 1.0, "count": 2},
    "observer_time": 2.0, "interval": [0.0, 1.0], "mode": {"type": "ivp", "q0": [0.0], "v0": [1.0]},
})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.floats(0.0, 1.0), stop=st.floats(0.0, 1.0), count=st.integers(2, 64))
def test_alpha_sweeps_are_numpys_ascending_or_descending(start, stop, count):
    values = replace(SWEEP, alpha={"from": start, "to": stop, "count": count}).alphas()
    assert all(type(x) is float for x in values)
    assert bits(values) == np.linspace(start, stop, count).tobytes()


def numpy_drift(values: np.ndarray) -> tuple[float, float]:
    """The drift statistics as numpy computed them."""
    d = float(np.max(np.abs(values - values[0])))
    return d, d / (1.0 + float(np.max(np.abs(values))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(FINITE, MODERATE, st.sampled_from([0.0, -0.0, 5e-324])),
                       min_size=1, max_size=50))
def test_drift_statistics_are_numpys_bit_for_bit(values):
    with np.errstate(all="ignore"):
        expected = numpy_drift(np.array(values))
    assert repr(_drift_stats(array("d", values))) == repr(expected)
    series = ChargeSeries.from_values(range(len(values)), values)
    assert repr((series.drift, series.relative_drift)) == repr(expected)


def run(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True)


def test_the_cli_import_leaves_out_numpy():
    code = "import sys, fracnoether.cli; print('numpy' in sys.modules)"
    assert run(code).stdout == "False\n"


def test_the_cli_import_leaves_out_dataclasses_and_inspect():
    code = "import sys, fracnoether.cli; print({'dataclasses', 'inspect'} & set(sys.modules))"
    assert run(code).stdout == "set()\n"


# Runs the CLI commands given as JSON, numpy and dataclasses blocked or not,
# and prints, after what the commands print, their exit codes and which of
# the two were imported.
COMMANDS = """
import json, sys
BLOCKED = ("numpy", "dataclasses")
if sys.argv[1] == "block":
    sys.modules.update(dict.fromkeys(BLOCKED))
from fracnoether import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, [name for name in BLOCKED if sys.modules.get(name) is not None]]))
"""


def outputs(directory: Path) -> dict[str, object]:
    """Every output file's bytes; a manifest without its wall time."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["wall_time_seconds"]
            out[path.name] = manifest
        elif path.is_file():
            out[path.name] = path.read_bytes()
    return out


def test_solve_charge_and_sweep_run_with_numpy_blocked(tmp_path):
    # and verify, whose report holds no timing, so its bytes compare too
    argv = [[command, "--scenario", str(path), "--output", "out"]
            for path in sorted((ROOT / "scenarios").glob("*.json"))
            for command in (["sweep"] if "sweep" in path.name else ["solve", "charge"])]
    argv.append(["verify", "--output", "out"])
    results = {}
    for mode in ("block", "allow"):
        (tmp_path / mode).mkdir()
        stdout = run(COMMANDS, mode, json.dumps(argv), cwd=tmp_path / mode).stdout
        codes, imported = json.loads(stdout.splitlines()[-1])
        # unblocked, the commands import neither of them either
        assert codes == [0] * len(argv) and imported == []
        results[mode] = outputs(tmp_path / mode / "out")
    assert "verify_report.json" in results["block"]
    assert len(results["block"]) >= 6 and results["block"] == results["allow"]


def test_the_import_cost_tool_lists_what_the_import_adds():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "import_cost.py"), "--runs", "1",
                           "--src", SRC], capture_output=True, text=True, check=True)
    *timings, count, others = proc.stdout.splitlines()
    assert len(timings) == 4 and timings[2].split()[-1] == "s" and timings[3].endswith(" MB")
    assert count.startswith("modules added: ") and "fracnoether" not in others
    assert "json" in others.split() and not {"dataclasses", "inspect", "numpy"} & set(others.split())
