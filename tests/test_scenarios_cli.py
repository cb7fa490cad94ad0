"""Scenario validation and the four CLI subcommands."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from fracnoether import cli, expressions, fanout, integrators, scenarios
from fracnoether.records import plain
from fracnoether.scenarios import (
    MAX_ALPHAS, MAX_STEPS, ScenarioError, load_scenario, scenario_from_dict,
)


def base_scenario(**overrides):
    raw = {
        "name": "free_particle",
        "n": 1,
        "lagrangian": "v0^2/2",
        "alpha": 0.5,
        "observer_time": 2.0,
        "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [0.0], "v0": [1.0]},
        "steps": 400,
        "generators": [{"tau": "0", "xi": ["1"], "gauge": "auto"}],
        "charges": ["noether", "momentum"],
        "output_dir": "out",
    }
    raw.update(overrides)
    return raw


def write_scenario(tmp_path, raw, filename="scenario.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(raw))
    return path


# --------------------------------------------------------------------------
# validation


def test_valid_scenario_loads(tmp_path):
    path = write_scenario(tmp_path, base_scenario())
    scenario = load_scenario(path)
    assert scenario.name == "free_particle"
    assert scenario.alphas() == [0.5]
    # JSON integers are numbers too
    mode = {"type": "ivp", "q0": [0], "v0": [1]}
    scenario = scenario_from_dict(base_scenario(alpha=1, interval=[0, 1], observer_time=2, mode=mode))
    assert (scenario.alpha, scenario.interval, scenario.mode["q0"]) == (1.0, (0.0, 1.0), (0.0,))


def test_alpha_out_of_range_message():
    with pytest.raises(ScenarioError, match=r"alpha must lie in \(0,1\]"):
        scenario_from_dict(base_scenario(alpha=1.5))


def test_observer_time_message():
    with pytest.raises(ScenarioError, match="observer time must exceed b"):
        scenario_from_dict(base_scenario(observer_time=0.5))


def test_sweep_count_must_be_at_least_two():
    with pytest.raises(ScenarioError, match="sweep count"):
        scenario_from_dict(
            base_scenario(alpha={"from": 0.5, "to": 1.0, "count": 1})
        )


def test_sweep_alphas_validated():
    with pytest.raises(ScenarioError, match=r"alpha must lie in \(0,1\]"):
        scenario_from_dict(
            base_scenario(alpha={"from": 0.0, "to": 1.0, "count": 3})
        )


def test_bad_lagrangian_reported():
    with pytest.raises(ScenarioError, match="lagrangian"):
        scenario_from_dict(base_scenario(lagrangian="v0 +"))


def test_velocity_dependent_generator_rejected():
    with pytest.raises(ScenarioError, match="velocit"):
        scenario_from_dict(
            base_scenario(generators=[{"tau": "v0", "xi": ["0"], "gauge": "auto"}])
        )


def test_unknown_charge_kind():
    with pytest.raises(ScenarioError, match="unknown charge kind"):
        scenario_from_dict(base_scenario(charges=["spin"]))


def test_odd_steps_rejected():
    with pytest.raises(ScenarioError, match="even"):
        scenario_from_dict(base_scenario(steps=401))


def test_unknown_fields_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario fields"):
        scenario_from_dict(base_scenario(extra_knob=1))


@pytest.mark.parametrize("generators", [5, None, "tau"])
def test_generators_must_be_a_list(tmp_path, capsys, generators):
    path = write_scenario(tmp_path, base_scenario(generators=generators, charges=["momentum"]))
    assert cli.main(["solve", "--scenario", str(path)]) == 2
    assert "generators must be a list" in capsys.readouterr().err


def test_unknown_alpha_sweep_fields_rejected(tmp_path, capsys):
    alpha = {"from": 0.4, "to": 0.8, "count": 3, "extra": 1}
    path = write_scenario(tmp_path, base_scenario(alpha=alpha))
    assert cli.main(["sweep", "--scenario", str(path)]) == 2
    assert "unknown alpha sweep fields: ['extra']" in capsys.readouterr().err


NOT_NUMBERS = {
    "interval_null": ("solve", {"interval": [None, 1.0]}),
    "interval_strings": ("solve", {"interval": ["0", "1"]}),
    "alpha_true": ("solve", {"alpha": True}),
    "sweep_from_string": ("sweep", {"alpha": {"from": "x", "to": 1, "count": 3}}),
    "q0_true": ("solve", {"mode": {"type": "ivp", "q0": [True], "v0": [1.0]}}),
    "v0_nan": ("solve", {"mode": {"type": "ivp", "q0": [0.0], "v0": [float("nan")]}}),
    "observer_time_infinite": ("solve", {"observer_time": float("inf")}),
    "n_true": ("solve", {"n": True}),
}


@pytest.mark.parametrize("command, overrides", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_numeric_fields_must_be_finite_numbers(tmp_path, capsys, command, overrides):
    out_dir = tmp_path / "out"
    path = write_scenario(tmp_path, base_scenario(output_dir=str(out_dir), **overrides))
    assert cli.main([command, "--scenario", str(path)]) == 2
    assert not out_dir.exists()
    assert "validation error" in capsys.readouterr().err


def test_a_mode_type_that_is_no_string_is_a_validation_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_scenario(tmp_path, base_scenario(mode={"type": ["ivp"]}, output_dir=str(out_dir)))
    assert cli.main(["solve", "--scenario", str(path)]) == 2
    assert not out_dir.exists()
    assert capsys.readouterr().err == "validation error: mode.type must be 'ivp' or 'bvp'\n"


# Scenario files by name: the shipped ones, a BVP, a sweep, and one that
# leaves tau, gauge, steps and output_dir to their defaults.
ECHOED = {
    "free_particle_bvp": lambda: shipped("free_particle_bvp.json"),
    "oscillator_sweep": lambda: shipped("oscillator_sweep.json"),
    "bvp": lambda: base_scenario(alpha=1, mode={"type": "bvp", "qa": [0], "qb": [2]}),
    "sweep": lambda: base_scenario(alpha={"from": 0.25, "to": 1, "count": 4}, interval=[0, 1]),
    "defaults": lambda: {key: value for key, value in base_scenario(
        generators=[{"xi": ["1"]}]).items() if key not in ("steps", "output_dir")},
}


@pytest.mark.parametrize("make", ECHOED.values(), ids=ECHOED.keys())
def test_a_scenario_reads_back_from_its_echo(make):
    scenario = scenario_from_dict(make())
    echo = plain(scenario)
    assert scenario_from_dict(echo) == scenario
    assert json.loads(json.dumps(echo)) == echo
    assert echo["generators"] == [{"tau": g.get("tau", "0"), "xi": g["xi"],
                                   "gauge": g.get("gauge", "auto")} for g in make()["generators"]]
    assert (echo["steps"], echo["output_dir"]) == (
        make().get("steps", 1000), make().get("output_dir", "."))


# --------------------------------------------------------------------------
# solve


def test_solve_writes_csv_and_manifest(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out")))
    code = cli.main(["solve", "--scenario", str(path)])
    assert code == 0
    csv_path = tmp_path / "out" / "free_particle_traj.csv"
    manifest_path = tmp_path / "out" / "free_particle_manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 402  # header + N + 1 rows
    assert lines[0] == "theta,q0,v0,Lambda,momentum_correction_0"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["shooting"] is None
    assert manifest["solver"]["steps"] == 400


def test_solve_bvp_manifest_reports_shooting(tmp_path):
    raw = base_scenario(
        mode={"type": "bvp", "qa": [0.0], "qb": [1.0]},
        output_dir=str(tmp_path / "out"),
    )
    path = write_scenario(tmp_path, raw)
    assert cli.main(["solve", "--scenario", str(path)]) == 0
    manifest = json.loads((tmp_path / "out" / "free_particle_manifest.json").read_text())
    assert manifest["shooting"]["converged"] is True
    assert manifest["shooting"]["iterations"] <= 1


def test_solve_is_deterministic(tmp_path):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out")))
    assert cli.main(["solve", "--scenario", str(path)]) == 0
    first = (tmp_path / "out" / "free_particle_traj.csv").read_bytes()
    first_manifest = json.loads(
        (tmp_path / "out" / "free_particle_manifest.json").read_text()
    )
    assert cli.main(["solve", "--scenario", str(path)]) == 0
    second = (tmp_path / "out" / "free_particle_traj.csv").read_bytes()
    second_manifest = json.loads(
        (tmp_path / "out" / "free_particle_manifest.json").read_text()
    )
    assert first == second
    first_manifest.pop("wall_time_seconds")
    second_manifest.pop("wall_time_seconds")
    assert first_manifest == second_manifest


def test_validation_failure_creates_no_output(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_scenario(
        tmp_path, base_scenario(alpha=1.5, output_dir=str(out_dir))
    )
    code = cli.main(["solve", "--scenario", str(path)])
    assert code == 2
    assert not out_dir.exists()
    assert "alpha must lie in (0,1]" in capsys.readouterr().err


def test_steps_override(tmp_path):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out")))
    assert cli.main(["solve", "--scenario", str(path), "--steps", "100"]) == 0
    lines = (tmp_path / "out" / "free_particle_traj.csv").read_text().strip().splitlines()
    assert len(lines) == 102


@pytest.mark.parametrize("steps", ["3", "0"])
def test_bad_steps_override_is_rejected(tmp_path, capsys, steps):
    out_dir = tmp_path / "out"
    path = write_scenario(tmp_path, base_scenario(output_dir=str(out_dir)))
    assert cli.main(["solve", "--scenario", str(path), "--steps", steps]) == 2
    assert not out_dir.exists()
    assert capsys.readouterr().err == "validation error: steps must be an even integer >= 2\n"


# --------------------------------------------------------------------------
# checks made before any solve


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if any command reaches a solve or the acceptance corpus."""
    from fracnoether import acceptance

    def solve(*args, **kwargs):
        raise AssertionError("solved before the inputs were checked")

    for module, attr in ((cli, "ivp_solve"), (cli, "bvp_shoot"), (acceptance, "run_all")):
        monkeypatch.setattr(module, attr, solve)


# floats near 1e14 are 1/64 apart, so 2000 steps of 1/2000 cannot be uniform
FAR_INTERVAL = [1e14, 100000000000001]
FAR_GRID = (
    "validation error: interval [100000000000000.0, 100000000000001.0] "
    "cannot be split into 2000 uniform float steps\n"
)

GRID_CASES = {
    "solve": (["solve"], {}),
    "charge": (["charge"], {}),
    "charge_bvp": (["charge"], {"mode": {"type": "bvp", "qa": [0.0], "qb": [1.0]}}),
    "sweep": (["sweep"], {"alpha": {"from": 0.5, "to": 1.0, "count": 2}}),
    "steps_override": (["charge", "--steps", "2000"], {"steps": 2}),
}


@pytest.mark.parametrize("argv, overrides", GRID_CASES.values(), ids=GRID_CASES.keys())
def test_a_grid_floats_cannot_space_uniformly_is_a_validation_error(
    tmp_path, capsys, no_solve, argv, overrides
):
    out_dir = tmp_path / "out"
    raw = {"steps": 2000, **overrides}
    path = write_scenario(tmp_path, base_scenario(
        interval=FAR_INTERVAL, observer_time=1e15, output_dir=str(out_dir), **raw))
    assert cli.main([argv[0], "--scenario", str(path), *argv[1:]]) == 2
    # names 2000 steps, so in the override case the file's 2 steps passed
    assert capsys.readouterr().err == FAR_GRID
    assert not out_dir.exists()


def test_a_grid_whose_step_overflows_is_a_validation_error(tmp_path, capsys, no_solve):
    # b - a overflows to inf, and linspace's nodes are nan, inf, inf, inf, b
    out_dir = tmp_path / "out"
    path = write_scenario(tmp_path, base_scenario(
        interval=[-1e308, 1e308], steps=4, observer_time=1.7e308, alpha=1.0,
        output_dir=str(out_dir)))
    assert cli.main(["solve", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "validation error: interval [-1e+308, 1e+308] cannot be split into 4 uniform float steps\n")
    assert not out_dir.exists()


@pytest.fixture
def bounded_linspace(monkeypatch):
    """Fail the test if a grid of more than ``MAX_STEPS`` steps, or a sweep of
    more than ``MAX_ALPHAS`` alphas, is asked for: nothing that large is
    ever allocated."""
    linspace = integrators.linspace

    def bounded(limit):
        def checked(start, stop, num):
            if num > limit:
                raise AssertionError(f"linspace asked for {num} values")
            return linspace(start, stop, num)
        return checked

    monkeypatch.setattr(integrators, "linspace", bounded(MAX_STEPS + 1))
    monkeypatch.setattr(scenarios, "linspace", bounded(MAX_ALPHAS))


HUGE = 10**12
HUGE_CASES = {
    "file_steps": (["solve"], {"steps": HUGE}, f"steps must be at most {MAX_STEPS}"),
    "steps_override": (["charge", "--steps", str(HUGE)], {},
                       f"steps must be at most {MAX_STEPS}"),
    "sweep_count": (["sweep"], {"alpha": {"from": 0.5, "to": 1.0, "count": HUGE}},
                    f"sweep count must be at most {MAX_ALPHAS}"),
}


@pytest.mark.parametrize("argv, overrides, message", HUGE_CASES.values(), ids=HUGE_CASES.keys())
def test_a_count_above_its_bound_is_refused_before_anything_is_built(
    tmp_path, capsys, no_solve, bounded_linspace, argv, overrides, message
):
    out_dir = tmp_path / "out"
    path = write_scenario(tmp_path, base_scenario(output_dir=str(out_dir), **overrides))
    assert cli.main([argv[0], "--scenario", str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not out_dir.exists()


def test_the_bounds_themselves_pass_their_checks(bounded_linspace):
    raw = base_scenario(alpha={"from": 0.5, "to": 1.0, "count": MAX_ALPHAS})
    assert len(scenario_from_dict(raw).alphas()) == MAX_ALPHAS
    # MAX_STEPS steps on [0, 1] pass the grid check itself
    scenarios.check_steps(MAX_STEPS, (0.0, 1.0))
    with pytest.raises(ScenarioError, match=f"^steps must be at most {MAX_STEPS}$"):
        scenarios.check_steps(MAX_STEPS + 2, (0.0, 1.0))


@pytest.mark.parametrize("interval, steps, message", [
    # the file and --steps cases above refuse [1e14, 1e14 + 1] at 2000 and
    # [-1e308, 1e308] at 4 with the same message
    ((1e14, 1e14 + 1), 10, "interval [100000000000000.0, 100000000000001.0] cannot be split "
                           "into 10 uniform float steps"),
    ((1e9, 1e9 + 1), 1000, "interval [1000000000.0, 1000000001.0] cannot be split "
                           "into 1000 uniform float steps"),
])
def test_a_count_floats_cannot_space_fails_the_step_check(interval, steps, message):
    with pytest.raises(ScenarioError) as refused:
        scenarios.check_steps(steps, interval)
    assert str(refused.value) == message


def test_a_fine_grid_on_the_unit_interval_is_solved(tmp_path, capsys):
    # 10000 steps of [0, 1] differ from h by about 1e-12 of it, linspace's rounding
    out_dir = tmp_path / "out"
    argv = ["charge", "--scenario", str(SCENARIOS / "free_particle_bvp.json"), "--steps",
            "10000", "--output", str(out_dir)]
    assert cli.main(argv) == 0
    assert len((out_dir / "free_particle_bvp_charge_energy.csv").read_text().splitlines()) == 10003


@pytest.mark.parametrize("command", ["solve", "charge", "sweep", "verify"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_an_unusable_output_path_is_a_validation_error(tmp_path, capsys, no_solve, command, below):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    output = blocker / "out" if below else blocker
    argv = [command]
    if command != "verify":
        alpha = {"from": 0.5, "to": 1.0, "count": 2} if command == "sweep" else 0.5
        argv += ["--scenario", str(write_scenario(tmp_path, base_scenario(alpha=alpha)))]
    assert cli.main([*argv, "--output", str(output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot use output directory {str(output)!r}: ")
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["solve", "charge", "sweep", "verify"])
def test_an_empty_output_path_is_a_validation_error(tmp_path, capsys, monkeypatch, no_solve,
                                                    command):
    # the rule of a scenario's output_dir holds for --output too
    argv = [command]
    if command != "verify":
        alpha = {"from": 0.5, "to": 1.0, "count": 2} if command == "sweep" else 0.5
        raw = base_scenario(alpha=alpha, output_dir=str(tmp_path / "out"))
        argv += ["--scenario", str(write_scenario(tmp_path, raw))]
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([*argv, "--output", ""]) == 2
    assert capsys.readouterr().err == "validation error: output_dir must be a path\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_an_empty_output_dir_in_a_scenario_is_a_validation_error(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario(output_dir=""))
    assert cli.main(["solve", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "validation error: output_dir must be a path\n"


# each command's file that a directory of its name keeps from being written
UNWRITABLE = {
    "solve": ("free_particle_traj.csv", {}),
    "charge": ("free_particle_charge_energy.csv", {"charges": ["energy"]}),
    "sweep": ("free_particle_sweep.csv", {"alpha": {"from": 0.5, "to": 1.0, "count": 2}}),
    "verify": ("verify_report.json", None),
}


@pytest.mark.parametrize("command", UNWRITABLE)
def test_an_output_file_that_cannot_be_written_is_a_validation_error(
    tmp_path, capsys, monkeypatch, command
):
    from fracnoether import acceptance

    name, overrides = UNWRITABLE[command]
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = [command, "--output", str(out)]
    if command == "verify":
        result = acceptance.CriterionResult("criterion", True, "detail")
        monkeypatch.setattr(acceptance, "run_all", lambda: [result])
    else:
        argv += ["--scenario", str(write_scenario(tmp_path, base_scenario(**overrides)))]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert repr(str(out / name)) in err


# --------------------------------------------------------------------------
# every series a command writes is read from its solve's loop


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def shipped(name, **overrides):
    return {**json.loads((SCENARIOS / name).read_text()), **overrides}


TWO_DOF_IVP = base_scenario(
    name="coupled",
    n=2,
    lagrangian="(v0^2 + v1^2)/2 - (q0 - q1)^2/2",
    mode={"type": "ivp", "q0": [0.4, -0.2], "v0": [0.5, 0.1]},
    generators=[{"tau": "1", "xi": ["0", "0"], "gauge": "auto"},
                {"tau": "0", "xi": ["1", "1"], "gauge": "auto"}],
    charges=["noether", "energy"],
)

# (command, scenario, the labels it writes); together every label kind
LOOP_CASES = {
    "charge_bvp": ("charge", shipped("free_particle_bvp.json"),
                   {"noether_g0", "noether_g1", "energy", "momentum_0"}),
    "charge_2dof_ivp": ("charge", TWO_DOF_IVP, {"noether_g0", "noether_g1", "energy"}),
    "sweep_ivp": ("sweep", shipped("oscillator_sweep.json"),
                  {"noether_g0", "energy", "classical_energy"}),
    "sweep_bvp": ("sweep", shipped("free_particle_bvp.json",
                                   alpha={"from": 0.5, "to": 1.0, "count": 3}),
                  {"noether_g0", "noether_g1", "energy", "classical_energy",
                   "momentum_0", "classical_momentum_0"}),
}


def written(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def written_labels(command: str, files: dict[str, bytes]) -> set[str]:
    if command == "charge":
        return {name.split("_charge_", 1)[1][:-len(".csv")] for name in files}
    (table,) = files.values()
    return {line.split(",")[1] for line in table.decode().splitlines()[1:]}


@pytest.mark.parametrize("command, raw, labels", LOOP_CASES.values(), ids=LOOP_CASES.keys())
def test_every_series_a_command_writes_is_read_from_the_loop(
    tmp_path, capsys, monkeypatch, command, raw, labels
):
    # a label the loop did not sample would fall back to evaluate_on_grid
    argv = [command, "--scenario", str(write_scenario(tmp_path, raw)), "--output"]
    assert cli.main([*argv, str(tmp_path / "plain")]) == 0
    plain = written(tmp_path / "plain")
    assert written_labels(command, plain) == labels

    def evaluate_on_grid(*args):
        raise AssertionError("a series was evaluated node by node")

    monkeypatch.setattr(integrators, "evaluate_on_grid", evaluate_on_grid)
    assert cli.main([*argv, str(tmp_path / "loop")]) == 0
    assert written(tmp_path / "loop") == plain


# --------------------------------------------------------------------------
# charge


def test_charge_writes_series_and_summary(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out")))
    code = cli.main(["charge", "--scenario", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "noether_g0" in out and "momentum_0" in out
    series = (tmp_path / "out" / "free_particle_charge_momentum_0.csv").read_text()
    assert series.startswith("theta,value\n")
    assert "# drift=" in series


def test_charge_partial_precondition_failure(tmp_path, capsys):
    raw = base_scenario(
        name="oscillator",
        lagrangian="(v0^2 - q0^2)/2",
        mode={"type": "ivp", "q0": [1.0], "v0": [0.0]},
        generators=[{"tau": "1", "xi": ["0"], "gauge": "auto"}],
        charges=["energy", "momentum"],
        output_dir=str(tmp_path / "out"),
    )
    path = write_scenario(tmp_path, raw)
    code = cli.main(["charge", "--scenario", str(path)])
    assert code == 1  # momentum fails for a q-dependent Lagrangian
    out = capsys.readouterr().out
    assert "failed" in out
    assert (tmp_path / "out" / "oscillator_charge_energy.csv").exists()
    assert not (tmp_path / "out" / "oscillator_charge_momentum_0.csv").exists()


def test_a_sampled_solve_integrates_no_channel_of_a_failing_charge():
    # L depends on q0 and q1, so both momentum charges fail their
    # precondition: charge and sweep integrate neither momentum channel,
    # and solve still writes every channel
    scenario = scenario_from_dict(base_scenario(
        name="cos_2dof", n=2, alpha=0.6,
        lagrangian="(1.2*v0^2 + 1.4*v1^2)/2 + 0.6*cos(q0) - 0.3*(q0 - q1)^2/2",
        mode={"type": "bvp", "qa": [0.0, 0.0], "qb": [0.3, 0.4]},
        generators=[{"tau": "1", "xi": ["0", "0"], "gauge": "auto"}],
        charges=["noether", "energy", "momentum"],
    ))
    sampled = cli._solve(scenario, 0.6, sampled=True)
    assert list(sampled.trajectory.channels) == ["Lambda", "energy_correction"]
    assert [c.label for c in sampled.charges if not isinstance(c.sample, integrators.Sample)] == [
        "momentum_0", "momentum_1"]
    full = cli._solve(scenario, 0.6).trajectory
    assert list(full.channels) == [
        "Lambda", "energy_correction", "momentum_correction_0", "momentum_correction_1"]

def test_two_generators_get_one_gauge_channel_each(tmp_path):
    # space and time translation of the free particle, both gauges derived
    raw = base_scenario(
        steps=200,
        generators=[
            {"tau": "0", "xi": ["1"], "gauge": "auto"},
            {"tau": "1", "xi": ["0"], "gauge": "auto"},
        ],
        charges=["noether"],
        output_dir=str(tmp_path / "out"),
    )
    path = write_scenario(tmp_path, raw)
    assert cli.main(["solve", "--scenario", str(path)]) == 0
    header = (tmp_path / "out" / "free_particle_traj.csv").read_text().splitlines()[0]
    assert header == "theta,q0,v0,Lambda_g0,Lambda_g1"
    assert cli.main(["charge", "--scenario", str(path)]) == 0
    for label in ("noether_g0", "noether_g1"):
        series = (tmp_path / "out" / f"free_particle_charge_{label}.csv").read_text()
        trailer = series.strip().splitlines()[-1]
        assert float(trailer.split("relative_drift=")[1]) < 1e-9


def test_a_bare_coordinate_gauge_writes_what_its_longer_spelling_writes(tmp_path):
    # the gauge channel q0 is the state itself at each step's first stage,
    # read before the step moves the state on: at alpha = 1, q0 = theta, and
    # RK4 integrates it exactly, Lambda(1) = 1/2
    tables = []
    for i, gauge in enumerate(["q0", "2*q0/2"]):
        raw = base_scenario(alpha=1.0, steps=4, charges=["noether"],
                            generators=[{"tau": "0", "xi": ["1"], "gauge": gauge}],
                            output_dir=str(tmp_path / f"out{i}"))
        assert cli.main(["solve", "--scenario", str(write_scenario(tmp_path, raw))]) == 0
        tables.append((tmp_path / f"out{i}" / "free_particle_traj.csv").read_bytes())
    assert tables[0] == tables[1]
    assert tables[0].decode().splitlines()[-1] == "1,1,1,0.5"


def log_shift_scenario(tmp_path, **overrides):
    # xi = ln(q0) leaves its domain once the particle crosses q0 = 0
    raw = base_scenario(
        name="log_shift",
        mode={"type": "ivp", "q0": [0.5], "v0": [-1.0]},
        generators=[{"tau": "0", "xi": ["ln(q0)"], "gauge": "0"}],
        output_dir=str(tmp_path / "out"),
        **overrides,
    )
    return write_scenario(tmp_path, raw)


def test_charge_outside_its_domain_is_reported_failed(tmp_path, capsys):
    path = log_shift_scenario(tmp_path)
    assert cli.main(["charge", "--scenario", str(path)]) == 1
    out = capsys.readouterr().out
    assert "noether_g0" in out and "failed" in out and "ln" in out
    assert (tmp_path / "out" / "log_shift_charge_momentum_0.csv").exists()
    assert not (tmp_path / "out" / "log_shift_charge_noether_g0.csv").exists()


def test_sweep_charge_outside_its_domain_is_an_error_row(tmp_path):
    path = log_shift_scenario(tmp_path, alpha={"from": 0.5, "to": 1.0, "count": 2})
    assert cli.main(["sweep", "--scenario", str(path)]) == 1
    rows = (tmp_path / "out" / "log_shift_sweep.csv").read_text().strip().splitlines()[1:]
    status = {tuple(r.split(",")[:2]): r.split(",")[-1] for r in rows}
    for alpha in ("0.5", "1"):
        assert status[(alpha, "noether_g0")].startswith("error: ln")
        assert status[(alpha, "momentum_0")] == "ok"


def test_sweep_action_outside_its_domain_is_an_error_row(tmp_path):
    # the attractive -ln(q0) potential pulls the particle through q0 = 0,
    # where the accelerations stay finite but L itself is undefined
    raw = base_scenario(
        name="log_action",
        lagrangian="v0^2/2 - 0.01*ln(q0)",
        alpha={"from": 0.5, "to": 1.0, "count": 2},
        mode={"type": "ivp", "q0": [0.5], "v0": [-2.0]},
        generators=[],
        charges=["energy"],
        output_dir=str(tmp_path / "out"),
    )
    path = write_scenario(tmp_path, raw)
    assert cli.main(["sweep", "--scenario", str(path)]) == 1
    rows = (tmp_path / "out" / "log_action_sweep.csv").read_text().strip().splitlines()[1:]
    assert rows == ["0.5,,,,,error: ln of non-positive value", "1,,,,,error: ln of non-positive value"]


def overflow_scenario(tmp_path, **overrides):
    # xi = exp(exp(exp(q0))) overflows once the free particle passes
    # q0 = 1.88, while the state and every channel stay finite
    return write_scenario(tmp_path, base_scenario(
        name="overflow",
        mode={"type": "ivp", "q0": [0.5], "v0": [2.0]},
        generators=[{"tau": "0", "xi": ["exp(exp(exp(q0)))"], "gauge": "0"}],
        output_dir=str(tmp_path / "out"),
        **overrides,
    ))


def test_a_charge_that_overflows_fails_its_own_label(tmp_path, capsys):
    assert cli.main(["charge", "--scenario", str(overflow_scenario(tmp_path))]) == 1
    out = capsys.readouterr().out
    assert "noether_g0" in out and "non-finite evaluation result on grid" in out
    assert (tmp_path / "out" / "overflow_charge_momentum_0.csv").exists()
    assert not (tmp_path / "out" / "overflow_charge_noether_g0.csv").exists()
    path = overflow_scenario(tmp_path, alpha={"from": 0.5, "to": 1.0, "count": 2})
    assert cli.main(["sweep", "--scenario", str(path)]) == 1
    rows = (tmp_path / "out" / "overflow_sweep.csv").read_text().strip().splitlines()[1:]
    status = {tuple(r.split(",")[:2]): r.split(",")[-1] for r in rows}
    for alpha in ("0.5", "1"):
        assert status[(alpha, "noether_g0")] == "error: non-finite evaluation result on grid"
        assert status[(alpha, "momentum_0")] == status[(alpha, "classical_momentum_0")] == "ok"


# Sweeps whose action or drift is not finite though every value on the
# trajectory is, and the rows each writes: L = v0^2/2 + 1e308 makes the
# action's Simpson sums overflow in math.fsum on [0, 1], and at alpha = 1 on
# [0, 5] with t = 1e308 makes 4*L infinite; xi = 1e308*q0 takes the Noether
# charge from -1.62e308 to 1.62e308, a difference beyond the floats.
NON_FINITE_SWEEPS = {
    "action_overflow": (
        dict(lagrangian="v0^2/2 + 1e308", mode={"type": "ivp", "q0": [0.3], "v0": [0.3]},
             steps=20, generators=[], charges=["energy"]),
        ["0.5,,,,,error: non-finite action", "1,,,,,error: non-finite action"],
    ),
    "action_infinite": (
        dict(lagrangian="v0^2/2 + 1e308", interval=[0.0, 5.0], observer_time=1e308,
             alpha={"from": 0.3, "to": 1.0, "count": 2}, steps=2,
             mode={"type": "bvp", "qa": [2.0], "qb": [1.0]},
             generators=[{"tau": "1", "xi": ["0.5"], "gauge": "auto"}]),
        [f"0.29999999999999999,{label},0,0,4.1982759579468798e+92,ok"
         for label in ("classical_momentum_0", "momentum_0", "noether_g0")]
        + ["1,,,,,error: non-finite action"],
    ),
    "drift_overflow": (
        dict(mode={"type": "ivp", "q0": [-0.9], "v0": [1.8]}, steps=20, charges=["noether"],
             generators=[{"tau": "0", "xi": ["1e308*q0"], "gauge": "0"}]),
        ["0.5,noether_g0,,,,error: non-finite drift", "1,noether_g0,,,,error: non-finite drift"],
    ),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", NON_FINITE_SWEEPS)
def test_a_non_finite_action_or_drift_is_an_error_row(tmp_path, capsys, monkeypatch, name, cpus):
    overrides, rows = NON_FINITE_SWEEPS[name]
    raw = base_scenario(name=name, alpha={"from": 0.5, "to": 1.0, "count": 2},
                        output_dir=str(tmp_path / "out"))
    path = write_scenario(tmp_path, {**raw, **overrides})
    monkeypatch.setattr(fanout, "usable_cpus", lambda: cpus)
    assert cli.main(["sweep", "--scenario", str(path)]) == 1
    table = tmp_path / "out" / f"{name}_sweep.csv"
    assert capsys.readouterr() == (f"wrote {table}\n", "")
    assert table.read_text().splitlines() == ["alpha,label,drift,relative_drift,action,status",
                                              *rows]


def test_a_charge_whose_drift_overflows_fails_its_label(tmp_path, capsys):
    overrides, _ = NON_FINITE_SWEEPS["drift_overflow"]
    raw = base_scenario(name="drift_overflow", alpha=1.0, output_dir=str(tmp_path / "out"))
    path = write_scenario(tmp_path, {**raw, **overrides})
    assert cli.main(["charge", "--scenario", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [f"{'noether_g0':<24}{'failed':>14}{'':>18}  non-finite drift"]
    assert err == ""
    assert list((tmp_path / "out").iterdir()) == []


def test_charge_requires_a_charge_kind(tmp_path, capsys):
    path = write_scenario(
        tmp_path, base_scenario(charges=[], generators=[], output_dir=str(tmp_path / "o"))
    )
    assert cli.main(["charge", "--scenario", str(path)]) == 2


def test_sweep_requires_a_charge_kind(tmp_path, capsys, no_solve):
    out_dir = tmp_path / "o"
    path = write_scenario(tmp_path, base_scenario(
        alpha={"from": 0.5, "to": 1.0, "count": 3}, charges=[], generators=[],
        output_dir=str(out_dir),
    ))
    assert cli.main(["sweep", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        "validation error: sweep needs at least one requested charge kind\n"
    )
    assert not out_dir.exists()


# --------------------------------------------------------------------------
# a step too coarse for the kernel


def near_observer(tmp_path, observer_time, **overrides):
    """The free particle at alpha = 0.5 on [0, 1] in 100 steps, q0 = 0 and
    v0 = 1, with every charge kind: rho = 0.005 / (t - 1)."""
    raw = base_scenario(observer_time=observer_time, steps=100,
                        charges=["noether", "energy", "momentum"],
                        output_dir=str(tmp_path / "out"), **overrides)
    return write_scenario(tmp_path, raw)


def test_rho_is_the_step_times_the_largest_damping_rate():
    scenario = scenario_from_dict(base_scenario(observer_time=1.001, steps=100))
    assert scenario.stiffness(0.5) == pytest.approx(5.0)
    assert scenario.stiffness(1.0) == 0.0
    assert scenario.stiffness(0.5, 178) > integrators.RK4_STABILITY_BOUND
    assert scenario.stiffness(0.5, 180) < integrators.RK4_STABILITY_BOUND


@pytest.mark.parametrize("command", ["solve", "charge"])
@pytest.mark.parametrize("observer_time, rho, steps", [(1.001, "5", 180), (1.00001, "500", 17954)])
def test_a_step_the_kernel_makes_unstable_is_a_validation_error(
        tmp_path, capsys, command, observer_time, rho, steps):
    # RK4 would return a v(1) 47% off at t = 1.001 and of the wrong sign at
    # t = 1.00001, with the momentum and Noether charges conserved to rounding
    path = near_observer(tmp_path, observer_time)
    assert cli.main([command, "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert (f"rho = h*(1 - alpha)/(t - b) = {rho} exceeds the RK4 stability bound 2.785; "
            f"{steps} steps bring it under") in err
    assert not list((tmp_path / "out").glob("*"))


def test_the_advised_step_count_passes_the_step_check_and_runs(tmp_path, capsys):
    path = near_observer(tmp_path, 1.00001)
    assert cli.main(["charge", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.endswith("; 17954 steps bring it under\n")
    scenarios.check_steps(17954, (0.0, 1.0))
    assert cli.main(["charge", "--scenario", str(path), "--steps", "17954"]) == 0
    assert sorted(csv.name for csv in (tmp_path / "out").glob("*.csv")) == [
        "free_particle_charge_energy.csv", "free_particle_charge_momentum_0.csv",
        "free_particle_charge_noether_g0.csv"]


def test_an_observer_time_no_float_step_resolves_is_refused(tmp_path, capsys):
    path = near_observer(tmp_path, 5e-324, interval=[-1.0, 0.0])
    assert cli.main(["charge", "--scenario", str(path)]) == 2
    assert "rho = h*(1 - alpha)/(t - b) = inf" in capsys.readouterr().err


def test_a_step_count_above_the_bound_is_never_advised(tmp_path, capsys):
    # 1795334 steps would bring rho under the bound, more than MAX_STEPS
    path = near_observer(tmp_path, 1.0000001)
    scenario = load_scenario(path)
    assert scenario.stiffness(0.5, MAX_STEPS) > integrators.RK4_STABILITY_BOUND
    assert cli.main(["charge", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert err.endswith("exceeds the RK4 stability bound 2.785; "
                        "no accepted step count brings it under\n")


# The free particle at alpha = 0.5 on [1e9, 1e9 + 1] in 10 steps: rho = 5,
# and the interval's floats space 32 and 64 steps uniformly but not 18 or 20
COARSE_FLOATS = {"interval": [1e9, 1e9 + 1], "observer_time": 1e9 + 1.01, "steps": 10}


@pytest.mark.parametrize("overrides", [
    {"observer_time": 1.001, "steps": 100}, {"observer_time": 1.00001, "steps": 100},
    {"observer_time": 1.0000001, "steps": 100}, COARSE_FLOATS,
], ids=["180", "17954", "none", "coarse_floats"])
def test_steps_accepts_every_count_an_advice_names(tmp_path, capsys, overrides):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out"), **overrides))
    assert cli.main(["solve", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "exceeds the RK4 stability bound" in err
    for steps in re.findall(r"(\d+) steps bring it under", err):
        assert cli.main(["solve", "--scenario", str(path), "--steps", steps]) == 0


def test_advice_the_interval_floats_refuse_says_so(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out"),
                                                  **COARSE_FLOATS))
    assert cli.main(["charge", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1 and "," not in err
    assert err.endswith("= 5 exceeds the RK4 stability bound 2.785; 18 steps would bring it "
                        "under but the interval's floats cannot space them uniformly\n")
    for steps, code in (("18", 2), ("20", 2), ("32", 0), ("64", 0)):
        assert cli.main(["charge", "--scenario", str(path), "--steps", steps]) == code
    capsys.readouterr()


@pytest.mark.parametrize("command", ["solve", "charge"])
@pytest.mark.parametrize("observer_time, steps", [(1.1, "100"), (1.001, "180")])
def test_a_step_under_the_bound_runs(tmp_path, capsys, command, observer_time, steps):
    path = near_observer(tmp_path, observer_time)
    assert load_scenario(path).stiffness(0.5, int(steps)) < integrators.RK4_STABILITY_BOUND
    assert cli.main([command, "--scenario", str(path), "--steps", steps]) == 0
    if (command, observer_time) == ("solve", 1.1):
        # v = ((t - theta)/t)^(1 - alpha): rho = 0.05 resolves it
        v1 = float((tmp_path / "out" / "free_particle_traj.csv").read_text().splitlines()[-1]
                   .split(",")[2])
        assert v1 == pytest.approx((0.1 / 1.1) ** 0.5, rel=1e-6)


def test_a_sweep_gives_an_alpha_the_kernel_makes_unstable_an_error_row(tmp_path):
    path = near_observer(tmp_path, 1.001, alpha={"from": 0.5, "to": 1.0, "count": 2})
    assert cli.main(["sweep", "--scenario", str(path)]) == 1
    rows = (tmp_path / "out" / "free_particle_sweep.csv").read_text().splitlines()[1:]
    failed = [row for row in rows if not row.endswith(",ok")]
    assert len(failed) == 1 and failed[0].startswith("0.5,,,,,error: ")
    assert failed[0].endswith("= 5 exceeds the RK4 stability bound 2.785; 180 steps bring it under")
    # alpha = 1 has no drag: rho = 0
    assert [row.split(",")[:2] for row in rows if row.endswith(",ok")] == [
        ["1", label] for label in
        ["classical_energy", "classical_momentum_0", "energy", "momentum_0", "noether_g0"]]


# The free particle's error, over h^4 (1 - alpha)/(t - b)^4, stays below
# 6.6e-3 on a grid of alpha in [0.05, 0.99], t - b in [0.01, 10] and rho
# in [0.001, 0.25]; the test allows 0.01, plus rounding as in
# integrators.convergence_order.
H4_MULTIPLE = 0.01


@st.composite
def resolved_free_particles(draw):
    """A free-particle scenario on [0, 1], q0 = 0 and v0 = 1, with alpha in
    [0.01, 1], t - b in [0.01, 10] and an even step count of at most 2000
    whose rho is at most 0.25."""
    alpha = draw(st.floats(0.01, 1.0))
    gap = 10.0 ** draw(st.floats(-2.0, 1.0))
    raw = base_scenario(alpha=alpha, observer_time=1.0 + gap, charges=[], generators=[])
    least = math.ceil(scenario_from_dict(raw).stiffness(alpha, 1) / 0.25 / 2)
    half = draw(st.integers(max(1, least), 1000))
    scenario = scenario_from_dict({**raw, "steps": 2 * half})
    assume(scenario.stiffness(alpha) <= 0.25)
    return scenario


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(resolved_free_particles())
def test_a_step_within_rho_025_keeps_the_free_particle_within_a_multiple_of_h4(scenario):
    # the closed form verify checks at t - b = 1, here wherever rho <= 0.25
    from fracnoether.acceptance import _free_particle_position

    alpha, t = scenario.alpha, scenario.observer_time
    traj = cli._solve(scenario, alpha).trajectory
    exact = [_free_particle_position(th, alpha, t) for th in traj.theta_grid]
    error = max(abs(q - x) for (q,), x in zip(traj.q, exact))
    h = 1.0 / scenario.steps
    rounding = integrators._ORDER_FLOOR_RTOL * (1.0 + max(map(abs, exact)))
    assert error <= H4_MULTIPLE * h ** 4 * (1.0 - alpha) / (t - 1.0) ** 4 + rounding


# --------------------------------------------------------------------------
# sweep


def sweep_scenario(tmp_path, **overrides):
    raw = base_scenario(
        alpha={"from": 0.25, "to": 1.0, "count": 4},
        charges=["momentum", "energy"],
        generators=[],
        output_dir=str(tmp_path / "out"),
        **overrides,
    )
    return write_scenario(tmp_path, raw)


def test_sweep_outputs_long_format(tmp_path):
    path = sweep_scenario(tmp_path)
    assert cli.main(["sweep", "--scenario", str(path)]) == 0
    lines = (tmp_path / "out" / "free_particle_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,label,drift,relative_drift,action,status"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 16  # 4 alphas x classical and fractional energy and momentum
    alphas = [float(r[0]) for r in rows]
    assert alphas == sorted(alphas)
    # classical momentum drift decays to zero at alpha = 1, fractional stays flat
    def drifts(label):
        return {float(r[0]): float(r[2]) for r in rows if r[1] == label}

    # v decays as ((t - theta)/(t - a))^(1 - alpha), so p = v and E = -v^2/2
    t, a, b = 2.0, 0.0, 1.0
    for label, power in [("classical_momentum_0", 1), ("classical_energy", 2)]:
        classical = drifts(label)
        for alpha, value in classical.items():
            predicted = abs(1.0 - ((t - b) / (t - a)) ** (power * (1.0 - alpha))) / power
            assert value == pytest.approx(predicted, abs=1e-6)
        assert classical[1.0] < 1e-12
    for label in ("momentum_0", "energy"):
        assert all(value < 1e-6 for value in drifts(label).values())


def test_sweep_rejects_fixed_alpha(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    assert cli.main(["sweep", "--scenario", str(path)]) == 2


def test_sweep_records_per_alpha_failures(tmp_path):
    # exp(exp(exp(q0))) overflows early for a steeply growing potential
    raw = base_scenario(
        name="blowup",
        lagrangian="v0^2/2 - exp(exp(exp(q0)))",
        alpha={"from": 0.5, "to": 1.0, "count": 2},
        mode={"type": "ivp", "q0": [2.0], "v0": [5.0]},
        charges=["momentum"],
        generators=[],
        output_dir=str(tmp_path / "out"),
    )
    path = write_scenario(tmp_path, raw)
    code = cli.main(["sweep", "--scenario", str(path)])
    assert code == 1
    content = (tmp_path / "out" / "blowup_sweep.csv").read_text()
    assert "error" in content


def test_solver_failure_exits_three(tmp_path, capsys):
    # an overflowing potential, and a 2-dof Lagrangian with a singular Hessian
    for n, lagrangian, q0, v0, reason in [
        (1, "v0^2/2 - exp(exp(exp(q0)))", [2.0], [5.0], "non-finite state"),
        (2, "(v0 + v1)^2/2", [0.0, 0.0], [1.0, 0.0], "singular velocity Hessian"),
    ]:
        raw = base_scenario(
            name="failing",
            n=n,
            lagrangian=lagrangian,
            mode={"type": "ivp", "q0": q0, "v0": v0},
            charges=[],
            generators=[],
            output_dir=str(tmp_path / "out"),
        )
        path = write_scenario(tmp_path, raw)
        code = cli.main(["solve", "--scenario", str(path)])
        assert code == 3
        assert f"solver error: {reason}" in capsys.readouterr().err


def test_math_errors_of_the_lagrangian_exit_three(tmp_path, capsys):
    # exp(1000) overflows where parse would fold it, and sin of
    # 1e300*q0*q0 leaves the domain of math.sin once the product is inf
    for lagrangian, q0 in [("v0^2/2 + exp(1000)*q0", 0.0), ("v0^2/2 + sin(1e300*q0*q0)", 1e10)]:
        raw = base_scenario(
            name="math_error",
            lagrangian=lagrangian,
            mode={"type": "ivp", "q0": [q0], "v0": [0.0]},
            generators=[{"tau": "1", "xi": ["0"], "gauge": "auto"}],
            charges=["noether", "energy"],
            output_dir=str(tmp_path / "out"),
        )
        path = write_scenario(tmp_path, raw)
        assert cli.main(["charge", "--scenario", str(path)]) == 3
        assert "solver error: non-finite state" in capsys.readouterr().err


def deep_scenario(tmp_path, lagrangian):
    return write_scenario(tmp_path, base_scenario(
        name="deep",
        lagrangian=lagrangian,
        mode={"type": "ivp", "q0": [0.3], "v0": [0.2]},
        steps=20,
        generators=[{"tau": "1", "xi": ["0"], "gauge": "auto"}],
        charges=["noether", "energy"],
        output_dir=str(tmp_path / "out"),
    ))


def test_too_deep_an_expression_is_a_validation_error(tmp_path, capsys):
    for lagrangian in ["v0^2/2 + " + "(" * 1500 + "q0" + ")" * 1500,
                       "v0^2/2" + " + q0" * 3000]:
        path = deep_scenario(tmp_path, lagrangian)
        assert cli.main(["charge", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith("validation error:")
        assert not (tmp_path / "out").exists()


def test_deepest_accepted_lagrangian_runs(tmp_path, capsys):
    # v0^2/2 + sin(...(q0)...) is two levels deeper than its sin chain
    depth = expressions.MAX_DEPTH - 2
    path = deep_scenario(tmp_path, "v0^2/2 + " + "sin(" * depth + "q0" + ")" * depth)
    assert cli.main(["charge", "--scenario", str(path)]) == 0
    lagrangian = "v0^2/2 + " + "sin(" * (depth + 1) + "q0" + ")" * (depth + 1)
    assert cli.main(["charge", "--scenario", str(deep_scenario(tmp_path, lagrangian))]) == 2


def test_zero_pivot_reports_an_infinite_condition_estimate(tmp_path, capsys):
    # the 2-dof Hessian [[1, 1], [1, 1]] leaves an exactly zero pivot, like
    # the single zero mass entry of v0 alone
    for n, lagrangian in [(2, "(v0 + v1)^2/2"), (1, "v0")]:
        raw = base_scenario(
            name="degenerate",
            n=n,
            lagrangian=lagrangian,
            mode={"type": "ivp", "q0": [0.0] * n, "v0": [1.0] + [0.0] * (n - 1)},
            charges=[],
            generators=[],
            output_dir=str(tmp_path / "out"),
        )
        path = write_scenario(tmp_path, raw)
        assert cli.main(["solve", "--scenario", str(path)]) == 3
        assert (
            "singular velocity Hessian at theta = 0.5 (condition estimate inf)"
            in capsys.readouterr().err
        )


def test_mass_vanishing_off_the_trajectory_does_not_stop_a_solve(tmp_path):
    # M = q0^2 is zero at q0 = 0, which the motion from q0 = 1 never reaches
    raw = base_scenario(
        name="weighted",
        lagrangian="q0^2*v0^2/2 - q0^2/2",
        mode={"type": "ivp", "q0": [1.0], "v0": [1.0]},
        charges=[],
        generators=[],
        output_dir=str(tmp_path / "out"),
    )
    assert cli.main(["solve", "--scenario", str(write_scenario(tmp_path, raw))]) == 0
    assert (tmp_path / "out" / "weighted_traj.csv").exists()


def test_double_pendulum_energy_is_conserved(tmp_path):
    # the mass [[2, cos(q0 - q1)], [cos(q0 - q1), 1]] is eliminated at run time
    raw = base_scenario(
        name="double_pendulum",
        n=2,
        lagrangian="v0^2 + v1^2/2 + v0*v1*cos(q0 - q1) + 2*cos(q0) + cos(q1)",
        mode={"type": "ivp", "q0": [0.3, -0.2], "v0": [0.1, 0.4]},
        charges=["energy"],
        generators=[],
        output_dir=str(tmp_path / "out"),
    )
    assert cli.main(["charge", "--scenario", str(write_scenario(tmp_path, raw))]) == 0
    series = (tmp_path / "out" / "double_pendulum_charge_energy.csv").read_text()
    relative_drift = float(series.rsplit("relative_drift=", 1)[1])
    assert relative_drift < 1e-10


# --------------------------------------------------------------------------
# verify


def test_verify_runs_acceptance_corpus(tmp_path, capsys):
    code = cli.main(["verify", "--output", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "10/10 criteria passed" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["total"] == 10 and report["passed"] == 10


# --------------------------------------------------------------------------
# entry point


def run_fresh(argv, **env):
    """(exit code, stdout, stderr) of ``python -m fracnoether.cli *argv`` in a
    new process, with ``env`` added to its environment."""
    # the child process imports the same fracnoether as this test
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "fracnoether.cli", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point(tmp_path):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out")))
    assert run_fresh(["solve", "--scenario", str(path)])[0] == 0
    assert (tmp_path / "out" / "free_particle_traj.csv").exists()


def test_unreadable_scenario_is_validation_error(tmp_path, capsys):
    assert cli.main(["solve", "--scenario", str(tmp_path / "missing.json")]) == 2


# --------------------------------------------------------------------------
# the argument parser


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process, an
    exit of argparse's included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


COMMON_OPTIONS = """
options:
  -h, --help           show this help message and exit
  --scenario SCENARIO  scenario JSON file
  --output OUTPUT      output directory override
  --steps STEPS        step-count override
"""

# stdout of ``--help`` at COLUMNS=80, by the command it follows
HELP = {
    "": """usage: fracnoether [-h] {solve,charge,sweep,verify} ...

Solve power-law weighted variational problems and verify their conserved
charges.

positional arguments:
  {solve,charge,sweep,verify}
    solve               integrate one scenario, write trajectory CSV
    charge              compute requested charges and drift
    sweep               run an alpha sweep, write long-format CSV
    verify              run the built-in acceptance corpus

options:
  -h, --help            show this help message and exit
""",
    "solve": """usage: fracnoether solve [-h] --scenario SCENARIO [--output OUTPUT]
                         [--steps STEPS]
""" + COMMON_OPTIONS,
    "charge": """usage: fracnoether charge [-h] --scenario SCENARIO [--output OUTPUT]
                          [--steps STEPS]
""" + COMMON_OPTIONS,
    "sweep": """usage: fracnoether sweep [-h] --scenario SCENARIO [--output OUTPUT]
                         [--steps STEPS]
""" + COMMON_OPTIONS,
    "verify": """usage: fracnoether verify [-h] [--output OUTPUT]

options:
  -h, --help       show this help message and exit
  --output OUTPUT  directory for verify_report.json
""",
}


@pytest.mark.parametrize("command", HELP, ids=[name or "top" for name in HELP])
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    assert run_main(argv, capsys) == (0, HELP[command], "")


USAGE = "usage: fracnoether [-h] {solve,charge,sweep,verify} ...\n"
CHARGE_USAGE = """usage: fracnoether charge [-h] --scenario SCENARIO [--output OUTPUT]
                          [--steps STEPS]
"""

# argv -> stderr at COLUMNS=80 of a call argparse rejects
ARGUMENT_ERRORS = {
    "no_command": ([], USAGE + "fracnoether: error: the following arguments are required: "
                   "command\n"),
    "bogus": (["bogus"], USAGE + "fracnoether: error: argument command: invalid choice: "
              "'bogus' (choose from 'solve', 'charge', 'sweep', 'verify')\n"),
    "no_scenario": (["charge"], CHARGE_USAGE + "fracnoether charge: error: the following "
                    "arguments are required: --scenario\n"),
    "steps_not_int": (["charge", "--scenario", "s.json", "--steps", "x"], CHARGE_USAGE
                      + "fracnoether charge: error: argument --steps: invalid int value: 'x'\n"),
}


@pytest.mark.parametrize("argv, err", ARGUMENT_ERRORS.values(), ids=ARGUMENT_ERRORS.keys())
def test_argument_errors_exit_two(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_main(argv, capsys) == (2, "", err)


def test_a_long_option_may_be_abbreviated(tmp_path):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out")))
    assert cli.main(["charge", "--scen", str(path), "--steps", "20"]) == 0
    assert (tmp_path / "out" / "free_particle_charge_momentum_0.csv").exists()


def test_calls_in_one_process_print_what_fresh_processes_print(tmp_path, capsys, monkeypatch):
    # argparse reads the terminal width when it formats a text, so a parser
    # built by an earlier call still follows COLUMNS
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out")))
    calls = [(80, ["charge"]), (80, ["charge", "--scenario", str(path), "--steps", "20"]),
             (60, ["--help"]), (100, ["--help"])]
    seen = []
    for columns, argv in calls:
        monkeypatch.setenv("COLUMNS", str(columns))
        seen.append(run_main(argv, capsys))
        assert seen[-1] == run_fresh(argv, COLUMNS=str(columns))
    assert [code for code, _, _ in seen] == [2, 0, 0, 0]
    assert seen[2][1] != seen[3][1]


def test_main_builds_the_parser_tree_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    missing = str(tmp_path / "missing.json")
    for _ in range(3):
        assert cli.main(["charge", "--scenario", missing]) == 2
    assert len(built) == 5  # the top parser and one per command


def test_clear_caches_empties_every_cache_the_process_keeps(tmp_path, capsys):
    path = write_scenario(tmp_path, shipped("free_particle_bvp.json", steps=200))
    assert cli.main(["charge", "--scenario", str(path), "--output", str(tmp_path / "out")]) == 0
    caches = [integrators._built_grid, cli.build_parser]
    assert expressions._SHAPES and all(cache.cache_info().currsize for cache in caches)
    grid = integrators.uniform_grid(0.0, 1.0, 200)  # the grid every table was written on
    assert grid.texts == ["%.17g" % x for x in grid] and integrators._SHOOTS
    cli.clear_caches()
    assert expressions._SHAPES == {}
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    assert integrators._SHOOTS == {}
    # the texts went with the grid: the grid built next has none
    assert integrators.uniform_grid(0.0, 1.0, 200).texts is None


def test_main_runs_the_command_function_it_finds_when_called(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing.json")
    assert cli.main(["charge", "--scenario", missing]) == 2
    seen = []
    monkeypatch.setattr(cli, "cmd_charge", lambda args: seen.append(args.scenario) or 0)
    assert cli.main(["charge", "--scenario", missing]) == 0
    assert seen == [missing]
