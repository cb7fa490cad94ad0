"""Scenario validation and the four CLI subcommands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracnoether import cli
from fracnoether.scenarios import ScenarioError, load_scenario, scenario_from_dict


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
    assert (scenario.alpha, scenario.interval, scenario.q0) == (1.0, (0.0, 1.0), (0.0,))


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


def test_charge_requires_a_charge_kind(tmp_path, capsys):
    path = write_scenario(
        tmp_path, base_scenario(charges=[], generators=[], output_dir=str(tmp_path / "o"))
    )
    assert cli.main(["charge", "--scenario", str(path)]) == 2


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


def test_module_entry_point(tmp_path):
    path = write_scenario(tmp_path, base_scenario(output_dir=str(tmp_path / "out")))
    # the child process imports the same fracnoether as this test
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "fracnoether.cli", "solve", "--scenario", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "free_particle_traj.csv").exists()


def test_unreadable_scenario_is_validation_error(tmp_path, capsys):
    assert cli.main(["solve", "--scenario", str(tmp_path / "missing.json")]) == 2
