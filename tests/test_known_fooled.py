"""The known wrong answers, each a strict xfail that fails for its reason.

Each case runs a probe of ``ROADMAP.md`` through ``cli.main`` and asserts
the least that any mend of its item must give.  ``strict=True`` turns an
unexpected pass into a failure, so the change that mends a finding
removes its marker; ``raises=AssertionError`` makes a case that breaks for
another reason (a renamed function, a crash) fail outright.  Each message
carries the probe's numbers, read from the run (``--runxfail`` shows
them).
"""

import json

import pytest

from fracnoether import cli
from fracnoether.scenarios import load_scenario


def run(command, tmp_path, capsys, raw, *options):
    """(path, exit code, stdout, stderr) of ``command`` on the scenario
    ``raw``, writing into ``tmp_path / "out"``; argparse's exit, as on an
    option it does not know, is an exit code here too."""
    path = tmp_path / f"{raw['name']}.json"
    path.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "out")}))
    try:
        code = cli.main([command, "--scenario", str(path), *options])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return path, code, out, err


def summary(out: str) -> dict[str, str]:
    """Each line of a ``charge`` summary by its label."""
    return {line.split()[0]: line for line in out.splitlines()[1:] if line.strip()}


def drifts(out: str, labels) -> str:
    """The relative drift of each label of a ``charge`` summary as printed."""
    lines = summary(out)
    return ", ".join(f"{label} {lines[label].split()[2] if label in lines else 'missing'}"
                     for label in labels)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2: non-symmetries are reported conserved")
def test_charge_names_each_non_symmetry_of_the_oscillator_balanced(tmp_path, capsys):
    # none of the three generators is a weighted symmetry of the oscillator
    raw = {
        "name": "oscillator_probe",
        "n": 1,
        "lagrangian": "(v0^2 - q0^2)/2",
        "alpha": 0.5,
        "observer_time": 2.0,
        "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [1.0], "v0": [0.5]},
        "steps": 1000,
        "generators": [{"tau": "sin(theta)", "xi": ["cos(q0)"], "gauge": "auto"},
                       {"tau": "0", "xi": ["1"], "gauge": "auto"},
                       {"tau": "q0", "xi": ["0"], "gauge": "auto"}],
        "charges": ["noether"],
    }
    _, code, out, _ = run("charge", tmp_path, capsys, raw)
    labels = ["noether_g0", "noether_g1", "noether_g2"]
    lines = summary(out)
    assert all("balanced" in lines.get(label, "") for label in labels), (
        f"charge exits {code} and names no non-symmetry balanced; relative drifts: "
        f"{drifts(out, labels)}")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 16: the band below the stability bound runs silently")
def test_charge_in_the_band_below_the_bound_does_not_run_silently(tmp_path, capsys):
    # rho = h * (1 - alpha) / (t - b) = 0.01 * 0.5 / 0.004 = 1.25, under the
    # 2.785 bound; v(1) is 1.5% off the exact ((t - 1) / t)^(1/2)
    raw = {
        "name": "band_probe",
        "n": 1,
        "lagrangian": "v0^2/2",
        "alpha": 0.5,
        "observer_time": 1.004,
        "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [0.0], "v0": [1.0]},
        "steps": 100,
        "generators": [{"tau": "0", "xi": ["1"], "gauge": "auto"}],
        "charges": ["noether", "energy", "momentum"],
    }
    path, code, out, err = run("charge", tmp_path, capsys, raw)
    named = any("rho" in line or "ρ" in line for line in err.splitlines())
    assert code != 0 or named, (
        f"rho = {load_scenario(path).stiffness(0.5):.3g}: charge exits {code}, "
        f"stderr {err!r}; relative drifts: {drifts(out, ['noether_g0', 'energy', 'momentum_0'])}")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 16: a potential stiffer than the step runs silently")
def test_solve_of_a_potential_stiffer_than_the_step_does_not_run_silently(tmp_path, capsys):
    # omega = 1000 and h = 0.001, so omega*h = 1: RK4's amplification at z = i
    # has modulus 0.9939 and shrinks the amplitude about 450-fold over the
    # 1000 steps; rho = h * (1 - alpha) / (t - b) = 4e-4 sees only the drag.
    # A tight-tolerance DOP853 solve of the same weighted equation gives
    # q(1) = 0.4897
    raw = {
        "name": "stiff_probe",
        "n": 1,
        "lagrangian": "(v0^2 - 1e6*q0^2)/2",
        "alpha": 0.6,
        "observer_time": 2.0,
        "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [1.0], "v0": [0.0]},
        "steps": 1000,
    }
    _, code, _, err = run("solve", tmp_path, capsys, raw)
    named = any(word in err for word in ("rho", "ρ", "resolution"))
    csv = tmp_path / "out" / "stiff_probe_traj.csv"
    q1 = csv.read_text().splitlines()[-1].split(",")[1] if csv.exists() else "not written"
    assert code != 0 or named, (
        f"solve exits {code}, stderr {err!r}; q(1) = {q1}, where DOP853 gives 0.4897")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 7: fixed-correction charges of non-symmetries pass")
def test_halving_calls_the_fixed_correction_of_non_symmetries_not_conserved(tmp_path, capsys):
    # the free particle's weighted symmetries (4(theta - 2)/3, q0) and (0, 1),
    # then three non-symmetries, each with the paper's fixed correction
    # -c * (L*tau + v0*(xi - v0*tau)), c = (1 - alpha) / (t - theta), as its gauge
    generators = [("4*(theta - 2)/3", "q0"), ("0", "1"),
                  ("theta - 2", "q0"), ("2*theta", "q0"), ("1", "0")]
    raw = {
        "name": "fixed_correction_probe",
        "n": 1,
        "lagrangian": "v0^2/2",
        "alpha": 0.5,
        "observer_time": 2.0,
        "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [0.4], "v0": [0.5]},
        "steps": 1000,
        "generators": [
            {"tau": tau, "xi": [xi],
             "gauge": f"-(0.5/(2 - theta))*(v0^2/2*({tau}) + v0*(({xi}) - v0*({tau})))"}
            for tau, xi in generators],
        "charges": ["noether"],
    }
    labels = ["noether_g2", "noether_g3", "noether_g4"]
    _, plain_code, plain, _ = run("charge", tmp_path, capsys, raw)
    _, code, out, err = run("charge", tmp_path, capsys, raw, "--halving")
    lines = summary(out)
    assert all("not conserved" in lines.get(label, "") for label in labels), (
        f"charge --halving exits {code} ({err.strip().splitlines()[-1:]}); without it "
        f"charge exits {plain_code}, relative drifts: {drifts(plain, labels)}")
