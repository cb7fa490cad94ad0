"""Byte digests of the outputs of a fixed plan of CLI commands.

Run from the root of a checkout:

    python3 tools/golden.py          # compare with tests/golden_outputs.json
    python3 tools/golden.py --write  # regenerate that file

Runs each case of ``PLAN`` in-process through ``cli.main``, in a
temporary directory of its own that holds its scenario as
``scenario.json`` and takes its output in ``out``, so no path in an
output depends on where the plan ran.  For each case it records the exit
code and the SHA-256 of stdout, of stderr and of every output file; a
manifest is hashed with its ``wall_time_seconds`` left out.  A sweep case
runs with ``fanout.usable_cpus`` reading its worker count.

The file also records a fingerprint of the platform's floating point: the
Python version and a digest of ``math.sin``, ``cos``, ``exp``, ``log``,
``pow`` and ``gamma`` over fixed inputs.  Digests recorded under another
fingerprint say nothing about this one, so a comparison under another
fingerprint fails and names both.  Without ``--write`` the script prints which outputs
differ from the file and exits 1 if any does; with it, it rewrites the
file and prints which outputs changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fracnoether import cli, fanout  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_outputs.json"


def _shipped(name: str) -> dict:
    return json.loads((ROOT / "scenarios" / name).read_text())


def _scenario(name, n, lagrangian, mode, generators, charges, steps=400, alpha=0.6) -> dict:
    return {"name": name, "n": n, "lagrangian": lagrangian, "alpha": alpha,
            "observer_time": 2.0, "interval": [0.0, 1.0], "mode": mode, "steps": steps,
            "generators": generators, "charges": charges, "output_dir": "out"}


def _ivp(q0, v0) -> dict:
    return {"type": "ivp", "q0": q0, "v0": v0}


# One IVP of each corpus family of perfbench/workloads.py, fixed
# coefficients, generators taken in turn as that file takes them:
# family -> (n, lagrangian, mode, (tau, xi), charges).
CORPUS = {
    "free": (1, "1.3*v0^2/2", _ivp([0.4], [0.5]), ("1", ["0"]),
             ["noether", "energy", "momentum"]),
    "oscillator": (1, "(1.2*v0^2 - 0.7*q0^2)/2", _ivp([0.3], [0.6]), ("0", ["1"]),
                   ["noether", "energy"]),
    "pendulum": (1, "1.4*v0^2/2 + 0.8*cos(q0)", _ivp([0.5], [0.4]), ("theta/2", ["q0/2"]),
                 ["noether", "energy"]),
    "quartic": (1, "1.2*v0^2/2 - 0.6*q0^4/4 + 0.3*q0", _ivp([0.2], [0.7]),
                ("sin(theta)", ["cos(q0)"]), ["noether", "energy"]),
    "driven": (1, "1.5*v0^2/2 - 0.8*q0^2/2 + 0.4*theta*q0/2", _ivp([0.6], [0.3]), ("1", ["0"]),
               ["noether"]),
    "coupled": (2, "(1.2*v0^2 + 1.5*v1^2)/2 - 0.6*(q0 - q1)^2/2",
                _ivp([0.4, -0.2], [0.5, 0.1]), ("0", ["1", "1"]), ["noether", "energy"]),
}

# The failing sweeps of tests/test_scenarios_cli.py: a potential that
# overflows, a generator and a Lagrangian that leave the domain of ln, an
# action whose sums overflow, an action that is infinite at alpha = 1, and a
# drift that overflows between finite charge values.
FAILING_SWEEPS = {
    "blowup": _scenario("blowup", 1, "v0^2/2 - exp(exp(exp(q0)))", _ivp([2.0], [5.0]), [],
                        ["momentum"], alpha={"from": 0.5, "to": 1.0, "count": 2}),
    "log_shift": _scenario("log_shift", 1, "v0^2/2", _ivp([0.5], [-1.0]),
                           [{"tau": "0", "xi": ["ln(q0)"], "gauge": "0"}],
                           ["noether", "momentum"], alpha={"from": 0.5, "to": 1.0, "count": 2}),
    "log_action": _scenario("log_action", 1, "v0^2/2 - 0.01*ln(q0)", _ivp([0.5], [-2.0]), [],
                            ["energy"], alpha={"from": 0.5, "to": 1.0, "count": 2}),
    "action_overflow": _scenario("action_overflow", 1, "v0^2/2 + 1e308", _ivp([0.3], [0.3]), [],
                                 ["energy"], steps=20, alpha={"from": 0.5, "to": 1.0, "count": 2}),
    "action_infinite": {**_scenario(
        "action_infinite", 1, "v0^2/2 + 1e308", {"type": "bvp", "qa": [2.0], "qb": [1.0]},
        [{"tau": "1", "xi": ["0.5"], "gauge": "auto"}], ["noether", "momentum"], steps=2,
        alpha={"from": 0.3, "to": 1.0, "count": 2}), "interval": [0.0, 5.0],
        "observer_time": 1e308},
    "drift_overflow": _scenario("drift_overflow", 1, "v0^2/2", _ivp([-0.9], [1.8]),
                                [{"tau": "0", "xi": ["1e308*q0"], "gauge": "0"}], ["noether"],
                                steps=20, alpha={"from": 0.5, "to": 1.0, "count": 2}),
}

# case -> (command, scenario or None for verify, usable CPUs)
PLAN = {
    "solve_free_particle_bvp": ("solve", _shipped("free_particle_bvp.json"), 1),
    "charge_free_particle_bvp": ("charge", _shipped("free_particle_bvp.json"), 1),
    "sweep_oscillator_1cpu": ("sweep", _shipped("oscillator_sweep.json"), 1),
    "sweep_oscillator_2cpus": ("sweep", _shipped("oscillator_sweep.json"), 2),
    "charge_cos_2dof_bvp": ("charge", _scenario(
        "cos_2dof", 2, "(1.2*v0^2 + 1.4*v1^2)/2 + 0.6*cos(q0) - 0.3*(q0 - q1)^2/2",
        {"type": "bvp", "qa": [0.0, 0.0], "qb": [0.3, 0.4]},
        [{"tau": "1", "xi": ["0", "0"], "gauge": "auto"}], ["noether", "energy", "momentum"]), 1),
    "charge_driven_bvp": ("charge", _scenario(
        "driven", 1, "1.3*v0^2/2 - 0.7*q0^2/2 + 0.4*theta*q0",
        {"type": "bvp", "qa": [0.0], "qb": [0.5]},
        [{"tau": "1", "xi": ["0"], "gauge": "auto"}], ["noether", "energy", "momentum"]), 1),
    "charge_double_pendulum_ivp": ("charge", _scenario(
        "double_pendulum", 2, "v0^2 + v1^2/2 + v0*v1*cos(q0 - q1) + 2*cos(q0) + cos(q1)",
        {"type": "ivp", "q0": [0.3, -0.2], "v0": [0.1, 0.4]},
        [{"tau": "1", "xi": ["0", "0"], "gauge": "auto"}], ["noether", "energy"],
        steps=200), 1),
    **{f"charge_{family}_ivp": ("charge", _scenario(
        family, n, lagrangian, mode, [{"tau": tau, "xi": xi, "gauge": "auto"}], charges,
        steps=200), 1)
       for family, (n, lagrangian, mode, (tau, xi), charges) in CORPUS.items()},
    # a particle at rest whose first velocity is -0.0: the noether_g1
    # column is one -0 among 200 zeros, and 0.0 == -0.0
    "charge_free_particle_at_rest": ("charge", _scenario(
        "at_rest", 1, "1.3*v0^2/2", _ivp([0.0], [-0.0]),
        [{"tau": "1", "xi": ["0"], "gauge": "auto"}, {"tau": "0", "xi": ["1"], "gauge": "auto"}],
        ["noether"], steps=200), 1),
    "charge_drift_overflow": ("charge", {**FAILING_SWEEPS["drift_overflow"], "alpha": 1.0}, 1),
    # a gauge channel that is the coordinate itself, read at each step's
    # first stage before the step moves the state on
    "solve_bare_gauge": ("solve", _scenario(
        "bare_gauge", 1, "v0^2/2", _ivp([0.0], [1.0]), [{"tau": "0", "xi": ["1"], "gauge": "q0"}],
        ["noether"], steps=4, alpha=1.0), 1),
    **{f"sweep_{name}_{cpus}cpu{'s' * (cpus > 1)}": ("sweep", raw, cpus)
       for name, raw in FAILING_SWEEPS.items() for cpus in (1, 2)},
    "verify": ("verify", None, 1),
}


def fingerprint() -> dict:
    """The Python version and a digest of the libm functions and
    ``math.gamma`` over fixed inputs."""
    xs = [k / 7.0 - 3.0 for k in range(43)]
    values = [f(x) for f in (math.sin, math.cos, math.exp) for x in xs]
    values += [math.log(k / 7.0) for k in range(1, 43)]
    values += [math.pow(k / 7.0, y) for k in range(1, 43) for y in (-1.5, 0.4, 2.5)]
    values += [math.gamma(k / 7.0) for k in range(1, 43)]
    digest = hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()
    return {"python": platform.python_version(), "libm": digest}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    if path.name.endswith("_manifest.json"):
        manifest = json.loads(path.read_text())
        del manifest["wall_time_seconds"]
        return _sha(json.dumps(manifest, indent=2, sort_keys=True).encode())
    return _sha(path.read_bytes())


def run_case(case: str, directory: Path) -> dict[str, object]:
    """Run ``case`` of :data:`PLAN` in ``directory``, which must be empty;
    return its exit code and digests."""
    command, raw, cpus = PLAN[case]
    argv = [command, "--output", "out"]
    if raw is not None:
        (directory / "scenario.json").write_text(json.dumps(raw))
        argv += ["--scenario", "scenario.json"]
    out, err = io.StringIO(), io.StringIO()
    cwd, usable_cpus = os.getcwd(), fanout.usable_cpus
    os.chdir(directory)
    fanout.usable_cpus = lambda: cpus
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        fanout.usable_cpus = usable_cpus
        os.chdir(cwd)
    record: dict[str, object] = {"exit": code, "stdout": _sha(out.getvalue().encode()),
                                 "stderr": _sha(err.getvalue().encode())}
    for path in sorted((directory / "out").iterdir()):
        record[path.name] = _file_digest(path)
    return record


def digests(workdir: Path) -> dict:
    """The fingerprint and every case's record, each case run in a fresh
    directory under ``workdir``."""
    outputs = {}
    for case in PLAN:
        directory = workdir / case
        directory.mkdir()
        outputs[case] = run_case(case, directory)
    return {"fingerprint": fingerprint(), "outputs": outputs}


def differences(old: dict, new: dict) -> list[str]:
    """``case/output`` for each digest, or exit code, that is not in both or differs."""
    changed = []
    for case in sorted(set(old) | set(new)):
        a, b = old.get(case, {}), new.get(case, {})
        changed += [f"{case}/{key}" for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        new = digests(Path(tmp))
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"outputs": {}}
    if not args.write and old.get("fingerprint") != new["fingerprint"]:
        print(f"fingerprint {new['fingerprint']} differs from the recorded "
              f"{old.get('fingerprint')}: the digests cannot be compared")
        return 1
    changed = differences(old["outputs"], new["outputs"])
    for name in changed:
        print(f"changed: {name}")
    if args.write:
        GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(changed)} outputs changed")
        return 0
    print(f"{len(changed)} outputs differ")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
