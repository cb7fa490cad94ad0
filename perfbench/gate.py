"""Output checks and the output digest of one pass, run outside the timed region.

A command passes when it exited with 0 and its outputs hold up:

* every noether, energy and momentum charge CSV has a relative drift of at
  most ``DRIFT_TOL``, read from its trailer line;
* every ``solve`` manifest reports a converged shooting with
  max |boundary_miss| at most ``MISS_TOL``;
* every sweep row has status ``ok``, and every fractional (non-classical)
  row has a relative drift of at most ``DRIFT_TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DRIFT_TOL = 1e-6
MISS_TOL = 1e-9


def charge_labels(scenario: dict, classical: bool) -> list[str]:
    """Labels the CLI reports for a scenario, in its order."""
    kinds = scenario["charges"]
    labels = []
    if "noether" in kinds:
        labels += [f"noether_g{i}" for i in range(len(scenario["generators"]))]
    if "energy" in kinds:
        labels += ["energy"] + (["classical_energy"] if classical else [])
    if "momentum" in kinds:
        dofs = range(scenario["n"])
        labels += [f"momentum_{j}" for j in dofs]
        labels += [f"classical_momentum_{j}" for j in dofs] if classical else []
    return labels


def _check_charge(scenario: dict, out: Path) -> str | None:
    for label in charge_labels(scenario, classical=False):
        path = out / f"{scenario['name']}_charge_{label}.csv"
        if not path.is_file():
            return f"missing {path.name}"
        trailer = path.read_text().rstrip("\n").rsplit("\n", 1)[-1]
        fields = dict(item.split("=", 1) for item in trailer.lstrip("# ").split())
        drift = float(fields["relative_drift"])
        if not drift <= DRIFT_TOL:
            return f"{label}: relative drift {drift:.3e} > {DRIFT_TOL:g}"
    return None


def _check_solve(scenario: dict, out: Path) -> str | None:
    name = scenario["name"]
    if not (out / f"{name}_traj.csv").is_file():
        return f"missing {name}_traj.csv"
    shooting = json.loads((out / f"{name}_manifest.json").read_text())["shooting"]
    if scenario["mode"]["type"] != "bvp":
        return None
    miss = max(abs(x) for x in shooting["boundary_miss"])
    if not (shooting["converged"] and miss <= MISS_TOL):
        return f"shooting converged={shooting['converged']}, max |miss| = {miss:.3e}"
    return None


def _check_sweep(scenario: dict, out: Path) -> str | None:
    path = out / f"{scenario['name']}_sweep.csv"
    if not path.is_file():
        return f"missing {path.name}"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = charge_labels(scenario, classical=True)
    if len(rows) != scenario["alpha"]["count"] * len(labels):
        return f"{len(rows)} sweep rows, expected {scenario['alpha']['count']} x {len(labels)}"
    for row in rows:
        if row["status"] != "ok":
            return f"alpha {row['alpha']} {row['label']}: {row['status']}"
        if not row["label"].startswith("classical_"):
            drift = float(row["relative_drift"])
            if not drift <= DRIFT_TOL:
                return f"alpha {row['alpha']} {row['label']}: relative drift {drift:.3e}"
    return None


CHECKS = {"charge": _check_charge, "solve": _check_solve, "sweep": _check_sweep}


def check_command(argv: list[str], scenario: dict, out: Path) -> str | None:
    """Reason the outputs of one command fail the gate, or None."""
    try:
        return CHECKS[argv[0]](scenario, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def outputs_digest(out: Path) -> str:
    """SHA-256 of every output file, manifests without their wall time."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_time_seconds", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(data + b"\0")
    return digest.hexdigest()
