"""The outputs of a fixed plan of commands, byte for byte.

``tools/golden.py`` runs the plan and ``tests/golden_outputs.json`` holds
its digests: a change that moves one output by one bit fails here, and
the tool's ``--write`` regenerates the file when a change means to.
"""

import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def test_the_plan_writes_the_recorded_bytes(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text())
    current = golden.fingerprint()
    if current != recorded["fingerprint"]:
        pytest.fail(f"floating-point fingerprint {current} is not the recorded "
                    f"{recorded['fingerprint']}: regenerate the digests with "
                    f"tools/golden.py --write on a platform of that fingerprint")
    outputs = golden.digests(tmp_path)["outputs"]
    assert golden.differences(recorded["outputs"], outputs) == []
    # a sweep's bytes do not depend on how many workers share its alphas,
    # its error rows included
    for sweep in ["oscillator", *golden.FAILING_SWEEPS]:
        assert outputs[f"sweep_{sweep}_1cpu"] == outputs[f"sweep_{sweep}_2cpus"]
