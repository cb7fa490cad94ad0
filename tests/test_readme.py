"""The README's library quick start runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import fracnoether

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    # the child process imports the same fracnoether as this test
    src = str(Path(fracnoether.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    (first, momentum_drift), (noether_drift,) = [line.split() for line in proc.stdout.splitlines()]
    assert first == "1.0"
    # both routes conserve the momentum to rounding, as the comments say
    assert float(momentum_drift) < 1e-12 and float(noether_drift) < 1e-12
