"""What ``import fracnoether.cli`` costs a fresh process.

Run from the root of a checkout:

    python3 tools/import_cost.py --runs 9
    python3 tools/import_cost.py --runs 9 --src ../other-checkout/src

Starts ``--runs`` fresh ``python -c "import fracnoether.cli"`` processes
one after another (at most 15), with ``--src`` (this checkout's ``src`` by
default) first on ``PYTHONPATH`` and the environment otherwise inherited,
so ``PYTHONDONTWRITEBYTECODE`` and ``PYTHONPYCACHEPREFIX`` apply as set.
It prints the median wall time of such a process, timed with
``perf_counter`` around it, next to the median of as many ``python -c
pass`` processes; the median ``ru_maxrss`` of the importing process; and
the modules the import adds to those the interpreter loaded at start-up,
naming those outside fracnoether.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Runs in the child: the modules loaded at start-up, the import, then what it added.
PROBE = """
import sys
before = set(sys.modules)
import fracnoether.cli
added = sorted(set(sys.modules) - before)
import json, resource
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, added]))
"""


def timed(code: str, env: dict) -> tuple[float, str]:
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return perf_counter() - start, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="fresh processes of each kind (1-15)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding fracnoether")
    args = parser.parse_args(argv)
    if not 1 <= args.runs <= 15:
        parser.error("--runs must lie in 1..15")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [args.src, os.environ.get("PYTHONPATH")]))}
    bare, walls, rss, added = [], [], [], None
    for _ in range(args.runs):
        bare.append(timed("pass", env)[0])
        wall, out = timed(PROBE, env)
        maxrss, added = json.loads(out)
        walls.append(wall)
        rss.append(maxrss)
    ours = [m for m in added if m == "fracnoether" or m.startswith("fracnoether.")]
    others = [m for m in added if m not in ours]
    print(f"medians of {args.runs} fresh processes each")
    print(f"  wall, python -c pass:         {statistics.median(bare):.4f} s")
    print(f"  wall, import fracnoether.cli: {statistics.median(walls):.4f} s")
    print(f"  ru_maxrss of the import:      {statistics.median(rss) / 1024:.2f} MB")
    print(f"modules added: {len(added)}, {len(ours)} of fracnoether and {len(others)} others:")
    print("  " + " ".join(others))
    return 0


if __name__ == "__main__":
    sys.exit(main())
