"""Benchmark of the fracnoether CLI on seeded scenario workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ivp_corpus --seed 1 --seconds 25 --trace 0

Workloads (the fixed mixes are in ``workloads.py``, the reasons in
``BENCHMARK.json``): ``ivp_corpus``, ``bvp_shoot`` and ``sweep_narrow``.  Users run each ``fracnoether`` command as a fresh
process, so every pass runs in a fresh worker process (``worker.py``),
one at a time, with BLAS threads pinned to 1 and ``--jobs`` left at its
default.  A run makes as many passes as fit in ``--seconds`` at the
reference speed (below), at least 3 and at least enough for the tail
percentile to have 10 samples beyond it.  The count depends on nothing
measured, so two versions of the program are compared on equal sample
counts and the same tail percentile.

The machine this runs on is shared, and its speed drifts by tens of
percent within a minute.  So every duration is reported at a fixed
reference speed: the worker times ``worker.reference_walk`` before set-up
and after each command, and each duration is multiplied by
``REFERENCE_NOMINAL_S`` over the mean of the loop times around it.  The
unscaled medians are printed next to the result.

With ``--trace 0`` the metrics are end to end: ``setup_s`` (import of
``fracnoether.cli`` plus writing and validating the scenario files, median
over passes), ``wall_s`` (median pass over the command list),
``cmd_p50_s`` and ``cmd_tail_s`` (per-command latency over all passes)
and ``peak_rss_mb`` (median peak resident memory of a worker).  With
``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer medians of the traced passes (see ``tracer.py``) and
``trace.overhead_frac``.  Every command's outputs are checked (see
``gate.py``); a failed check counts in ``failed``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import tracer
from workloads import PASS_SECONDS, WORKLOADS, build_plan

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"

# Median time of worker.reference_walk on the machine the bounds were set
# on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11).
REFERENCE_NOMINAL_S = 0.0081
MIN_PASSES = 3
MIN_TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, *range(99, 0, -1))
PASS_TIMEOUT_S = 150
PINNED_ENV = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(samples, min_beyond: int = MIN_TAIL_BEYOND):
    """Highest percentile with at least ``min_beyond`` samples above its value.

    Percentiles are nearest-rank, tried from 99.9 and then 99, 98, ... 1.
    Returns ``(percentile, value, samples beyond)``, or None when even the
    1st percentile has fewer samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        value = ordered[max(0, math.ceil(p / 100 * n) - 1)]
        beyond = n - bisect.bisect_right(ordered, value)
        if beyond >= min_beyond:
            return p, value, beyond
    return None


def _scale_to_reference_speed(result: dict) -> None:
    """Scale set-up and command durations by the reference loop times around them."""
    refs = result["references"]

    def scale(i):
        return REFERENCE_NOMINAL_S / ((refs[i] + refs[i + 1]) / 2)

    result["raw_setup_s"] = result["setup_s"]
    result["setup_s"] *= scale(0)
    for i, cmd in enumerate(result["commands"]):
        cmd["raw_seconds"] = cmd["seconds"]
        cmd["seconds"] *= scale(i + 1)
    result["raw_wall_s"] = sum(c["raw_seconds"] for c in result["commands"])
    result["wall_s"] = sum(c["seconds"] for c in result["commands"])
    result["speed_scale"] = REFERENCE_NOMINAL_S / statistics.median(refs)


def run_pass(plan: dict, trace: bool, work: Path) -> dict:
    """Run one pass in a fresh worker and check its outputs."""
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
    try:
        (pass_dir / "plan.json").write_text(json.dumps(plan))
        env = dict(os.environ, **PINNED_ENV)
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(pass_dir), "1" if trace else "0"],
            env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads((pass_dir / "result.json").read_text())
        _scale_to_reference_speed(result)
        out = pass_dir / "out"
        for cmd in result["commands"]:
            if cmd["error"] is not None:
                cmd["failure"] = f"exception:\n{cmd['error']}"
            elif cmd["exit_code"] != 0:
                cmd["failure"] = f"exit code {cmd['exit_code']}: {cmd['stderr'].strip()}"
            else:
                cmd["failure"] = gate.check_command(
                    cmd["argv"], plan["files"][cmd["argv"][2]], out)
        result["outputs_sha256"] = gate.outputs_digest(out) if out.is_dir() else None
        if trace:
            result["layers"] = tracer.layer_metrics(
                json.loads((pass_dir / "trace.json").read_text()))
        return result
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def pass_count(workload: str, commands: int, seconds: float, trace: bool) -> int:
    fitting = int(seconds // PASS_SECONDS[workload])
    if trace:
        return max(2, fitting)
    return max(MIN_PASSES, math.ceil((MIN_TAIL_BEYOND + 1) / commands), fitting)


def run_passes(plan: dict, passes: int, trace: bool, work: Path) -> list[dict]:
    """Run the passes of a run; with trace, untraced and traced passes alternate."""
    results = []
    for i in range(passes):
        traced = trace and i % 2 == 1
        result = run_pass(plan, traced, work)
        result["traced"] = traced
        results.append(result)
    return results


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    latencies = [c["seconds"] for r in results for c in r["commands"]]
    tail = tail_percentile(latencies)
    if tail is None:
        raise BenchError(f"{len(latencies)} command latencies are too few for a tail")
    percentile, tail_value, beyond = tail
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        "cmd_tail_s": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }
    notes = {
        "cmd_tail_s": f"p{percentile:g} of {len(latencies)} samples, {beyond} beyond",
        "setup_s": f"unscaled {statistics.median(r['raw_setup_s'] for r in results):.4g} s",
        "wall_s": f"unscaled {statistics.median(r['raw_wall_s'] for r in results):.4g} s",
        "cmd_p50_s": "unscaled {:.4g} s".format(
            statistics.median(c["raw_seconds"] for r in results for c in r["commands"])),
    }
    return metrics, notes


UNITS = {"_s": "s", ".s": "s", "_us": "us", "_frac": "ratio", "_ratio": "ratio", "_bytes": "bytes"}


def per_layer(results: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        scaled = unit in ("s", "us")
        metrics[name] = (statistics.median(
            r["layers"][name] * r["speed_scale"] if scaled else r["layers"][name]
            for r in traced), unit)
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    notes = {"passes": f"{len(traced)} traced, {len(plain)} untraced"}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracnoether" / "cli.py").is_file():
        print(f"error: no fracnoether sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = build_plan(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        passes = pass_count(args.workload, len(plan["commands"]), args.seconds, bool(args.trace))
        results = run_passes(plan, passes, bool(args.trace), work)
        metrics, notes = per_layer(results) if args.trace else end_to_end(results)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = [c for r in results for c in r["commands"]]
    failures = [c for c in commands if c["failure"] is not None]
    digests = {r["outputs_sha256"] for r in results}
    cpus = os.cpu_count() or 1
    sweep_counts = sorted({s["alpha"]["count"] for s in plan["files"].values()
                           if isinstance(s["alpha"], dict)})
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(results)} passes of {len(plan['commands'])} commands; "
          f"cpu_count {cpus}, default sweep jobs "
          f"{sorted({min(k, cpus) for k in sweep_counts}) or 'n/a'}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{note}")
    print(f"  {'fail_frac':<34} {len(failures) / len(commands):>14.6g} ratio"
          f"  ({len(failures)} of {len(commands)} commands)")
    for digest in sorted(digests, key=str):
        print(f"  outputs_sha256 {digest}")
    if "passes" in notes:
        print(f"  passes: {notes['passes']}")
    print(f"  speed scale {statistics.median(r['speed_scale'] for r in results):.4g} "
          f"(reference walk {REFERENCE_NOMINAL_S * 1e3:g} ms nominal)")
    for cmd in failures[:5]:
        print(f"FAILED {' '.join(cmd['argv'])}: {cmd['failure']}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures and len(digests) == 1,
        "attempted": len(commands),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
