"""Per-step cost of the compiled RK4 loops of one benchmark pass.

Run from the root of a checkout:

    python3 tools/loop_ops.py --workload bvp_shoot --seed 4242

Builds the pass of ``perfbench/workloads.py`` for the workload and seed
(that file is only read), runs its commands in-process in a temporary
directory, and keeps every function ``Emitter.define`` builds under the
name ``loop`` together with the arguments of its first call.  For each
distinct loop source it prints the sha256 of the source, how many loops
of the pass had it, and for one step of the loop:

- ``instructions``: bytecode instructions executed, counted by tracing
  the loop over one step and over none at its first call's arguments;
- ``calls``: ``CALL`` instructions among them;
- ``guards``: ``if ...: raise`` statements in the step.

The last lines give the loops of the pass: how many were defined, how
many of them were emitted and how many were taken from the shape cache
(``expressions.shaped``), the distinct sources, and the seconds spent in
``integrators._compile_rk4_loop``, timed with ``perf_counter``; then the
``Expr.diff`` and ``Emitter.define`` calls of the whole pass, every
function counted, loop or not; then the ``Trajectory`` objects the pass
constructed and the loop calls that kept only the last row (an ``out`` that
is the ``append`` of a ``deque`` of ``maxlen`` 1, as the Newton solves of
``integrators.bvp_shoot`` pass).  The counts repeat exactly from run to run.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dis
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fracnoether import cli, expressions, integrators  # noqa: E402

GUARD_RE = re.compile(r"^\s*if .*: raise ")


def executed(fn, args) -> list[str]:
    """Opnames of the instructions ``fn(*args)`` executes in its own frame."""
    ops = dis.get_instructions(fn.__code__)
    names = {op.offset: op.opname for op in ops}
    seen = []

    def trace(frame, event, arg):
        if frame.f_code is not fn.__code__:
            return None
        frame.f_trace_opcodes = True
        if event == "opcode":
            seen.append(names.get(frame.f_lasti, "?"))
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return seen


def step_cost(loop, args) -> tuple[int, int]:
    """(instructions, calls) of one step of ``loop`` at its first call's
    arguments, the samples a step takes included."""
    nodes, h, hh, h6, state, _, *weights = args
    one = executed(loop, (nodes[:2], h, hh, h6, state, [].append, *weights))
    none = executed(loop, (nodes[:1], h, hh, h6, state, [].append, *weights))
    calls = sum(op == "CALL" for op in one) - sum(op == "CALL" for op in none)
    return len(one) - len(none), calls


def guards(source: str) -> int:
    """``if ...: raise`` statements inside the step loop of ``source``."""
    return sum(bool(GUARD_RE.match(line)) for line in source.splitlines())


def workloads():
    """The benchmark's ``workloads`` module, read from ``perfbench/``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def kept_last_row(out) -> bool:
    """Whether ``out`` is the ``append`` of a deque that keeps one row."""
    owner = getattr(out, "__self__", None)
    return isinstance(owner, collections.deque) and owner.maxlen == 1


def record_pass(workload: str, seed: int):
    """Run one pass; return ([(source, loop, first call args)], loops
    emitted, compile seconds, {"diff": calls, "define": calls,
    "trajectory": constructions, "last_row": loop calls keeping the last row})."""
    loops: list[list] = []
    define = expressions.Emitter.define
    diff = expressions.Expr.diff
    compile_loop = integrators._compile_rk4_loop
    emit_loop = integrators._emit_rk4_loop
    spent = [0.0]
    emitted = [0]
    post_init = integrators.Trajectory.__post_init__
    calls = {"diff": 0, "define": 0, "trajectory": 0, "last_row": 0}

    def counted_diff(self, var):
        calls["diff"] += 1
        return diff(self, var)

    def recording_define(self, source, name, **names):
        calls["define"] += 1
        fn = define(self, source, name, **names)
        if name != "loop":
            return fn
        entry = ["\n".join(source), fn, None]
        loops.append(entry)

        def loop(*args):
            if entry[2] is None:
                entry[2] = args
            calls["last_row"] += kept_last_row(args[5])
            return fn(*args)

        return loop

    def counted_post_init(self):
        calls["trajectory"] += 1
        post_init(self)

    def timed_compile(*args):
        start = perf_counter()
        try:
            return compile_loop(*args)
        finally:
            spent[0] += perf_counter() - start

    def counted_emit(*args):
        emitted[0] += 1
        return emit_loop(*args)

    plan = workloads().build_plan(workload, seed)
    expressions.Emitter.define = recording_define
    expressions.Expr.diff = counted_diff
    integrators.Trajectory.__post_init__ = counted_post_init
    integrators._compile_rk4_loop = timed_compile
    integrators._emit_rk4_loop = counted_emit
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            os.mkdir("scenarios")
            for path, raw in plan["files"].items():
                Path(path).write_text(json.dumps(raw))
            for argv in plan["commands"]:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"command {argv} exited {code}")
    finally:
        os.chdir(cwd)
        expressions.Emitter.define = define
        expressions.Expr.diff = diff
        integrators.Trajectory.__post_init__ = post_init
        integrators._compile_rk4_loop = compile_loop
        integrators._emit_rk4_loop = emit_loop
    return loops, emitted[0], spent[0], calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads().WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    loops, emitted, seconds, counts = record_pass(args.workload, args.seed)
    distinct: dict[str, list] = {}
    for source, fn, call in loops:
        distinct.setdefault(source, [fn, call, 0])[2] += 1
    print("sha256            loops  instructions  calls  guards")
    for source, (fn, call, count) in distinct.items():
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        instructions, calls = step_cost(fn, call)
        print(f"{digest}  {count:5d}  {instructions:12d}  {calls:5d}  {guards(source):6d}")
    print(f"{len(loops)} loops: {emitted} emitted, {len(loops) - emitted} from the shape cache, "
          f"{len(distinct)} distinct sources")
    print(f"{seconds:.4f} s in _compile_rk4_loop")
    print(f"{counts['diff']} Expr.diff calls, {counts['define']} Emitter.define calls")
    print(f"{counts['trajectory']} Trajectory constructions, "
          f"{counts['last_row']} loop calls that kept only the last row")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
