"""Per-step cost of the compiled RK4 loops of one benchmark pass.

Run from the root of a checkout:

    python3 tools/loop_ops.py --workload bvp_shoot --seed 4242

Builds the pass of ``perfbench/workloads.py`` for the workload and seed
(that file is only read), runs its commands in-process in a temporary
directory on one worker (``fanout.usable_cpus`` reads 1, so a sweep forks
no process and every alpha's loop is seen here), and keeps every
function ``expressions.shaped`` makes under the name ``loop`` together
with the arguments of its first call, watching ``compile`` and ``exec`` as
``expressions`` looks them up.  For each distinct loop source it
prints the sha256 of the source, its kind, how many loops of the pass
had it, how many times they were called, and for one step of the loop:

- ``instructions``: bytecode instructions executed, counted by tracing
  the loop over one step and over none at its first call's arguments;
- ``calls``: ``CALL`` instructions among them;
- ``guards``: ``if ...: raise`` statements in the step.

A loop's kind is ``rows`` when it takes an ``out`` argument, one list per
sample, q, v and channel column that each step appends its values to, as
the loops of ``integrators.ivp_solve`` do, and ``last`` when it takes no
``out`` and returns only its last row, as the Newton loops of
``integrators.bvp_shoot`` do.

The last lines give, per kind, the loop calls and the instructions of one
step averaged over them; the loops of the pass: how many were defined,
how many of them were emitted and how many were taken from the shape
cache (``expressions.shaped``), the distinct sources, and the seconds
spent in ``integrators._compile_rk4_loop``, timed with ``perf_counter``;
then the ``Expr.diff`` calls of the whole pass and the functions
``expressions.shaped`` made, every function counted, loop or not,
emitted or made from kept code; the column builders defined, one
per shoot at alpha < 1 that runs its Newton loop, which evaluates the
kernel on its grid, and their calls, two per such shoot, at the nodes
and at the half-nodes (``integrators._final_state``); the shoots
(``integrators.bvp_shoot``), the check solves of those that ran their
Newton loop (one per Newton iteration and one before), how many of those
were also the solve that built the shoot's trajectory, and how many of
the guesses that a check would converge
(``integrators._check_converges``) were wrong; how many shoots were
answered from memory (``integrators._SHOOTS``), a shoot that builds no
column and no Newton loop, and runs only the solve at the velocity the
process remembers for it, and so no check solve; the CSV tables written
(``integrators.write_table``), the values in them, theta not counted, the
values in repeating columns, at most half of whose values are distinct,
and the distinct values among those; the ``argparse.ArgumentParser``
objects built and the ``shutil.get_terminal_size`` calls made; the pass
starts as a fresh process does, wherever the tool runs: every cache the
process keeps between commands is emptied first (``cli.clear_caches``);
the garbage collections of each generation during the pass, counted
through ``gc.callbacks``; and the ``Trajectory`` objects the pass
constructed.  Every count but the collections repeats exactly from run
to run.
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import gc
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fracnoether import charges, cli, expressions, fanout, integrators  # noqa: E402

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


class Counted:
    """``fn``, calling ``count(args)`` before each call."""

    def __init__(self, fn, count):
        self.fn, self.count = fn, count

    def __call__(self, *args):
        self.count(args)
        return self.fn(*args)


def kind(loop) -> str:
    """``rows`` for a loop that takes an ``out``, the lists it appends its
    columns to, else ``last``."""
    code = loop.__code__
    return "rows" if "out" in code.co_varnames[:code.co_argcount] else "last"


def step_cost(loop, args) -> tuple[int, int]:
    """(instructions, calls) of one step of ``loop`` at its first call's
    arguments, ``(nodes, h, hh, h6, state, columns[, out[, weights]])``,
    the samples a step takes included.  Each column is cut with the nodes,
    as a loop may step over its columns alone."""
    nodes, *rest = args
    if kind(loop) == "rows":
        rest[5] = [[] for _ in rest[5]]

    def over(steps: int) -> list[str]:
        cut = len(nodes) - 1 - steps
        rest[4] = tuple(column[:len(column) - cut] for column in args[5])
        return executed(loop, (nodes[:steps + 1], *rest))

    one, none = over(1), over(0)
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


def record_pass(workload: str, seed: int):
    """Run one pass; return ([(source, loop, first call args, calls)],
    loops emitted, compile seconds, {"diff": calls, "made": functions made,
    "columns": builders defined, "column runs": builder calls,
    "trajectory": constructions, "tables": CSV tables written, "values":
    values in them, "repeating": values in repeating columns, "distinct":
    distinct values among those, "parsers": argument parsers built,
    "terminal": terminal-size reads}, [[iterations, converged, guesses that a
    check converges, rows loop calls, last loop calls] per shoot],
    [collections per GC generation])."""
    loops: list[list] = []
    shoots: list[list] = []
    kind_calls = {"rows": 0, "last": 0}
    collections = [0] * len(gc.get_count())
    # what expressions looks compile and exec up as: builtins, or a caller's hooks
    hooks = {name: vars(expressions).get(name) for name in ("compile", "exec")}
    compile_code, run_code = hooks["compile"] or compile, hooks["exec"] or exec
    sources = {}  # code object -> the source compiled into it
    diff = expressions.Expr.diff
    compile_loop = integrators._compile_rk4_loop
    emit_loop = integrators._emit_rk4_loop
    spent = [0.0]
    emitted = [0]
    post_init = integrators.Trajectory.__post_init__
    write_table = integrators.write_table
    calls = {"diff": 0, "made": 0, "columns": 0, "column runs": 0, "trajectory": 0,
             "tables": 0, "values": 0, "repeating": 0, "distinct": 0, "parsers": 0,
             "terminal": 0}
    parser_init = argparse.ArgumentParser.__init__
    terminal_size = shutil.get_terminal_size

    def counted_diff(self, var):
        calls["diff"] += 1
        return diff(self, var)

    def recording_compile(source, filename, mode):
        code = compile_code(source, filename, mode)
        sources[code] = source
        return code

    def recording_exec(code, namespace):
        run_code(code, namespace)
        calls["made"] += 1
        name = code.co_filename[len("<compiled "):-1]  # shaped compiles as <compiled name>
        fn = namespace[name]
        if name == "column":
            calls["columns"] += 1

            def column(args):
                calls["column runs"] += 1

            namespace[name] = Counted(fn, column)
        elif name == "loop":
            entry = [sources[code], fn, None, 0]
            loops.append(entry)
            loop_kind = kind(fn)

            def loop(args):
                if entry[2] is None:
                    entry[2] = args
                entry[3] += 1
                kind_calls[loop_kind] += 1

            namespace[name] = Counted(fn, loop)

    def counted_parser_init(self, *args, **kwargs):
        calls["parsers"] += 1
        parser_init(self, *args, **kwargs)

    def counted_terminal_size(*args, **kwargs):
        calls["terminal"] += 1
        return terminal_size(*args, **kwargs)

    def counted_post_init(self):
        calls["trajectory"] += 1
        post_init(self)

    def counted_write_table(path, header, theta_grid, columns, trailer=""):
        calls["tables"] += 1
        for values in columns:
            distinct = len(set(values))
            calls["values"] += len(values)
            if 2 * distinct <= len(values):
                calls["repeating"] += len(values)
                calls["distinct"] += distinct
        write_table(path, header, theta_grid, columns, trailer)

    def timed_compile(*args, **kwargs):
        start = perf_counter()
        try:
            return compile_loop(*args, **kwargs)
        finally:
            spent[0] += perf_counter() - start

    def counted_emit(*args):
        emitted[0] += 1
        return emit_loop(*args)

    def counted_shoot(*args, **kwargs):
        shoot = [0, False, 0, -kind_calls["rows"], -kind_calls["last"]]
        shoots.append(shoot)
        traj, report = bvp_shoot(*args, **kwargs)
        shoot[:2] = report.iterations, report.converged
        shoot[3] += kind_calls["rows"]
        shoot[4] += kind_calls["last"]
        return traj, report

    def counted_guess(misses):
        guess = check_converges(misses)
        shoots[-1][2] += guess
        return guess

    def collected(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    plan = workloads().build_plan(workload, seed)
    expressions.compile, expressions.exec = recording_compile, recording_exec
    expressions.Expr.diff = counted_diff
    integrators.Trajectory.__post_init__ = counted_post_init
    integrators._compile_rk4_loop = timed_compile
    integrators._emit_rk4_loop = counted_emit
    integrators.write_table = charges.write_table = counted_write_table
    bvp_shoot, check_converges = cli.bvp_shoot, integrators._check_converges
    cli.bvp_shoot, integrators._check_converges = counted_shoot, counted_guess
    usable_cpus = fanout.usable_cpus
    fanout.usable_cpus = lambda: 1
    argparse.ArgumentParser.__init__ = counted_parser_init
    shutil.get_terminal_size = counted_terminal_size
    cli.clear_caches()
    cwd = os.getcwd()
    gc.callbacks.append(collected)
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
        gc.callbacks.remove(collected)
        os.chdir(cwd)
        for name, hook in hooks.items():
            if hook is None:
                delattr(expressions, name)
            else:
                setattr(expressions, name, hook)
        expressions.Expr.diff = diff
        integrators.Trajectory.__post_init__ = post_init
        integrators._compile_rk4_loop = compile_loop
        integrators._emit_rk4_loop = emit_loop
        integrators.write_table = charges.write_table = write_table
        cli.bvp_shoot, integrators._check_converges = bvp_shoot, check_converges
        fanout.usable_cpus = usable_cpus
        argparse.ArgumentParser.__init__ = parser_init
        shutil.get_terminal_size = terminal_size
    return loops, emitted[0], spent[0], calls, shoots, collections


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads().WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    loops, emitted, seconds, counts, shoots, collections = record_pass(args.workload, args.seed)
    distinct: dict[str, list] = {}
    for source, fn, call, runs in loops:
        entry = distinct.setdefault(source, [fn, call, 0, 0])
        entry[2] += 1
        entry[3] += runs
    per_kind: dict[str, list[int]] = {}  # kind -> [runs, instructions over the runs]
    print("sha256            kind  loops   runs  instructions  calls  guards")
    for source, (fn, call, count, runs) in distinct.items():
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        instructions, calls = step_cost(fn, call)
        totals = per_kind.setdefault(kind(fn), [0, 0])
        totals[0] += runs
        totals[1] += runs * instructions
        print(f"{digest}  {kind(fn):4s}  {count:5d}  {runs:5d}  {instructions:12d}  {calls:5d}"
              f"  {guards(source):6d}")
    for name, (runs, instructions) in sorted(per_kind.items()):
        print(f"{name} loops: {runs} calls, {instructions / runs:.1f} instructions per step")
    print(f"{len(loops)} loops: {emitted} emitted, {len(loops) - emitted} from the shape cache, "
          f"{len(distinct)} distinct sources")
    print(f"{seconds:.4f} s in _compile_rk4_loop")
    print(f"{counts['diff']} Expr.diff calls, {counts['made']} functions made")
    print(f"{counts['columns']} column builders defined, {counts['column runs']} builder calls")
    # a shoot's trajectory is a check solve where no solve followed its
    # guessed checks, and a right guess ends the shoot converged there; a
    # shoot answered from memory runs no Newton loop, and every other runs
    # one for its first check solve
    run = [shoot for shoot in shoots if shoot[4]]
    checks = sum(1 + iterations for iterations, *_ in run)
    reused = [converged for _, converged, guesses, rows, _ in run if rows == guesses]
    guesses = sum(guesses for _, _, guesses, _, _ in run)
    print(f"{len(shoots)} shoots: {checks} check solves, {len(reused)} of them also the "
          f"trajectory solve; {guesses - sum(reused)} of {guesses} guesses wrong")
    print(f"{len(shoots) - len(run)} of {len(shoots)} shoots answered from memory")
    print(f"{counts['tables']} tables written: {counts['values']} values, {counts['repeating']} "
          f"in repeating columns, {counts['distinct']} distinct among those")
    print(f"{counts['parsers']} argument parsers built, {counts['terminal']} terminal-size reads")
    print("GC collections: " + ", ".join(f"gen{generation} {count}"
                                          for generation, count in enumerate(collections)))
    print(f"{counts['trajectory']} Trajectory constructions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
