"""One benchmark pass in a fresh process: ``worker.py <pass_dir> <trace 0|1>``.

The pass directory holds ``plan.json`` (scenario objects and CLI argument
lists from ``workloads.build_plan``).  The worker imports fracnoether from
``src/`` of the checkout, writes and validates every scenario file (the
set-up a user pays before the first command), then runs each command
in-process through ``fracnoether.cli.main`` and writes ``result.json``.
Before the import and after every command it times ``reference_walk``, a
fixed piece of pure-Python work, so the parent can scale each duration by
the speed the machine had at that moment.
Outputs land in ``<pass_dir>/out`` and are checked by the parent, outside
the timed region.  With trace 1 the layer wrappers of ``tracer`` are
installed after the import and the spans are written to ``trace.json``.
"""

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DEPTH = 13
REFERENCE_WALKS = 10


class _Node:
    __slots__ = ("value", "left", "right")

    def __init__(self, value, left=None, right=None):
        self.value, self.left, self.right = value, left, right

    def total(self):
        if self.left is None:
            return self.value
        return self.value + self.left.total() + self.right.total()


def reference_tree(depth: int = REFERENCE_DEPTH, value: float = 0.5) -> _Node:
    if depth == 0:
        return _Node(value)
    return _Node(value, reference_tree(depth - 1, value * 1.01),
                 reference_tree(depth - 1, value * 0.99))


def reference_walk(tree: _Node) -> float:
    """Seconds taken by fixed recursive walks of ``tree``, a probe of machine speed.

    Method calls and attribute loads over a heap-resident tree slow down
    with the machine the way the expression-tree walks of fracnoether do;
    a tight arithmetic loop tracked them worse.
    """
    start = perf_counter()
    for _ in range(REFERENCE_WALKS):
        tree.total()
    return perf_counter() - start


def main(pass_dir: str, trace: bool) -> None:
    os.chdir(pass_dir)
    with open("plan.json") as fh:
        plan = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))

    tree = reference_tree()
    references = [reference_walk(tree)]
    start = perf_counter()
    import fracnoether.cli as cli
    from fracnoether import scenarios

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported fracnoether from {cli.__file__}, not from {ROOT / 'src'}")
    store = None
    if trace:
        import tracer

        store = tracer.TraceStore()
        tracer.install(store)
    os.mkdir("scenarios")
    for path, raw in plan["files"].items():
        with open(path, "w") as fh:
            json.dump(raw, fh)
        scenarios.load_scenario(path)
    setup_s = perf_counter() - start
    references.append(reference_walk(tree))

    commands = []
    for index, argv in enumerate(plan["commands"]):
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if store is None:
                    code = cli.main(argv)
                else:
                    code = store.command(index, cli.main, argv)
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc()
        commands.append({
            "argv": argv,
            "seconds": perf_counter() - t0,
            "exit_code": code,
            "error": error,
            "stderr": err.getvalue(),
        })
        references.append(reference_walk(tree))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if store is not None:
        with open("trace.json", "w") as fh:
            json.dump(store.dump(), fh)
    with open("result.json", "w") as fh:
        json.dump({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "commands": commands,
                   "references": references}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1")
