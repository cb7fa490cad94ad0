"""Independent calls fanned out over forked worker processes.

The alphas of a sweep are independent solves, so :func:`fork_map` runs
them on every CPU the process may use.  The workers are forked: a child
starts from the caller's memory, with the package imported and the
scenario parsed, which a spawned process would have to do again.  Fork is
refused while another thread runs, since a child would inherit that
thread's locks but not the thread.  Only the ``sweep`` command imports
this module.
"""

from __future__ import annotations

import marshal
import os
import signal
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_map(fn, items) -> list:
    """``[fn(x) for x in items]``, in item order, computed by up to one
    process per usable CPU.

    With ``workers = min(len(items), usable_cpus())``, worker k computes
    ``items[k::workers]``; this process is worker 0 and forks the others
    before its first call, so every worker builds what its calls need at
    the same time.  It runs every call itself when ``workers`` is below 2,
    when the platform cannot fork, or when another thread is running.

    A child sends its results back as ``marshal`` bytes over a pipe, so
    they must be values ``marshal`` writes (floats come back exact), and
    ends in ``os._exit`` whatever happens: it never returns into the
    caller, flushes no inherited buffer and runs no exit handler.  When a
    child fails, or this process's own share raises an ``Exception``,
    every share is discarded and all the calls run again here, so the
    results, or the exception, are those of the serial loop.  Every child
    is reaped before this returns or raises, and killed first unless every
    share arrived.
    """
    items = list(items)
    workers = min(len(items), usable_cpus())
    threading = sys.modules.get("threading")
    if (workers < 2 or not hasattr(os, "fork")
            or threading is not None and threading.active_count() > 1):
        return [fn(x) for x in items]
    children = []  # (pid, read end of its pipe), worker 1 first
    results, delivered = [None] * len(items), False
    try:
        for k in range(1, workers):
            children.append(_fork(fn, items[k::workers]))
        results[::workers] = [fn(x) for x in items[::workers]]
        for k, (_, pipe) in enumerate(children, 1):
            results[k::workers] = marshal.loads(pipe.read())
        delivered = True
    except Exception:
        pass  # the serial calls below raise it again, from where it arose
    finally:
        failed = _reap(children, kill=not delivered)
    if delivered and not failed:
        return results
    return [fn(x) for x in items]


def _fork(fn, share: list):
    """Fork a child that writes ``marshal.dumps([fn(x) for x in share])``
    to a pipe and exits; return its pid and the read end of the pipe."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            data = marshal.dumps([fn(x) for x in share])
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _reap(children: list, kill: bool) -> bool:
    """Close each child's pipe, SIGKILL the child if ``kill``, and wait
    for it; return whether any exited other than with status 0."""
    failed = False
    for pid, pipe in children:
        pipe.close()
        if kill:
            os.kill(pid, signal.SIGKILL)
        failed |= os.waitpid(pid, 0)[1] != 0
    return failed
