"""The alphas of a sweep fanned out over forked workers (``fanout.fork_map``).

However many workers run, the sweep CSV bytes, the exit code and any
unexpected exception are those of the serial loop, and no child process
is left once the command returns or raises.
"""

import json
import os
import shutil
import threading
import time
from pathlib import Path

import pytest

from fracnoether import cli, fanout
from fracnoether.scenarios import load_scenario

ROOT = Path(__file__).resolve().parents[1]
WORKERS = (1, 2, 3)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """Set how many CPUs ``fork_map`` sees; after the test no child is left."""
    def use(count):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: count)

    yield use
    assert_no_child_left()


def scenario(name, lagrangian, q0, v0, charges, generators=()):
    return {
        "name": name, "n": 1, "lagrangian": lagrangian,
        "alpha": {"from": 0.5, "to": 1.0, "count": 4},
        "observer_time": 2.0, "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [q0], "v0": [v0]}, "steps": 400,
        "generators": [{"tau": tau, "xi": [xi], "gauge": "0"} for tau, xi in generators],
        "charges": charges,
    }


# the error-row sweeps of test_scenarios_cli.py, at four alphas
ERROR_ROWS = {
    # every alpha's solve blows up
    "blowup": scenario("blowup", "v0^2/2 - exp(exp(exp(q0)))", 2.0, 5.0, ["momentum"]),
    # the charge leaves its domain, the momentum stays fine
    "log_shift": scenario("log_shift", "v0^2/2", 0.5, -1.0, ["noether", "momentum"],
                          [("0", "ln(q0)")]),
    # the action leaves its domain
    "log_action": scenario("log_action", "v0^2/2 - 0.01*ln(q0)", 0.5, -2.0, ["energy"]),
}


def sweep_file(tmp_path, name) -> Path:
    if name == "oscillator_sweep":
        return Path(shutil.copy(ROOT / "scenarios" / "oscillator_sweep.json", tmp_path))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(ERROR_ROWS[name]))
    return path


@pytest.mark.parametrize("name", ["oscillator_sweep", *ERROR_ROWS])
def test_sweep_bytes_and_exit_code_do_not_depend_on_the_worker_count(tmp_path, workers, name):
    path = sweep_file(tmp_path, name)
    outcomes = set()
    for count in WORKERS:
        workers(count)
        out = tmp_path / f"out{count}"
        code = cli.main(["sweep", "--scenario", str(path), "--output", str(out)])
        assert_no_child_left()
        (csv,) = out.iterdir()
        outcomes.add((code, csv.read_bytes()))
    (code, csv), = outcomes
    assert code == (cli.EXIT_OK if name == "oscillator_sweep" else cli.EXIT_FAILURE)
    assert (b"error: " in csv) == (name != "oscillator_sweep")


@pytest.mark.parametrize("failing", [0, 1, 3])
def test_an_unexpected_exception_is_the_serial_one(tmp_path, monkeypatch, workers, failing):
    # alpha 0 is always this process's own share, alpha 1 a child's once
    # there are two workers, alpha 3 the second child's of three
    path = sweep_file(tmp_path, "oscillator_sweep")
    serial = load_scenario(path).alphas()[:failing + 1]
    sweep_rows = cli._sweep_rows
    alphas = []

    def rows(scenario, alpha):
        alphas.append(alpha)
        if alpha == serial[-1]:
            raise RuntimeError(f"no rows at alpha {alpha!r}")
        return sweep_rows(scenario, alpha)

    monkeypatch.setattr(cli, "_sweep_rows", rows)
    raised = set()
    for count in WORKERS:
        workers(count)
        alphas.clear()
        with pytest.raises(RuntimeError) as info:
            cli.main(["sweep", "--scenario", str(path), "--output", str(tmp_path / "out")])
        assert_no_child_left()
        raised.add((type(info.value), str(info.value)))
        # this process ends with the serial loop, up to the failing alpha
        assert alphas[-len(serial):] == serial
    assert len(raised) == 1


def test_results_come_back_in_item_order_with_exact_floats(workers):
    workers(3)
    parent = os.getpid()
    results = fanout.fork_map(lambda x: [x, 1.0 / (x + 3), os.getpid()], range(8))
    assert [r[:2] for r in results] == [[x, 1.0 / (x + 3)] for x in range(8)]
    # worker k ran items k, k + 3, ..., and this process is worker 0
    pids = [r[2] for r in results]
    assert pids[0::3] == [parent] * 3
    assert len({*pids[1::3]}) == len({*pids[2::3]}) == 1
    assert len({parent, pids[1], pids[2]}) == 3


def test_an_interrupt_kills_and_reaps_the_children(workers):
    workers(3)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # only a kill ends a child in time

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fanout.fork_map(fn, range(3))
    assert time.monotonic() - start < 30


def test_a_running_thread_keeps_every_call_in_this_process(workers):
    workers(3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        pids = fanout.fork_map(lambda x: os.getpid(), range(6))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == [os.getpid()] * 6
