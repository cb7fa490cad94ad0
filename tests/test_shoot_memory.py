"""The shoots a process remembers (``integrators._SHOOTS``).

A shoot of a boundary problem that returned is remembered by all that its
Newton iteration reads, the structure and constants of its ODE's trees
among them, and the next shoot of that key takes its final velocity from
there: it builds no kernel column and no Newton loop, and runs only its
final solve.  A shoot that differs in any one input is a miss, and every
shoot, remembered or not, writes what a run from empty caches writes.
"""

import contextlib
import io
import json
import re

import pytest

from fracnoether import cli, integrators
from fracnoether.euler_lagrange import BoundaryConditions, FractionalParams, VariationalProblem
from fracnoether.expressions import EvalDomainError, parse
from fracnoether.integrators import BlowUpError, bvp_shoot

# The pendulum of the benchmark's bvp_shoot workload, charged
PENDULUM = {
    "name": "shoot", "n": 1, "lagrangian": "1.3*v0^2/2 + 0.7*cos(q0)", "alpha": 0.4,
    "observer_time": 2.0, "interval": [0.0, 1.0],
    "mode": {"type": "bvp", "qa": [0.0], "qb": [2.1]}, "steps": 100,
    "generators": [{"tau": "1", "xi": ["0"], "gauge": "auto"}],
    "charges": ["noether", "energy"], "output_dir": "out",
}
AT_REST = {**PENDULUM, "mode": {"type": "bvp", "qa": [0.0], "qb": [0.0]}}

# (the remembered scenario, the scenario that differs from it in one input)
VARIANTS = {
    "coefficient": (PENDULUM, {**PENDULUM, "lagrangian": "1.3*v0^2/2 + 0.6*cos(q0)"}),
    # the same constants in another tree
    "function": (PENDULUM, {**PENDULUM, "lagrangian": "1.3*v0^2/2 + 0.7*sin(q0)"}),
    "factors_swapped": (PENDULUM, {**PENDULUM, "lagrangian": "1.3*v0^2/2 + cos(q0)*0.7"}),
    "alpha": (PENDULUM, {**PENDULUM, "alpha": 0.5}),
    "observer_time": (PENDULUM, {**PENDULUM, "observer_time": 2.5}),
    "interval_start": (PENDULUM, {**PENDULUM, "interval": [-0.2, 1.0]}),
    "interval_end": (PENDULUM, {**PENDULUM, "interval": [0.0, 1.2]}),
    "q_a": (PENDULUM, {**PENDULUM, "mode": {"type": "bvp", "qa": [0.1], "qb": [2.1]}}),
    "q_b": (PENDULUM, {**PENDULUM, "mode": {"type": "bvp", "qa": [0.0], "qb": [2.0]}}),
    "q_a_signed_zero": (AT_REST, {**AT_REST, "mode": {"type": "bvp", "qa": [-0.0], "qb": [0.0]}}),
    "q_b_signed_zero": (AT_REST, {**AT_REST, "mode": {"type": "bvp", "qa": [0.0], "qb": [-0.0]}}),
    "steps": (PENDULUM, {**PENDULUM, "steps": 120}),
}
# the shooting constants patched after the remembered run: a looser
# tolerance converges in fewer iterations, two iterations do not converge
PATCHED = {"SHOOTING_TOL": 1e-6, "SHOOTING_MAX_ITER": 2}


@pytest.fixture
def newton(monkeypatch):
    """The velocities of the Newton solves the shoots of a test run, from
    empty caches."""
    solved = []
    final_state = integrators._final_state

    def counted_final_state(*args):
        fn = final_state(*args)

        def counted(v0):
            solved.append(list(v0))
            return fn(v0)

        return counted

    cli.clear_caches()
    monkeypatch.setattr(integrators, "_final_state", counted_final_state)
    return solved


def charge(raw, tmp_path, name):
    """Exit code, stderr and every file of ``charge`` on ``raw`` written into
    ``tmp_path / name``, without the wall time a manifest records."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / name
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["charge", "--scenario", str(path), "--output", str(out)])
    files = {p.name: re.sub(r'\n *"wall_time_seconds": [^\n]*', "", p.read_text())
             for p in sorted(out.iterdir())} if out.exists() else {}
    return code, err.getvalue(), files


def test_a_repeated_shoot_runs_no_newton_loop_and_writes_what_the_first_wrote(newton, tmp_path):
    first = charge(PENDULUM, tmp_path, "run")
    assert first[0] == 0 and len(newton) >= 6
    newton.clear()
    assert charge(PENDULUM, tmp_path, "run") == first
    assert newton == []
    assert len(integrators._SHOOTS) == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_shoot_that_differs_in_one_input_is_a_miss(newton, tmp_path, variant):
    remembered, varied = VARIANTS[variant]
    assert charge(remembered, tmp_path, "remembered")[0] == 0
    newton.clear()
    warm = charge(varied, tmp_path, "run")
    solved = list(newton)
    assert solved and len(integrators._SHOOTS) == 2
    cli.clear_caches()
    newton.clear()
    assert charge(varied, tmp_path, "run") == warm
    assert warm[0] == 0 and newton == solved


def test_a_lagrangian_with_its_terms_swapped_is_the_same_shoot(newton, tmp_path):
    # each term of the pendulum's Lagrangian has a zero derivative in the
    # other's variable, so swapping them derives the same ODE trees: the
    # same shoot, answered from memory, writing what a run from empty
    # caches writes
    swapped = {**PENDULUM, "lagrangian": "0.7*cos(q0) + 1.3*v0^2/2"}
    assert charge(PENDULUM, tmp_path, "remembered")[0] == 0
    newton.clear()
    warm = charge(swapped, tmp_path, "run")
    assert newton == [] and len(integrators._SHOOTS) == 1
    cli.clear_caches()
    assert charge(swapped, tmp_path, "run") == warm
    assert warm[0] == 0 and newton


def test_a_remembered_shoot_defines_only_the_loop_of_its_final_solve(defined, tmp_path):
    prob = problem("1.3*v0^2/2 + 0.7*cos(q0)", [2.1])
    bvp_shoot(prob, steps=20)
    defined.clear()
    bvp_shoot(prob, steps=20)
    assert [filename for filename, _ in defined] == ["<compiled loop>"]
    # charge after solve on one boundary problem
    path = tmp_path / "shoot.json"
    path.write_text(json.dumps(PENDULUM))
    for command in ("solve", "charge"):
        defined.clear()
        argv = [command, "--scenario", str(path), "--output", str(tmp_path / command)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    built = [filename for filename, _ in defined
             if filename in ("<compiled loop>", "<compiled compiled>")]
    assert built == ["<compiled loop>"]


@pytest.mark.parametrize("name", PATCHED)
def test_a_shoot_under_other_shooting_constants_is_a_miss(newton, tmp_path, monkeypatch, name):
    assert charge(PENDULUM, tmp_path, "remembered")[0] == 0
    monkeypatch.setattr(integrators, name, PATCHED[name])
    newton.clear()
    warm = charge(PENDULUM, tmp_path, "run")
    solved = list(newton)
    assert solved and len(integrators._SHOOTS) == 2
    cli.clear_caches()
    newton.clear()
    assert charge(PENDULUM, tmp_path, "run") == warm
    assert newton == solved
    # the looser tolerance converges, two iterations stop unconverged
    assert warm[0] == (0 if name == "SHOOTING_TOL" else 3)


def problem(text, q_b, alpha=0.4):
    return VariationalProblem(
        n=1, lagrangian=parse(text, 1), interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=2.0),
        boundary=BoundaryConditions([0.0], q_b),
    )


def error(fn):
    """The class, message and theta of what ``fn()`` raises."""
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value), getattr(info.value, "theta", None)


def test_a_shoot_that_raised_is_not_remembered(newton):
    # q0^4/4 in the Lagrangian: the second Newton probe leaves the floats
    prob = problem("v0^2/2 + q0^4/4", [40.0])
    raised = error(lambda: bvp_shoot(prob, steps=20))
    assert raised[0] is BlowUpError and integrators._SHOOTS == {}
    newton.clear()
    assert error(lambda: bvp_shoot(prob, steps=20)) == raised
    assert newton and integrators._SHOOTS == {}


def test_a_remembered_shoot_raises_what_its_own_final_solve_raises(newton):
    # the Newton iteration converges; sqrt(0.7 - theta), a channel, leaves
    # its domain only in the final solve that asks for it
    prob = problem("1.3*v0^2/2 + 0.7*cos(q0)", [2.1])
    channel = {"g": parse("sqrt(0.7 - theta)", 1)}
    raised = error(lambda: bvp_shoot(prob, steps=20, integrands=channel))
    assert raised[0] is EvalDomainError and integrators._SHOOTS == {}
    bvp_shoot(prob, steps=20)
    newton.clear()
    assert error(lambda: bvp_shoot(prob, steps=20, integrands=channel)) == raised
    assert newton == [] and len(integrators._SHOOTS) == 1
    cli.clear_caches()
    assert error(lambda: bvp_shoot(prob, steps=20, integrands=channel)) == raised


def test_the_process_remembers_the_last_32_shoots(newton):
    probs = [problem("1.3*v0^2/2 + 0.7*cos(q0)", [0.05 * k]) for k in range(33)]
    reports = [bvp_shoot(prob, steps=8)[1] for prob in probs]
    assert len(integrators._SHOOTS) == integrators._MAX_SHOOTS == 32
    newton.clear()
    assert bvp_shoot(probs[1], steps=8)[1] == reports[1]  # remembered: now the most recent
    assert newton == []
    assert bvp_shoot(probs[0], steps=8)[1] == reports[0]  # the 33rd shoot pushed it out
    assert newton
    newton.clear()
    assert bvp_shoot(probs[2], steps=8)[1] == reports[2]  # the least recently used went
    assert newton
    newton.clear()
    assert bvp_shoot(probs[1], steps=8)[1] == reports[1]
    assert newton == []
