"""The code kept by the shape cache: each shape's source compiled once.

Constants are bound by name, never written into the source, so problems
that differ only in coefficients or alpha have one shape
(``tests/test_shape_cache.py``), emit one source and share the one code
object ``expressions.shaped`` keeps with the shape, while every function
made from it keeps its own constants, values and error messages.  A sweep
emits and compiles each function once, and later alphas define again only
the functions whose trees hold 1 - alpha or alpha - 1, rebinding their
slots.  Every function still goes through ``Emitter.define``, the one
place that compiles.
"""

import ast
import collections
import json
from pathlib import Path

import pytest

import fracnoether
from fracnoether import cli, expressions, fanout, scenarios
from fracnoether.euler_lagrange import ExplicitOde, FractionalParams, VariationalProblem
from fracnoether.expressions import (
    EvalDomainError,
    ExpressionError,
    Q,
    compile_trees,
    parse,
)
from fracnoether.integrators import ivp_solve


def oscillator_sweep(tmp_path):
    scenario = {
        "name": "oscillator_sweep",
        "n": 1,
        "lagrangian": "(1.2*v0^2 - 0.8*q0^2)/2",
        "alpha": {"from": 0.3, "to": 0.9, "count": 6},
        "observer_time": 2.0,
        "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [1.0], "v0": [0.0]},
        "steps": 100,
        "generators": [{"tau": "1", "xi": ["0"], "gauge": "auto"}],
        "charges": ["noether", "energy"],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def drags(monkeypatch, path, share=slice(None)) -> list[bool]:
    """For each loop ``Emitter.define`` builds, whether one of its slots
    holds 1 - alpha, for the alphas ``share`` of the sweep at ``path`` in turn."""
    alphas = iter(list(scenarios.load_scenario(path).alphas())[share])
    found = []
    define = expressions.Emitter.define

    def recording_define(self, source, name, **names):
        fn = define(self, source, name, **names)
        if name == "loop":
            drag = 1.0 - next(alphas)
            found.append(any(k.startswith("_c") and v == drag for k, v in fn.__kwdefaults__.items()))
        return fn

    monkeypatch.setattr(expressions.Emitter, "define", recording_define)
    return found


def test_alpha_sweep_compiles_each_distinct_source_once(tmp_path, monkeypatch, compiled, defined):
    # on one worker every alpha's function is defined in this process
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
    path = oscillator_sweep(tmp_path)
    found = drags(monkeypatch, path)
    assert cli.main(["sweep", "--scenario", str(path)]) == 0
    assert len(compiled) == len(set(compiled)) == len(set(defined))
    assert set(compiled) == set(defined)
    # the one function of a sweep is the step loop, which samples the
    # charges and the action integrand: every alpha after the first defines
    # it again from the first one's code, binding its own 1 - alpha
    ((filename, _),) = compiled
    assert filename == "<compiled loop>" and found == [True] * 6
    assert collections.Counter(defined) == {call: 6 for call in compiled}


def test_the_own_share_of_a_two_worker_sweep_compiles_once(tmp_path, monkeypatch, compiled,
                                                             defined):
    # this process runs alphas 0, 2 and 4 of the six, a child the others
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
    path = oscillator_sweep(tmp_path)
    found = drags(monkeypatch, path, slice(None, None, 2))
    assert cli.main(["sweep", "--scenario", str(path)]) == 0
    (call,) = compiled
    assert call[0] == "<compiled loop>" and found == [True] * 3
    assert collections.Counter(defined) == {call: 3}


def oscillator(m, k, alpha):
    return VariationalProblem(
        n=1,
        lagrangian=parse(f"({m}*v0^2 - {k}*q0^2)/2", 1),
        interval=(0.0, 1.0),
        frac=FractionalParams(alpha=alpha, observer_time=2.0),
    )


def solve(prob, c):
    """The step loop of one solve and the exact bytes it wrote."""
    loops = []
    define = expressions.Emitter.define

    def recording_define(self, source, name, **names):
        fn = define(self, source, name, **names)
        if name == "loop":
            loops.append(fn)
        return fn

    ode = ExplicitOde(prob)
    integrands = {"g": parse(f"ln({c}*q0 + 2)*v0^2", 1)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expressions.Emitter, "define", recording_define)
        traj = ivp_solve(ode, 0.0, 1.0, [1.0], [0.0], 50, integrands=integrands)
    (loop,) = loops
    return loop, (repr(traj.q), repr(traj.v), repr(traj.channels["g"]))


def test_oscillators_share_code_but_not_values(compiled):
    loop_a, out_a = solve(oscillator(1.3, 0.7, 0.4), 0.5)
    count = len(compiled)
    loop_b, out_b = solve(oscillator(1.5, 0.6, 0.75), 0.35)
    assert len(compiled) == count  # the second oscillator compiled nothing
    assert loop_a.__code__ is loop_b.__code__
    assert out_a != out_b
    for (m, k, alpha, c), out in [((1.3, 0.7, 0.4, 0.5), out_a), ((1.5, 0.6, 0.75, 0.35), out_b)]:
        expressions._SHAPES.clear()
        assert solve(oscillator(m, k, alpha), c)[1] == out
    assert len(compiled) == 3 * count


def test_shared_code_keeps_each_functions_errors(compiled):
    texts = ["ln(1.5*q0) + 0.5*q3", "ln(2.5*q0) + 0.25*q3"]
    f, g = (compile_trees(parse(text)) for text in texts)
    assert f.__code__ is g.__code__ and len(compiled) == 1
    point = (0.0, [2.0, 0.0, 0.0, 4.0], [0.0] * 4)
    for fn, text in [(f, texts[0]), (g, texts[1])]:
        expressions._SHAPES.clear()
        assert fn(*point) == compile_trees(parse(text))(*point)
    assert len(compiled) == 3
    with pytest.raises(EvalDomainError, match=r"^ln of non-positive value -0\.75$"):
        f(0.0, [-0.5], [0.0])
    with pytest.raises(EvalDomainError, match=r"^ln of non-positive value -1\.25$"):
        g(0.0, [-0.5], [0.0])
    for fn in (f, g):
        with pytest.raises(
            ExpressionError, match=r"^variable q3 out of range for 1 degrees of freedom$"
        ):
            fn(0.0, [2.0], [0.0])


def tuple_of(k):
    """A function with a shape and a source of its own for each k: a k-tuple of q0."""
    return compile_trees([Q(0)] * k)


def test_code_cache_evicts_the_oldest_beyond_its_bound(compiled):
    # the code lives and dies with its shape: kept while the shape is among
    # the last _MAX_SHAPES, compiled again once the shape has been evicted
    limit = expressions._MAX_SHAPES
    fns = [tuple_of(k) for k in range(1, limit + 11)]
    assert len(compiled) == limit + 10
    assert len(expressions._SHAPES) == limit
    assert all(fn(0.0, [1.5], [0.0]) == (1.5,) * k for k, fn in enumerate(fns, 1))
    tuple_of(limit + 10)  # among the newest: kept
    assert len(compiled) == limit + 10
    tuple_of(1)  # the oldest: evicted, compiled again
    assert len(compiled) == limit + 11
    assert len(expressions._SHAPES) == limit
    assert tuple_of(1)(0.0, [2.5], [0.0]) == (2.5,) and len(compiled) == limit + 11


def test_define_is_the_only_compile_site():
    # a compile or exec elsewhere would bypass the code the shape cache
    # keeps
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute) and not (
                isinstance(child.value, ast.Name) and child.value.id == "re"
            ):
                name = child.attr
            else:
                name = None
            if name in ("compile", "exec", "eval"):
                found.append((path.name, inner, name))
            visit(child, inner)

    for path in sorted(Path(fracnoether.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), "")
    assert sorted(found) == [
        ("expressions.py", "Emitter.define", "compile"),
        ("expressions.py", "Emitter.define", "exec"),
    ]
