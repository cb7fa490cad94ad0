"""The shape cache in front of emission (``expressions.shaped``).

The trees of a sweep's alphas differ only in the two numbers alpha
enters them by, 1 - alpha and the weight's exponent alpha - 1, which
are :class:`Named` values.  A function whose trees have the shape of an
earlier one is not emitted again: it binds the earlier constants and its
own named values.  Each test here compares against emissions from empty
caches, so a key that misses an input, or a hit that binds the wrong
value, shows as different bytes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracnoether
from fracnoether import cli, expressions, linsolve, scenarios
from fracnoether.acceptance import _CORPUS_LAGRANGIANS, _corpus_generators
from fracnoether.euler_lagrange import ExplicitOde, FractionalParams, VariationalProblem
from fracnoether.expressions import (
    Const,
    Div,
    EvalDomainError,
    Named,
    Q,
    compile_trees,
    parse,
)
from fracnoether.integrators import ivp_solve

ROOT = Path(__file__).resolve().parents[1]
NAMED = {"_one_minus_alpha", "_alpha_minus_one"}


def clear_caches():
    expressions._SHAPES.clear()
    expressions._compile.cache_clear()
    linsolve._solver.cache_clear()


@pytest.fixture
def emissions(monkeypatch):
    """Every function ``Emitter.define`` builds, as (name, source, float
    constants of its namespace, whether it was emitted), from empty caches."""
    calls = []
    body, define = expressions.Emitter.body, expressions.Emitter.define

    def recording_body(self, indent):
        self.recorded_body = True
        return body(self, indent)

    def recording_define(self, source, name, **names):
        constants = {k: v for k, v in self._namespace.items() if type(v) is float}
        calls.append((name, "\n".join(source), constants, hasattr(self, "recorded_body")))
        return define(self, source, name, **names)

    clear_caches()
    monkeypatch.setattr(expressions.Emitter, "body", recording_body)
    monkeypatch.setattr(expressions.Emitter, "define", recording_define)
    return calls


def sweep_scenario(tmp_path, name, lagrangian, alphas, n=1, generator=("1", ["0"]),
                   charges=("noether", "energy"), steps=200):
    start, stop, count = alphas
    raw = {
        "name": name,
        "n": n,
        "lagrangian": lagrangian,
        "alpha": {"from": start, "to": stop, "count": count},
        "observer_time": 2.0,
        "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [0.4] * n, "v0": [0.5] * n},
        "steps": steps,
        "generators": [{"tau": generator[0], "xi": list(generator[1]), "gauge": "auto"}],
        "charges": list(charges),
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


def alone(path) -> bytes:
    """The sweep CSV of ``path`` with every alpha run alone from empty caches."""
    rows = []
    for alpha in scenarios.load_scenario(path).alphas():
        clear_caches()
        rows += cli._sweep_rows(scenarios.load_scenario(path), alpha)
    rows.sort(key=lambda r: (r["alpha"], r["label"]))
    lines = [",".join(cli.SWEEP_COLUMNS)]
    lines += [",".join(cli._sweep_field(r.get(k, "")) for k in cli.SWEEP_COLUMNS) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def test_sweeps_in_one_process_match_each_alpha_alone(tmp_path):
    shutil.copy(ROOT / "scenarios" / "oscillator_sweep.json", tmp_path)
    paths = [
        # alphas up to 1.0, where the drag folds away
        tmp_path / "oscillator_sweep.json",
        # 1 - alpha equals the coefficients at the first alpha, 0.5
        sweep_scenario(tmp_path, "collide", "(0.5*v0^2 - 0.5*q0^2)/2", (0.5, 0.9, 3)),
        # the same shape with other coefficients
        sweep_scenario(tmp_path, "other", "(0.7*v0^2 - 0.3*q0^2)/2", (0.5, 0.9, 3)),
    ]
    clear_caches()
    for path in paths:
        argv = ["sweep", "--scenario", str(path), "--output", str(tmp_path / "out")]
        assert cli.main(argv) == 0
    for path in paths:
        name = scenarios.load_scenario(path).name
        swept = (tmp_path / "out" / f"{name}_sweep.csv").read_bytes()
        assert swept.count(b",ok\n") >= 9
        assert swept == alone(path)


def test_a_sweep_emits_each_function_once(tmp_path, emissions):
    path = sweep_scenario(tmp_path, "sweep", "(1.2*v0^2 - 0.8*q0^2)/2", (0.2, 0.9, 5),
                          generator=("theta/2", ["q0/2"]))
    assert cli.main(["sweep", "--scenario", str(path)]) == 0
    by_source: dict[str, list[bool]] = {}
    for name, source, _, emitted in emissions:
        by_source.setdefault(source, []).append(emitted)
    # the loop, the charge evaluators and the action integrand are each
    # emitted at the first alpha and taken from the shape cache after it
    assert [name for name, *_ in emissions].count("loop") == 5
    assert len(by_source) == len(emissions) / 5 >= 4
    assert all(flags == [True] + [False] * 4 for flags in by_source.values())


def case_id(case):
    (text, _), generator, charges = case
    return f"{text}|{generator}|{'+'.join(charges)}"


CASES = [
    ((text, n), g, charges)
    for text, n in _CORPUS_LAGRANGIANS
    for g in range(4)
    for charges in (("noether",), ("noether", "energy", "momentum"))
]


@pytest.mark.parametrize("case", CASES, ids=map(case_id, CASES))
def test_later_alphas_rebind_only_the_named_values(tmp_path, emissions, case):
    (text, n), g, charges = case
    gen = _corpus_generators(n)[g]
    path = sweep_scenario(tmp_path, "corpus", text, (0.3, 0.7, 2), n=n, charges=charges,
                          generator=(str(gen.tau), [str(x) for x in gen.xi]), steps=20)
    scenario = scenarios.load_scenario(path)
    first, second = scenario.alphas()
    cli._sweep_rows(scenario, first)
    # linsolve.solve's own function, for the constant-mass check of a
    # 2-dof problem, is built once per process
    earlier = [call for call in emissions if call[0] != "solved"]
    assert len(earlier) >= 2 and all(emitted for *_, emitted in earlier)
    count = len(emissions)
    cli._sweep_rows(scenario, second)
    later = emissions[count:]
    # the second alpha emits nothing, and its functions bind the first
    # alpha's constants but for the named values
    assert len(later) == len(earlier) and not any(emitted for *_, emitted in later)
    for (name, source, constants, _), (name2, source2, constants2, _) in zip(earlier, later):
        assert (name, source) == (name2, source2)
        assert constants.keys() == constants2.keys()
        for key in constants:
            if key in NAMED:
                assert constants[key] != constants2[key]
            else:
                assert repr(constants[key]) == repr(constants2[key])
        assert constants2.get("_one_minus_alpha", 1.0 - second) == 1.0 - second
        assert constants2.get("_alpha_minus_one", second - 1.0) == second - 1.0


def two_dof(mass=None):
    """A 2-dof ODE with a constant mass, optionally replaced by ``mass``."""
    prob = VariationalProblem(
        n=2, lagrangian=parse("(1.2*v0^2 + 0.8*v1^2)/2 + v0*v1/3 - 0.7*(q0 - q1)^2/2", 2),
        interval=(0.0, 1.0), frac=FractionalParams(alpha=0.6, observer_time=2.0),
    )
    ode = ExplicitOde(prob)
    if mass is not None:
        ode.mass = [[Const(x) for x in row] for row in mass]
        ode.constant_mass = mass
    return ode


def trajectory(ode) -> bytes:
    traj = ivp_solve(ode, 0.0, 1.0, [0.3, -0.1], [0.5, 0.2], 20)
    return traj.q.tobytes() + traj.v.tobytes()


def test_the_loop_key_reads_the_constant_mass():
    # the elimination of a constant mass pivots and divides on its values:
    # an ODE whose mass alone differs gets a loop of its own
    swapped = ((0.8, 1 / 3), (1 / 3, 1.2))
    clear_caches()
    first, second = trajectory(two_dof()), trajectory(two_dof(swapped))
    assert first != second
    clear_caches()
    assert trajectory(two_dof(swapped)) == second


def test_two_values_of_one_name_in_one_function():
    coefficients = [FractionalParams(alpha, 2.0).kernel_coefficient() for alpha in (0.3, 0.6)]
    clear_caches()
    f = compile_trees(coefficients)
    assert f(0.5, [0.0], [0.0]) == (0.7 / 1.5, 0.4 / 1.5)
    # one name with one value twice is one slot: another shape
    g = compile_trees([FractionalParams(0.6, 2.0).kernel_coefficient(), coefficients[1]])
    assert g(0.5, [0.0], [0.0]) == (0.4 / 1.5, 0.4 / 1.5)
    # the shape of f: a hit binds each value where the walk met it
    h = compile_trees(coefficients[::-1])
    assert h.__code__ is f.__code__
    assert h(0.5, [0.0], [0.0]) == (0.4 / 1.5, 0.7 / 1.5)


def test_a_named_denominator_is_checked_whatever_its_value():
    # no emission decision reads a named value: the zero test a plain
    # nonzero constant skips is written for a named one
    f = compile_trees(Div(Q(0), Const(Named(2.0, "_d"))))
    assert f(0.0, [3.0], [0.0]) == 1.5
    g = compile_trees(Div(Q(0), Const(Named(0.0, "_d"))))
    assert g.__code__ is f.__code__
    with pytest.raises(EvalDomainError, match="^division by zero$"):
        g(0.0, [3.0], [0.0])


def test_alpha_one_folds_the_drag_away_and_has_a_shape_of_its_own():
    shapes = {alpha: expressions._shape(FractionalParams(alpha, 2.0).weight())[0]
              for alpha in (0.4, 0.8, 1.0)}
    assert shapes[0.4] == shapes[0.8] != shapes[1.0]
    assert str(FractionalParams(1.0, 2.0).weight()) == "1"
    assert type(FractionalParams(1.0, 2.0).drag(Q(0))) is Const


def tuple_of(k):
    return compile_trees([Q(0)] * k)


def test_shape_cache_keeps_the_most_recent_shapes():
    clear_caches()
    limit = expressions._MAX_SHAPES
    for k in range(1, limit + 11):
        tuple_of(k)
    assert len(expressions._SHAPES) == limit
    keys = list(expressions._SHAPES)
    tuple_of(11)  # the oldest kept: used again, it moves last
    assert list(expressions._SHAPES) == keys[1:] + keys[:1]
    tuple_of(1)  # evicted: emitted again, and the oldest goes
    assert len(expressions._SHAPES) == limit and keys[1] not in expressions._SHAPES


def test_cache_entries_hold_no_tree():
    clear_caches()
    ode = two_dof()
    trajectory(ode)
    compile_trees(parse("ln(q0) + v0", 1))

    def leaves(x):
        if isinstance(x, (tuple, list)):
            for y in x:
                yield from leaves(y)
        elif isinstance(x, dict):
            yield from leaves(list(x.values()))
        else:
            yield x

    kinds = {type(x) for entry in expressions._SHAPES.values() for x in leaves(entry)}
    assert not any(issubclass(kind, (expressions.Expr, ExplicitOde)) for kind in kinds)


def test_a_sweep_parses_each_text_once(tmp_path, monkeypatch):
    parsed = []
    parse_text = scenarios.parse

    def counted(text, n=None):
        parsed.append(text)
        return parse_text(text, n)

    monkeypatch.setattr(scenarios, "parse", counted)
    counts = []
    for count in (2, 5):
        path = sweep_scenario(tmp_path, f"sweep{count}", "(v0^2 - q0^2)/2", (0.3, 0.9, count))
        parsed.clear()
        assert cli.main(["sweep", "--scenario", str(path)]) == 0
        counts.append(sorted(parsed))
    # validation parses each text once, and the build once for all alphas
    assert counts[0] == counts[1] == sorted(["(v0^2 - q0^2)/2", "1", "0"] * 2)


def test_the_cli_import_leaves_out_the_acceptance_corpus():
    src = str(Path(fracnoether.__file__).parents[1])
    code = "import sys, fracnoether.cli; print('fracnoether.acceptance' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout == "False\n"


def test_named_values_fold_like_floats():
    # the identities and the arithmetic of the folding constructors see the value
    x = Named(0.25, "_x")
    assert expressions.mul(Const(x), Const(4.0)).value == 1.0
    assert type(expressions.add(Const(x), Const(0.5)).value) is float
    assert expressions.power(Const(4.0), x).value == math.pow(4.0, 0.25)
