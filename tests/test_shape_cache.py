"""The shape cache in front of emission (``expressions.shaped``), and the
alpha-free trees a sweep's alphas share.

Alpha enters the trees by two numbers only, 1 - alpha and the weight's
exponent alpha - 1, which are :class:`Named` values.  Every tree
without them is derived once per Lagrangian and shared by every alpha
(``VariationalProblem.with_alpha``), so a later alpha defines only the
functions whose trees hold a named value, the step loop and the action
integrand.  Their trees have the shape of the first alpha's, so they
are not emitted again: they bind the earlier constants and their own
named values.  Each test here compares against emissions from empty
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
from fracnoether import cli, expressions, fanout, linsolve, scenarios
from fracnoether.acceptance import _CORPUS_GENERATORS, _CORPUS_LAGRANGIANS
from fracnoether.charges import (
    charge_expression,
    energy_correction_integrand,
    momentum_correction_integrand,
)
from fracnoether.euler_lagrange import (
    ExplicitOde,
    FractionalParams,
    VariationalProblem,
    to_explicit_ode,
)
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
from fracnoether.records import replace

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

    def recording_body(self, indent, *marks):
        self.recorded_body = True
        return body(self, indent, *marks)

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


def holds_named(constants) -> bool:
    return not NAMED.isdisjoint(constants)


def five_alpha_sweep(tmp_path):
    return sweep_scenario(tmp_path, "sweep", "(1.2*v0^2 - 0.8*q0^2)/2", (0.2, 0.9, 5),
                          generator=("theta/2", ["q0/2"]))


def test_a_sweep_emits_each_function_once(tmp_path, monkeypatch, emissions):
    # on one worker every alpha's function is defined in this process
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
    assert cli.main(["sweep", "--scenario", str(five_alpha_sweep(tmp_path))]) == 0
    by_source: dict[str, list] = {}
    for name, source, constants, emitted in emissions:
        by_source.setdefault(source, []).append((name, constants, emitted))
    # the loop samples the charges and the action integrand, so it is the
    # only function: emitted at the first alpha, and defined again at each
    # later one, binding the first alpha's constants but for the named values
    assert [name for name, *_ in emissions] == ["loop"] * 5
    ((name, first, emitted), *later), = by_source.values()
    assert len(later) == 4 and emitted and holds_named(first)
    for _, constants, emitted_later in later:
        assert not emitted_later and constants.keys() == first.keys()
        assert all(repr(first[k]) == repr(constants[k]) for k in first.keys() - NAMED)
        assert all(first[k] != constants[k] for k in first.keys() & NAMED)


def test_the_own_share_of_a_two_worker_sweep_emits_once(tmp_path, monkeypatch, emissions):
    # this process runs alphas 0, 2 and 4 of the five, a child the others
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
    assert cli.main(["sweep", "--scenario", str(five_alpha_sweep(tmp_path))]) == 0
    assert [name for name, *_ in emissions] == ["loop"] * 3
    assert [emitted for *_, emitted in emissions] == [True, False, False]
    assert len({source for _, source, *_ in emissions}) == 1


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
    gen = _CORPUS_GENERATORS[n][g]
    path = sweep_scenario(tmp_path, "corpus", text, (0.3, 0.7, 2), n=n, charges=charges,
                          generator=(gen["tau"], gen["xi"]), steps=20)
    scenario = scenarios.load_scenario(path)
    first, second = scenario.alphas()
    cli._sweep_rows(scenario, first)
    # linsolve.solve's own function, for the constant-mass check of a
    # 2-dof problem, is built once per process
    earlier = [call for call in emissions if call[0] != "solved"]
    assert len(earlier) >= 1 and all(emitted for *_, emitted in earlier)
    count = len(emissions)
    cli._sweep_rows(scenario, second)
    later = emissions[count:]
    # the second alpha emits nothing, and defines again only the functions
    # whose trees hold a named value, binding the first alpha's constants
    # but for the named values
    assert [(name, source) for name, source, constants, _ in earlier if holds_named(constants)] \
        == [(name, source) for name, source, *_ in later]
    assert not any(emitted for *_, emitted in later)
    first = {source: constants for _, source, constants, _ in earlier}
    for _, source, constants2, _ in later:
        constants = first[source]
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


def trajectory(ode) -> str:
    traj = ivp_solve(ode, 0.0, 1.0, [0.3, -0.1], [0.5, 0.2], 20)
    return repr(traj.q) + repr(traj.v)


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
    # validation parses each text once, and every alpha builds on its trees
    assert counts[0] == counts[1] == sorted(["(v0^2 - q0^2)/2", "1", "0"])


def test_sweeps_of_two_and_six_alphas_derive_alike(tmp_path, monkeypatch):
    calls = []
    differentiate = expressions.Expr.diff

    def counted(self, var):
        calls.append(var)
        return differentiate(self, var)

    monkeypatch.setattr(expressions.Expr, "diff", counted)
    counts = []
    for count in (2, 6):
        path = sweep_scenario(tmp_path, f"sweep{count}", "(1.2*v0^2 - 0.8*q0^2)/2",
                              (0.3, 0.9, count), generator=("theta/2", ["q0/2"]))
        calls.clear()
        assert cli.main(["sweep", "--scenario", str(path)]) == 0
        counts.append(len(calls))
    # the alpha-free trees are derived at the first alpha, for all of them
    assert counts[0] == counts[1] > 0


def test_a_later_alpha_shares_the_alpha_free_trees(tmp_path):
    path = sweep_scenario(tmp_path, "shared", "(1.2*v0^2 - 0.8*q0^2)/2", (0.3, 0.9, 2),
                          generator=("theta/2", ["q0/2"]))
    scenario = scenarios.load_scenario(path)
    built = []
    for alpha in scenario.alphas():
        prob = scenarios.build_problem(scenario, alpha)
        (gen,) = scenarios.build_generators(scenario, prob)
        built.append((prob, gen, to_explicit_ode(prob)))
    (one, gen1, ode1), (two, gen2, ode2) = built
    assert (one.frac.alpha, two.frac.alpha) == (0.3, 0.9)
    assert two.momentum is one.momentum and two.energy is one.energy
    assert ode2.force is ode1.force and ode2.mass is ode1.mass
    assert charge_expression(two, gen2) is charge_expression(one, gen1)
    assert energy_correction_integrand(two) is energy_correction_integrand(one)
    assert momentum_correction_integrand(two, 0) is momentum_correction_integrand(one, 0)
    # each alpha builds its own drag: the net force and the gauge rate,
    # whose part without the drag term is shared
    assert ode2.net[0] is not ode1.net[0] and ode2.net[0].a is ode1.net[0].a
    assert gen2.gauge_rate is not gen1.gauge_rate
    assert gen2.gauge_rate.a is gen1.gauge_rate.a
    # a problem made another way shares nothing
    other = replace(two, frac=FractionalParams(0.9, 3.0))
    assert other.momentum is not one.momentum
    assert charge_expression(other, gen2) is not charge_expression(one, gen1)


def imported_with_the_cli(*modules) -> list[bool]:
    """Whether each of ``modules`` is loaded by ``import fracnoether.cli`` in
    a fresh interpreter."""
    src = str(Path(fracnoether.__file__).parents[1])
    code = f"import sys, fracnoether.cli; print(*(m in sys.modules for m in {modules!r}))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    return [word == "True" for word in proc.stdout.split()]


def test_the_cli_import_leaves_out_the_acceptance_corpus():
    assert imported_with_the_cli("fracnoether.acceptance") == [False]


def test_the_cli_import_leaves_out_the_fanout_and_pickle():
    # only the sweep command imports the fan-out, which never needs pickle
    assert imported_with_the_cli("fracnoether.fanout", "pickle") == [False, False]


def test_named_values_fold_like_floats():
    # the identities and the arithmetic of the folding constructors see the value
    x = Named(0.25, "_x")
    assert expressions.mul(Const(x), Const(4.0)).value == 1.0
    assert type(expressions.add(Const(x), Const(0.5)).value) is float
    assert expressions.power(Const(4.0), x).value == math.pow(4.0, 0.25)
