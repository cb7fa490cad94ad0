"""The shape cache in front of emission (``expressions.shaped``), and the
alpha-free trees a sweep's alphas share.

Every constant and exponent of a tree is a slot of its shape, one per
node, known only by whether it is zero, so trees that differ only in
coefficients share one emission.  Alpha enters the trees by two numbers
only, 1 - alpha and the weight's exponent alpha - 1.  Every tree without
them is derived once per Lagrangian and shared by every alpha
(``VariationalProblem.with_alpha``), so a later alpha defines only the
functions whose trees hold them, the step loop and the action integrand.
Their trees have the shape of the first alpha's, so they are not emitted
again: they bind their own values in every slot.  Each test here compares
against emissions from empty caches, so a key that misses an input, or a
hit that binds the wrong value, shows as different bytes.
"""

import functools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import fracnoether
from fracnoether import cli, expressions, fanout, integrators, scenarios
from fracnoether.acceptance import _CORPUS_GENERATORS, _CORPUS_LAGRANGIANS
from fracnoether.charges import (
    charge_expression,
    energy_correction_integrand,
    momentum_correction_integrand,
)
from fracnoether.cli import clear_caches
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
    Mul,
    Pow,
    Q,
    compile_trees,
    parse,
)
from fracnoether.integrators import Sample, ivp_solve
from fracnoether.records import replace

ROOT = Path(__file__).resolve().parents[1]


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


def alpha_values(alpha: float) -> tuple[float, float]:
    """The two numbers alpha enters the trees by: 1 - alpha and alpha - 1."""
    return 1.0 - alpha, alpha - 1.0


def holds_alpha(constants: dict, alpha: float) -> bool:
    return not set(alpha_values(alpha)).isdisjoint(constants.values())


def assert_rebinds_alpha_only(first: dict, later: dict, a: float, b: float) -> None:
    """``later``, the constants of a function defined at alpha ``b`` from the
    source ``first`` was emitted with at alpha ``a``, differ from ``first``
    only in slots that held 1 - alpha or alpha - 1, and hold them at ``b``."""
    assert later.keys() == first.keys()
    was, now = alpha_values(a), alpha_values(b)
    changed = [key for key, value in first.items() if repr(later[key]) != repr(value)]
    assert changed
    for key in changed:
        assert first[key] in was and later[key] == now[was.index(first[key])], key


def five_alpha_sweep(tmp_path):
    return sweep_scenario(tmp_path, "sweep", "(1.2*v0^2 - 0.8*q0^2)/2", (0.2, 0.9, 5),
                          generator=("theta/2", ["q0/2"]))


def test_a_sweep_emits_each_function_once(tmp_path, monkeypatch, emissions):
    # on one worker every alpha's function is defined in this process
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
    path = five_alpha_sweep(tmp_path)
    assert cli.main(["sweep", "--scenario", str(path)]) == 0
    alphas = list(scenarios.load_scenario(path).alphas())
    # the loop samples the charges and the action integrand, so it is the
    # only function: emitted at the first alpha, and defined again at each
    # later one, binding the first alpha's constants but for 1 - alpha and
    # alpha - 1.  At the first alpha, 0.2, 1 - alpha is 0.8, the
    # coefficient of q0^2, and the two are two slots all the same
    assert [name for name, *_ in emissions] == ["loop"] * 5
    assert [emitted for *_, emitted in emissions] == [True, False, False, False, False]
    (_, source, first, _), *later = emissions
    second = later[0][2]
    assert {second[k] for k, value in first.items() if value == 0.8} == {0.8, 1.0 - alphas[1]}
    for alpha, (_, source_later, constants, _) in zip(alphas[1:], later):
        assert source_later == source
        assert_rebinds_alpha_only(first, constants, alphas[0], alpha)


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
    # a constant mass is eliminated into the trees, so no linear solver is built
    earlier = list(emissions)
    assert len(earlier) >= 1 and all(emitted for *_, emitted in earlier)
    count = len(emissions)
    cli._sweep_rows(scenario, second)
    later = emissions[count:]
    # the second alpha emits nothing, and defines again only the functions
    # whose trees hold the values named by alpha, 1 - alpha and alpha - 1,
    # rebinding their slots and binding the first alpha's constants in
    # every other slot
    assert [(name, source) for name, source, constants, _ in earlier
            if holds_alpha(constants, first)] == [(name, source) for name, source, *_ in later]
    assert not any(emitted for *_, emitted in later)
    emitted_with = {source: constants for _, source, constants, _ in earlier}
    for _, source, constants, _ in later:
        assert_rebinds_alpha_only(emitted_with[source], constants, first, second)


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
    # a mass eliminated alike shares the loop and binds its own constants,
    # one that pivots elsewhere gets a loop of its own
    swapped, pivoting = ((0.8, 1 / 3), (1 / 3, 1.2)), ((0.2, 1 / 3), (1 / 3, 1.2))
    clear_caches()
    first = trajectory(two_dof())
    shapes = len(expressions._SHAPES)
    second = trajectory(two_dof(swapped))
    assert len(expressions._SHAPES) == shapes
    third = trajectory(two_dof(pivoting))
    assert len(expressions._SHAPES) > shapes
    assert len({first, second, third}) == 3
    for mass, expected in ((swapped, second), (pivoting, third)):
        clear_caches()
        assert trajectory(two_dof(mass)) == expected


def test_equal_values_are_two_slots_and_equal_subtrees_one_value():
    def scaled(*values):
        return compile_trees([Mul(Const(x), Q(0)) for x in values])

    clear_caches()
    f = scaled(0.7, 0.4)
    assert f(0.0, [1.5], [0.0]) == (0.7 * 1.5, 0.4 * 1.5)
    # the shape of f: a hit binds each value where the walk met it
    h = scaled(0.4, 0.7)
    assert h.__code__ is f.__code__
    assert h(0.0, [1.5], [0.0]) == (0.4 * 1.5, 0.7 * 1.5)
    # two equal products are one value, computed once: another shape
    g = scaled(0.4, 0.4)
    assert g.__code__ is not f.__code__
    assert g(0.0, [1.5], [0.0]) == (0.4 * 1.5, 0.4 * 1.5)
    # equal constants of two nodes, where nothing else is equal, are two
    # slots: the shape of unequal ones
    k = compile_trees([Const(0.7), Mul(Const(0.4), Q(0))])
    m = compile_trees([Const(0.4), Mul(Const(0.4), Q(0))])
    assert m.__code__ is k.__code__
    assert m(0.0, [1.5], [0.0]) == (0.4, 0.4 * 1.5)


def test_a_zero_denominator_is_checked_in_a_shape_of_its_own():
    # a nonzero constant denominator never trips the zero test, so none is
    # written; a zero, 0.0 or -0.0, has a shape of its own, with the test
    clear_caches()
    f = compile_trees(Div(Q(0), Const(2.0)))
    assert f(0.0, [3.0], [0.0]) == 1.5
    assert "division by zero" not in f.__code__.co_consts
    for zero in (0.0, -0.0):
        g = compile_trees(Div(Q(0), Const(zero)))
        assert g.__code__ is not f.__code__
        with pytest.raises(EvalDomainError, match="^division by zero$"):
            g(0.0, [3.0], [0.0])
    # every nonzero denominator, one too, has the shape of f
    for other in (4.0, 1.0):
        h = compile_trees(Div(Q(0), Const(other)))
        assert h.__code__ is f.__code__
        assert h(0.0, [3.0], [0.0]) == 3.0 / other


def test_alpha_one_folds_the_drag_away_and_has_a_shape_of_its_own():
    shapes = {alpha: expressions._shape(FractionalParams(alpha, 2.0).weight())[0]
              for alpha in (0.4, 0.8, 1.0)}
    assert shapes[0.4] == shapes[0.8] != shapes[1.0]
    assert str(FractionalParams(1.0, 2.0).weight()) == "1"
    assert type(FractionalParams(1.0, 2.0).drag(Q(0))) is Const


def test_a_tree_the_walk_did_not_number_is_not_emitted():
    # the emitter numbers nodes as the shape walk did, and no other way
    clear_caches()
    walked, other = parse("sin(q0)", 1), parse("sin(q0)", 1)
    with pytest.raises(KeyError):
        expressions.shaped(("trees",), walked, lambda em: em.function(em.emit(other)))


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


def package_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(fracnoether.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def imported_with_the_cli(*modules) -> list[bool]:
    """Whether each of ``modules`` is loaded by ``import fracnoether.cli`` in
    a fresh interpreter."""
    code = f"import sys, fracnoether.cli; print(*(m in sys.modules for m in {modules!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), check=True)
    return [word == "True" for word in proc.stdout.split()]


def test_the_cli_import_leaves_out_the_acceptance_corpus():
    assert imported_with_the_cli("fracnoether.acceptance") == [False]


def test_the_cli_import_leaves_out_the_fanout_and_pickle():
    # only the sweep command imports the fan-out, which never needs pickle
    assert imported_with_the_cli("fracnoether.fanout", "pickle") == [False, False]


# --------------------------------------------------------------------------
# A warm shape cache against empty ones, over drawn coefficients

DOUBLE_PENDULUM = ("v0^2 + v1^2/2 + v0*v1*cos(q0 - q1) + 2*cos(q0) + cos(q1)", 2)
# a pendulum whose potential is two terms: when their coefficients are
# equal, so are the two products and their derivatives, which emission
# computes once
SPLIT_PENDULUM = ("v0^2/2 + 2*cos(q0) + 3*cos(q0)", 1)
POOL = (0.0, -0.0, 1.0, math.nan, 0.5, 2.0, 1.3)


def with_constants(e, values):
    """``next(values)`` times ``e`` with each of its constants, in walk
    order, replaced by the next value, node for node: no constructor folds,
    so every draw of one Lagrangian starts from one shape."""
    memo = {}

    def rebuild(x):
        if id(x) not in memo:
            kind = type(x)
            if kind is Const:
                memo[id(x)] = Const(next(values))
            elif kind is Pow:
                memo[id(x)] = Pow(rebuild(x.base), x.exponent)
            else:
                memo[id(x)] = kind(*map(rebuild, x.children())) if x.children() else x
        return memo[id(x)]

    return Mul(Const(next(values)), rebuild(e))


def coefficient_draws(k: int, rng):
    """Draws of ``k`` coefficients: two of plain distinct values, then each
    coefficient in turn a zero of either sign, a one or NaN, then each equal
    to the one before it, then draws from ``POOL``."""
    plain = [1.25 + 0.5 * i for i in range(k)]
    yield plain
    yield [x + 0.125 for x in plain]
    for special in (0.0, -0.0, 1.0, math.nan):
        for j in range(k):
            yield plain[:j] + [special] + plain[j + 1:]
    for j in range(1, k):
        yield plain[:j] + [plain[j - 1]] + plain[j + 1:]
    for _ in range(3):
        yield [rng.choice(POOL) for _ in range(k)]


def flat(x) -> list:
    """The floats of a result: a float, nested sequences, or a trajectory."""
    if isinstance(x, float):
        return [x]
    if hasattr(x, "theta_grid"):
        x = [*x.q.columns, *x.v.columns, *x.channels.values(), *x.samples.values()]
    return [y for item in x for y in flat(item)]


def outcomes(lagrangian, n: int, alpha: float) -> list:
    """What the functions of a problem give: its trees through
    ``compile_trees``, its accelerations at three points, a solve with a
    channel and a sample, and the last row of a shoot's loop, each as the
    bytes of its floats or the error."""
    prob = VariationalProblem(n=n, lagrangian=lagrangian, interval=(0.0, 1.0),
                              frac=FractionalParams(alpha, 2.0))
    ode = ExplicitOde(prob)
    q0, v0 = [0.4, -0.2][:n], [0.5, 0.1][:n]
    sampled = ode.with_samples([Sample(prob.momentum[0], 0.5, "e")])
    runs = [
        lambda: compile_trees([prob.momentum, prob.energy, ode.net, ode.mass,
                               prob.action_integrand])(0.3, q0, v0),
        *(functools.partial(ode, theta, q0, v0) for theta in (0.0, 0.3, 1.0)),
        lambda: ivp_solve(sampled, 0.0, 1.0, q0, v0, 6, integrands={"e": prob.energy}),
        lambda: integrators._final_state(ode, 0.0, 1.0, q0, 6)(v0),
    ]
    out = []
    for run in runs:
        try:
            out.append(array("d", flat(run())).tobytes())
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def test_a_warm_shape_cache_defines_what_empty_caches_do(emissions):
    rng = random.Random(34)
    problems = []
    for text, n in [*_CORPUS_LAGRANGIANS, DOUBLE_PENDULUM, SPLIT_PENDULUM]:
        tree = parse(text, n)
        k = 1 + sum(type(x) is Const for x in expressions.walk(tree))
        for i, draw in enumerate(coefficient_draws(k, rng)):
            problems.append((with_constants(tree, iter(draw)), n, (0.5, 0.75, 1.0)[i % 3]))
    warm = []
    for problem in problems:
        start = len(emissions)
        warm.append((outcomes(*problem), emissions[start:]))
    hits = sum(not emitted for _, calls in warm for *_, emitted in calls)
    assert hits > len(problems), (hits, len(problems))
    for problem, (out, calls) in zip(problems, warm):
        clear_caches()
        start = len(emissions)
        assert outcomes(*problem) == out
        assert [call[:2] for call in emissions[start:]] == [call[:2] for call in calls]


def bvp_scenario(directory: Path, name: str, lagrangian: str) -> str:
    raw = {
        "name": name,
        "n": 1,
        "lagrangian": lagrangian,
        "alpha": 0.6,
        "observer_time": 2.0,
        "interval": [0.0, 1.0],
        "mode": {"type": "bvp", "qa": [0.0], "qb": [2.0]},
        "steps": 200,
        "generators": [{"tau": "1", "xi": ["0"], "gauge": "auto"}],
        "charges": ["noether", "energy"],
        "output_dir": "out",
    }
    (directory / f"{name}.json").write_text(json.dumps(raw))
    return f"{name}.json"


def test_a_family_shares_one_emission_across_commands(tmp_path, monkeypatch):
    # two pendulum boundary problems that differ only in coefficients
    first = bvp_scenario(tmp_path, "first", "1.3*v0^2/2 + 0.7*cos(q0)")
    second = bvp_scenario(tmp_path, "second", "1.1*v0^2/2 + 0.6*cos(q0)")
    emitted = []
    emit = integrators._emit_rk4_loop

    def counted(*args):
        emitted.append(args[-2])  # last_row
        return emit(*args)

    monkeypatch.setattr(integrators, "_emit_rk4_loop", counted)
    monkeypatch.chdir(tmp_path)
    clear_caches()
    assert cli.main(["charge", "--scenario", first, "--output", "warm"]) == 0
    assert sorted(emitted) == [False, True]  # the final solve and the Newton loop
    assert cli.main(["charge", "--scenario", second, "--output", "warm"]) == 0
    assert len(emitted) == 2
    code = "import sys; from fracnoether.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, "charge", "--scenario", second,
                    "--output", "fresh"], cwd=tmp_path, env=package_env(), check=True,
                   capture_output=True)
    written = sorted(path.name for path in (tmp_path / "fresh").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "warm").glob("second_*"))
    assert len(written) == 2
    for name in written:
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_call_per_stage_loops_share_one_emission(monkeypatch):
    # two plain right-hand sides of one n, called at every stage, with the
    # same tree integrand: one loop shape, each function calling its own
    energy = parse("v0^2/2 + q0^2/2", 1)

    def spring(theta, q, v):
        return [-q[0]]

    def damped(theta, q, v):
        return [-q[0] - 0.5 * v[0]]

    def solve(rhs) -> bytes:
        traj = ivp_solve(rhs, 0.0, 1.0, [0.4], [0.5], 20, integrands={"e": energy})
        return array("d", flat(traj)).tobytes()

    alone = []
    for rhs in (spring, damped):
        clear_caches()
        alone.append(solve(rhs))
    assert alone[0] != alone[1]
    emitted = []
    emit = integrators._emit_rk4_loop

    def counted(*args):
        emitted.append(args)
        return emit(*args)

    monkeypatch.setattr(integrators, "_emit_rk4_loop", counted)
    clear_caches()
    assert [solve(spring), solve(damped)] == alone
    assert len(emitted) == 1
