"""What every record and expression node guarantees: frozen records refuse
assignment, show ``Name(field=value, ...)``, compare and hash by their
compared fields, build each default-factory value anew, and ``replace``
rebuilds a record through its constructor; nodes are immutable, slotted
and compared by identity."""

import pytest

from fracnoether import expressions
from fracnoether.acceptance import CriterionResult
from fracnoether.action import StationarityReport
from fracnoether.charges import ChargeSeries, SymmetryGenerator
from fracnoether.euler_lagrange import BoundaryConditions, FractionalParams, VariationalProblem
from fracnoether.expressions import (
    Add, Const, Cos, Div, Exp, Ln, Mul, Neg, Pow, Q, Sin, Sqrt, Sub, Theta, V, parse,
)
from fracnoether.integrators import (
    ConvergenceReport, ExactSolution, Sample, ShootingReport, Trajectory,
)
from fracnoether.records import replace
from fracnoether.scenarios import AlphaSweep, GeneratorSpec, scenario_from_dict

L, TAU, ONE = parse("v0^2/2", 1), Const(0.0), Const(1.0)


def exact_q(theta):
    return (theta,)


def exact_v(theta):
    return (1.0,)


def scenario(steps):
    return scenario_from_dict({
        "name": "pin", "n": 1, "lagrangian": "v0^2/2", "alpha": 0.5, "observer_time": 2.0,
        "interval": [0.0, 1.0], "mode": {"type": "ivp", "q0": [0.0], "v0": [1.0]},
        "steps": steps, "generators": [{"tau": "0", "xi": ["1"], "gauge": "auto"}],
        "charges": ["noether"], "output_dir": "out",
    })


def problem(alpha):
    return VariationalProblem(n=1, lagrangian=L, interval=(0, 1),
                              frac=FractionalParams(alpha, 2.0))


def trajectory(top):
    return Trajectory((0.0, 1.0), [(0.0,), (top,)], [(1.0,), (1.0,)], {})


# (name, make(x), x, another x, the repr of make(x)): make builds a record
# whose fields differ only where x enters
RECORDS = [
    ("AlphaSweep", lambda x: AlphaSweep(0.1, x, 3), 0.9, 0.8,
     "AlphaSweep(start=0.1, stop=0.9, count=3)"),
    ("GeneratorSpec", lambda x: GeneratorSpec("0", (x,), "auto"), "1", "2",
     "GeneratorSpec(tau='0', xi=('1',), gauge='auto')"),
    ("Scenario", scenario, 10, 20,
     "Scenario(name='pin', n=1, lagrangian='v0^2/2', alpha=0.5, observer_time=2.0, "
     "interval=(0.0, 1.0), mode='ivp', q0=(0.0,), v0=(1.0,), qa=None, qb=None, steps=10, "
     "generators=(GeneratorSpec(tau='0', xi=('1',), gauge='auto'),), charges=('noether',), "
     "output_dir='out')"),
    ("FractionalParams", lambda x: FractionalParams(x, 2.0), 0.5, 0.25,
     "FractionalParams(alpha=0.5, observer_time=2.0)"),
    ("BoundaryConditions", lambda x: BoundaryConditions([0], [x]), 1, 2,
     "BoundaryConditions(q_a=(0.0,), q_b=(1.0,))"),
    ("VariationalProblem", problem, 0.5, 0.25,
     "VariationalProblem(n=1, lagrangian=<Expr v0 * v0 / 2>, interval=(0.0, 1.0), "
     "frac=FractionalParams(alpha=0.5, observer_time=2.0), boundary=None)"),
    ("SymmetryGenerator", lambda x: SymmetryGenerator(TAU, [x]), ONE, Const(1.0),
     "SymmetryGenerator(tau=<Expr 0>, xi=(<Expr 1>,), gauge_rate=None)"),
    ("ChargeSeries", lambda x: ChargeSeries((0.0, 1.0), (1.0, 1.0), x, 0.0), 0.0, 0.5,
     "ChargeSeries(theta_grid=(0.0, 1.0), values=(1.0, 1.0), drift=0.0, relative_drift=0.0)"),
    ("StationarityReport", lambda x: StationarityReport(1.0, x, 0.0, (1e-3,), (1e-6,)), None, 2.0,
     "StationarityReport(base_action=1.0, fitted_exponent=None, first_order_coefficient=0.0, "
     "epsilons=(0.001,), deltas=(1e-06,))"),
    ("CriterionResult", lambda x: CriterionResult("c", x, "d"), True, False,
     "CriterionResult(name='c', passed=True, detail='d')"),
    ("Sample", lambda x: Sample(L, x, "c"), 0.5, -0.5,
     "Sample(tree=<Expr v0 * v0 / 2>, weight=0.5, channel='c')"),
    ("Trajectory", trajectory, 1.0, 2.0,
     "Trajectory(theta_grid=(0.0, 1.0), q=((0.0,), (1.0,)), v=((1.0,), (1.0,)), "
     "channels={}, samples={})"),
    ("ShootingReport", lambda x: ShootingReport(x, 3, (0.0,), (1.0,)), True, False,
     "ShootingReport(converged=True, iterations=3, boundary_miss=(0.0,), "
     "initial_velocity=(1.0,))"),
    ("ExactSolution", lambda x: ExactSolution(exact_q, x), exact_v, exact_q,
     f"ExactSolution(q={exact_q!r}, v={exact_v!r})"),
    ("ConvergenceReport", lambda x: ConvergenceReport((10, 20), (1e-3, 1e-4), x, False), 2.0,
     None, "ConvergenceReport(step_counts=(10, 20), errors=(0.001, 0.0001), slope=2.0, "
     "indeterminate=False)"),
]
UNHASHABLE = {"Trajectory"}  # its channels are a dict


@pytest.mark.parametrize("name, make, x, other, text", RECORDS, ids=[r[0] for r in RECORDS])
def test_records_show_compare_and_hash_by_their_fields(name, make, x, other, text):
    record = make(x)
    assert type(record).__name__ == name
    assert repr(record) == text
    assert record == make(x) and not record != make(x)
    assert record != make(other)
    assert record != (x,) and (record == object()) is False
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(make(x))


@pytest.mark.parametrize("name, make, x, other, text", RECORDS, ids=[r[0] for r in RECORDS])
def test_frozen_records_refuse_assignment(name, make, x, other, text):
    record = make(x)
    field = text[len(name) + 1:].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(make(other), field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert record == make(x)


def test_fields_left_out_of_the_comparison_do_not_change_it():
    one = scenario(10)
    other = replace(one, lagrangian_tree=parse("v0^2", 1), parsed_generators=())
    assert other == one and hash(other) == hash(one)
    assert other.lagrangian_tree is not one.lagrangian_tree
    assert "lagrangian_tree" not in repr(one) and "parsed_generators" not in repr(one)
    prob = problem(0.5)
    prob.momentum  # fills the alpha-free store of one of them only
    assert prob._alpha_free and not problem(0.5)._alpha_free
    assert prob == problem(0.5) and hash(prob) == hash(problem(0.5))


def test_each_record_gets_its_own_default_dict():
    one, two = problem(0.5), problem(0.5)
    assert one._alpha_free == {} and one._alpha_free is not two._alpha_free
    a, b = trajectory(1.0), trajectory(1.0)
    assert a.samples == {} and a.samples is not b.samples
    assert Sample(L).weight == 0.0 and Sample(L).channel is None
    assert problem(0.5).boundary is None
    with pytest.raises(TypeError):
        VariationalProblem(1, L, (0, 1), FractionalParams(0.5, 2.0), None, {})
    with pytest.raises(TypeError):
        StationarityReport(1.0)


def test_replace_rebuilds_through_the_constructor():
    prob = problem(0.5)
    prob.momentum
    moved = replace(prob, frac=FractionalParams(0.25, 2.0))
    assert moved.frac.alpha == 0.25 and moved.lagrangian is prob.lagrangian
    assert moved._alpha_free == {} and moved._alpha_free is not prob._alpha_free
    assert replace(prob) == prob and replace(prob) is not prob
    assert replace(prob, interval=[0, 1.5]).interval == (0.0, 1.5)  # __post_init__ ran
    with pytest.raises(ValueError, match="interval must satisfy"):
        replace(prob, interval=(1.0, 0.0))
    with pytest.raises(ValueError, match="observer time"):
        replace(prob, frac=FractionalParams(0.5, 0.5))
    with pytest.raises(ValueError, match="alpha"):
        replace(FractionalParams(0.5, 2.0), alpha=1.5)
    with pytest.raises(ValueError, match="equal length"):
        replace(BoundaryConditions([0], [1]), q_b=(1.0, 2.0))
    with pytest.raises(ValueError, match="start at zero"):
        replace(trajectory(1.0), channels={"c": (1.0, 2.0)})
    assert replace(scenario(10), steps=20) == scenario(20)
    assert replace(scenario(10), steps=20).parsed_generators


def test_with_alpha_shares_the_alpha_free_store_only():
    prob = problem(0.5)
    prob.momentum
    other = prob.with_alpha(0.25)
    assert other._alpha_free is prob._alpha_free and other.momentum is prob.momentum
    assert other.frac == FractionalParams(0.25, 2.0) and other.action_integrand is not \
        prob.action_integrand


NODES = [Const(1.0), Theta(), Q(0), V(1), Neg(Q(0)), Sin(Q(0)), Cos(Q(0)), Exp(Q(0)),
         Ln(Q(0)), Sqrt(Q(0)), Pow(Q(0), 2.5), Add(Q(0), V(0)), Sub(Q(0), V(0)),
         Mul(Q(0), V(0)), Div(Q(0), V(0))]


@pytest.mark.parametrize("node", NODES, ids=[type(e).__name__ for e in NODES])
def test_nodes_are_immutable_slotted_and_compared_by_identity(node):
    assert not hasattr(node, "__dict__")
    fields = [f for f in ("value", "index", "arg", "base", "exponent", "a", "b")
              if hasattr(node, f)]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(node, name, Q(1))
        with pytest.raises(AttributeError):
            delattr(node, name)
    twin = type(node)(*[getattr(node, f) for f in fields])
    assert str(twin) == str(node)
    assert node == node and twin != node and len({node, twin}) == 2
    assert hash(node) == object.__hash__(node)


def test_the_node_set_is_the_module_one_and_evaluation_still_caches():
    assert {type(e) for e in NODES} == {
        cls for cls in vars(expressions).values()
        if isinstance(cls, type) and issubclass(cls, expressions.Expr)
        and cls is not expressions.Expr and not cls.__name__.startswith("_")}
    e = Add(Q(0), V(0))
    assert e.evaluate is e.evaluate and e.evaluate(0.0, [1.0], [2.0]) == 3.0
