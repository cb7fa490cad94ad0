"""The linear solve in its two forms, bit for bit.

:func:`linsolve.emit_solve` writes the elimination of a matrix of names,
all of it run at run time; compiled here over one name per entry
(``emitted``), it is what a mass known only at run time runs inside the
RK4 loop.  :func:`linsolve.eliminated` eliminates a known matrix at
once: on floats it is :func:`linsolve.solve`, and as trees over the
right-hand side it is compiled here by ``compile_trees`` over one leaf
per entry.  All three must return the same floats (NaN as NaN, zeros
with their sign) for every system, and on a singular one raise the same
error, :func:`linsolve.eliminated` before anything is compiled.  The
float form is checked against the array elimination of
``elimination_oracle``, which shares no code with it: the same x on
finite systems, and a singular verdict, with its condition estimate,
exactly where the pivot rule trips.
"""

import functools
import math
import random

import pytest
from elimination_oracle import SingularPivot, array_elimination

from fracnoether import linsolve
from fracnoether.expressions import Add, Const, Div, Emitter, Mul, Q, Sub, compile_trees

SPECIAL = [0.0, -0.0, 1e-13, 1e300, -1e300, math.inf, -math.inf, math.nan]
ROUND = [1.0, -1.0, 2.0, 0.5, -3.0, 4.0]


def draw(rng, n):
    """Special values (about one a system), round ones that cancel
    exactly, and generic ones."""
    kind = rng.random() * n * (n + 1)
    if kind < 1.0:
        return rng.choice(SPECIAL[:-1]) if kind < 0.85 else math.nan
    if kind < 0.5 * n * (n + 1):
        return rng.choice(ROUND)
    return rng.uniform(-3.0, 3.0)


def outcome(fn, *args):
    """('ok', reprs of x) or ('raise', message, estimate) of a singular system."""
    try:
        return ("ok", [repr(value) for value in fn(*args)])
    except linsolve.SingularMatrixError as exc:
        return ("raise", str(exc), repr(exc.condition_estimate))


def oracle(a, b):
    """The array oracle's outcome, in the form :func:`brief` gives."""
    try:
        return ("ok", [repr(value) for value in array_elimination(a, b)])
    except SingularPivot as exc:
        return ("raise", repr(exc.condition_estimate))


def brief(result):
    """An outcome with a raise reduced to its condition estimate."""
    return result if result[0] == "ok" else ("raise", result[2])


@functools.cache
def solver(n):
    """``solved(a0_0, .., a{n-1}_{n-1}, b0, .., b{n-1}) -> x``: the
    elimination ``emit_solve`` writes for names, compiled."""
    em = Emitter()
    names = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    rhs = [f"b{i}" for i in range(n)]
    x = linsolve.emit_solve(em, names, rhs, "raise {}".format)
    params = ", ".join([name for row in names for name in row] + rhs)
    source = [f"def solved({params}):", *em.body("    "), f"    return [{', '.join(x)}]"]
    return em.define(source, "solved", _linsolve=linsolve)


def emitted(a, b):
    """x of ``a @ x = b``: the compiled ``emit_solve`` over one name per entry."""
    return solver(len(b))(*[value for row in a for value in row], *b)


def eliminated(a, b):
    """x of ``a @ x = b``: ``linsolve.eliminated`` over the leaves q0.., compiled."""
    return compile_trees(linsolve.eliminated(a, [Q(i) for i in range(len(b))]))(0.0, b, [])


@pytest.mark.parametrize("n", [2, 3])
def test_eliminated_matches_linsolve_bit_for_bit(n):
    rng = random.Random(20 + n)
    seen = {"singular": 0, "nan": 0, "finite": 0, "finite singular": 0}
    for _ in range(20_000):
        a = [[draw(rng, n) for _ in range(n)] for _ in range(n)]
        b = [draw(rng, n) for _ in range(n)]
        entries = [value for row in a for value in row]
        expected = outcome(linsolve.solve, a, b)
        seen["singular"] += expected[0] == "raise"
        seen["nan"] += expected == ("ok", ["nan"] * n)

        # every entry a name, and every entry known as trees, against floats
        assert outcome(emitted, a, b) == expected, (a, b)
        assert outcome(eliminated, a, b) == expected, (a, b)
        # every entry a name, against the oracle, on finite matrices
        if all(map(math.isfinite, entries)):
            seen["finite"] += 1
            seen["finite singular"] += expected[0] == "raise"
            assert brief(expected) == oracle(a, b), (a, b)
    # the draws reach the singular and the NaN branch often, but not mostly
    assert seen["singular"] > 1000 and seen["nan"] > 1000
    assert seen["singular"] + seen["nan"] < 10_000
    assert seen["finite"] > 10_000 and seen["finite singular"] > 500, seen


@pytest.mark.parametrize("n", [2, 3])
def test_eliminated_edge_systems(n):
    # matrices the random draws rarely give: all zero, subnormal (below
    # the 1e-300 floor of the threshold), all infinite, and one lone entry
    edges = [0.0, -0.0, 5e-324, math.inf, -math.inf]
    for value in edges:
        for a in ([[value] * n for _ in range(n)],
                  [[value if (i, j) == (n - 1, 0) else 0.0 for j in range(n)] for i in range(n)]):
            b = [1.0, -0.0, math.inf][:n]
            expected = outcome(linsolve.solve, a, b)
            assert outcome(emitted, a, b) == expected, a
            assert outcome(eliminated, a, b) == expected, a
            assert brief(expected) == oracle(a, b), a


def nodes(e) -> list:
    """The nodes of ``e`` in prefix order, each shared one once."""
    seen: dict[int, object] = {}

    def walk(node):
        if id(node) not in seen:
            seen[id(node)] = node
            for child in node.children():
                walk(child)

    walk(e)
    return list(seen.values())


def test_known_matrix_leaves_only_rhs_arithmetic():
    f0, f1 = Q(0), Q(1)
    x0, x1 = linsolve.eliminated([[0.25, 1.0], [1.0, 2.0]], [f0, f1])
    # the swap is a renaming and the factor 0.25 / 1.0 a constant: one raw
    # node per float operation on the right-hand side, none folded
    assert str(x1) == "(q0 - 0.25 * q1) / 0.5"
    assert str(x0) == f"(q1 - (0 + 2 * {x1})) / 1"
    assert x0.b.value == 1.0 and x0.a.b.a.value == 0.0 and x0.a.b.b.b is x1
    assert [type(e) for e in nodes(x0) if type(e) not in (Const, Q)] == [
        Div, Sub, Add, Mul, Div, Sub, Mul]
    assert compile_trees([x0, x1])(0.0, [1.0, 3.0], []) == tuple(
        linsolve.solve([[0.25, 1.0], [1.0, 2.0]], [1.0, 3.0]))


def test_known_singular_matrix_raises_at_elimination():
    with pytest.raises(linsolve.SingularMatrixError) as err:
        linsolve.eliminated([[1.0, 1.0], [1.0, 1.0]], [Q(0), Q(1)])
    assert str(err.value) == "singular system: pivot 0.000e+00 below 1.000e-12"
    assert err.value.condition_estimate == math.inf
    # the error the run-time elimination raises on the same system
    assert outcome(linsolve.solve, [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]) == (
        "raise", str(err.value), "inf")
