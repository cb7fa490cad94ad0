"""The emitted linear solve, bit for bit.

:func:`linsolve.emit_solve` writes the elimination as straight-line
statements, all of it for a matrix of names and only the right-hand side
arithmetic for a known matrix.  :func:`linsolve.solve` runs the first
shape, so the second must return the same floats (NaN as NaN, zeros with
their sign) for every system, and on a singular one raise the same
error, wrapped as ``ExplicitOde`` wraps it.  The names shape itself is
checked against the array elimination of ``elimination_oracle``, which
shares no code with it: the same x on finite systems, and a singular
verdict, with its condition estimate, exactly where the pivot rule trips.
"""

import functools
import math
import random

import pytest
from elimination_oracle import SingularPivot, array_elimination

from fracnoether import expressions, linsolve
from fracnoether.euler_lagrange import SingularHessianError
from fracnoether.expressions import Emitter

THETA = 0.25
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
    """('ok', reprs of x) or ('raise', class, message, estimate, cause class, cause message)."""
    try:
        return ("ok", [repr(value) for value in fn(*args)])
    except SingularHessianError as exc:
        cause = exc.__cause__
        return ("raise", type(exc), str(exc), repr(exc.condition_estimate),
                type(cause), str(cause))


def reference(matrix, rhs):
    """``linsolve.solve`` wrapped as ``ExplicitOde`` wraps a singular mass."""
    try:
        return linsolve.solve(matrix, rhs)
    except linsolve.SingularMatrixError as exc:
        raise SingularHessianError(THETA, exc.condition_estimate) from exc


def oracle(a, b):
    """The array oracle's outcome, in the form :func:`brief` gives."""
    try:
        return ("ok", [repr(value) for value in array_elimination(a, b)])
    except SingularPivot as exc:
        return ("raise", repr(exc.condition_estimate))


def brief(result):
    """An outcome with a raise reduced to its condition estimate."""
    return result if result[0] == "ok" else ("raise", result[3])


def emitted(matrix, n):
    """Compile the emitted solve; ``matrix`` holds floats only (known) or
    None only (arguments).  Returns ``solved(*unknown entries, *rhs) -> x``."""
    names = [[None if value is not None else f"a{i}_{j}" for j, value in enumerate(row)]
             for i, row in enumerate(matrix)]
    entries = [[value if value is not None else name for value, name in zip(row, row_names)]
               for row, row_names in zip(matrix, names)]
    params = [name for row in names for name in row if name] + [f"b{i}" for i in range(n)]
    em = Emitter()
    x = linsolve.emit_solve(
        em, entries, [f"b{i}" for i in range(n)],
        lambda exc: f"raise _SingularHessianError({THETA!r}, {exc}.condition_estimate) from {exc}",
    )
    source = [f"def solved({', '.join(params)}):", *em.body("    "), f"    return [{', '.join(x)}]"]
    return em.define(source, "solved", _linsolve=linsolve, _SingularHessianError=SingularHessianError)


@pytest.mark.parametrize("n", [2, 3])
def test_emitted_solve_matches_linsolve_bit_for_bit(n, monkeypatch):
    # Eliminating a known matrix makes the source depend on its values
    # only through the branches taken and the constants' names, so
    # sources repeat.
    monkeypatch.setattr(expressions, "compile", functools.lru_cache(maxsize=None)(compile),
                        raising=False)
    rng = random.Random(20 + n)
    all_names = emitted([[None] * n for _ in range(n)], n)
    seen = {"singular": 0, "nan": 0, "finite": 0, "finite singular": 0}
    for _ in range(20_000):
        a = [[draw(rng, n) for _ in range(n)] for _ in range(n)]
        b = [draw(rng, n) for _ in range(n)]
        entries = [value for row in a for value in row]
        expected = outcome(reference, a, b)
        seen["singular"] += expected[0] == "raise"
        seen["nan"] += expected == ("ok", ["nan"] * n)

        # every entry known, against every entry a name (linsolve.solve)
        assert outcome(emitted(a, n), *b) == expected, (a, b)
        # every entry a name, against the oracle, on finite matrices
        if all(map(math.isfinite, entries)):
            seen["finite"] += 1
            seen["finite singular"] += expected[0] == "raise"
            assert brief(outcome(all_names, *entries, *b)) == oracle(a, b), (a, b)
    # the draws reach the singular and the NaN branch often, but not mostly
    assert seen["singular"] > 1000 and seen["nan"] > 1000
    assert seen["singular"] + seen["nan"] < 10_000
    assert seen["finite"] > 10_000 and seen["finite singular"] > 500, seen


@pytest.mark.parametrize("n", [2, 3])
def test_emitted_solve_edge_systems(n):
    # matrices the random draws rarely give: all zero, subnormal (below
    # the 1e-300 floor of the threshold), all infinite, and one lone entry
    edges = [0.0, -0.0, 5e-324, math.inf, -math.inf]
    for value in edges:
        for a in ([[value] * n for _ in range(n)],
                  [[value if (i, j) == (n - 1, 0) else 0.0 for j in range(n)] for i in range(n)]):
            b = [1.0, -0.0, math.inf][:n]
            expected = outcome(reference, a, b)
            assert outcome(emitted(a, n), *b) == expected, a
            assert brief(expected) == oracle(a, b), a


def test_known_matrix_leaves_only_rhs_arithmetic():
    em = Emitter()
    x = linsolve.emit_solve(em, [[0.25, 1.0], [1.0, 2.0]], ["f0", "f1"], "raise {}".format)
    body = em.body("")
    # the swap is a renaming and the factor 0.25 / 1.0 a constant
    assert len(body) == 3 and not any("abs(" in line or "if " in line for line in body)
    fn = em.define(["def solved(f0, f1):", *em.body("    "), f"    return [{', '.join(x)}]"],
                   "solved")
    assert fn(1.0, 3.0) == linsolve.solve([[0.25, 1.0], [1.0, 2.0]], [1.0, 3.0])


def test_known_singular_matrix_raises_when_run_not_when_emitted():
    em = Emitter()
    x = linsolve.emit_solve(em, [[1.0, 1.0], [1.0, 1.0]], ["f0", "f1"], "raise {}".format)
    fn = em.define(["def solved(f0, f1):", *em.body("    "), f"    return [{', '.join(x)}]"],
                   "solved", _linsolve=linsolve)
    with pytest.raises(linsolve.SingularMatrixError) as err:
        fn(1.0, 2.0)
    assert str(err.value) == "singular system: pivot 0.000e+00 below 1.000e-12"
    assert err.value.condition_estimate == math.inf
