"""The emitted linear solve against :func:`linsolve.solve`, bit for bit.

:func:`linsolve.emit_solve` writes the elimination of :func:`linsolve.solve`
as straight-line statements, doing at compile time every operation whose
operands are known.  Compiled into a plain function, it must return the
same floats (NaN as NaN, zeros with their sign) for every system, and on a
singular one raise what ``ExplicitOde.__call__`` raises around ``solve``.
"""

import functools
import math
import random

import pytest

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
    """``linsolve.solve`` wrapped as the call-per-stage right-hand side wraps it."""
    try:
        return linsolve.solve(matrix, rhs)
    except linsolve.SingularMatrixError as exc:
        raise SingularHessianError(THETA, exc.condition_estimate) from exc


def emitted(matrix, n):
    """Compile the emitted solve; ``matrix`` holds floats (known) or None
    (an argument).  Returns ``solved(*unknown entries, *rhs) -> x``."""
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


# Which entries (i, j) are known; the rest are names.  Known pivots with
# run-time rows below them, run-time pivots over known rows, and both.
MASKS = [
    lambda n: [[True] * n for _ in range(n)],
    lambda n: [[i == j for j in range(n)] for i in range(n)],
    lambda n: [[i != j for j in range(n)] for i in range(n)],
    lambda n: [[(i + j) % 2 == 0 for j in range(n)] for i in range(n)],
    lambda n: [[j == 0 for j in range(n)] for i in range(n)],
    lambda n: [[i > 0 for j in range(n)] for i in range(n)],
]


@pytest.mark.parametrize("n", [2, 3])
def test_emitted_solve_matches_linsolve_bit_for_bit(n, monkeypatch):
    # Folding makes the source depend on the known values only through
    # the branches taken and the constants' names, so sources repeat.
    monkeypatch.setattr(expressions, "compile", functools.lru_cache(maxsize=None)(compile),
                        raising=False)
    rng = random.Random(20 + n)
    all_names = emitted([[None] * n for _ in range(n)], n)
    seen = {"singular": 0, "nan": 0}
    for count in range(20_000):
        a = [[draw(rng, n) for _ in range(n)] for _ in range(n)]
        b = [draw(rng, n) for _ in range(n)]
        expected = outcome(reference, a, b)
        seen["singular"] += expected[0] == "raise"
        seen["nan"] += expected == ("ok", ["nan"] * n)

        # every system with every entry a name, and in turn with every
        # entry known or with one of the mixed patterns known
        assert outcome(all_names, *(value for row in a for value in row), *b) == expected, (a, b)
        mask = MASKS[count % len(MASKS)](n)
        partial = [[value if keep else None for value, keep in zip(row, keeps)]
                   for row, keeps in zip(a, mask)]
        unknown = [value for row, keeps in zip(a, mask)
                   for value, keep in zip(row, keeps) if not keep]
        assert outcome(emitted(partial, n), *unknown, *b) == expected, (a, b, mask)
    # the draws reach the singular and the NaN branch often, but not mostly
    assert seen["singular"] > 1000 and seen["nan"] > 1000
    assert seen["singular"] + seen["nan"] < 10_000


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
            for mask in MASKS:
                keep = mask(n)
                partial = [[v if k else None for v, k in zip(row, ks)] for row, ks in zip(a, keep)]
                unknown = [v for row, ks in zip(a, keep) for v, k in zip(row, ks) if not k]
                assert outcome(emitted(partial, n), *unknown, *b) == expected, (a, keep)


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
