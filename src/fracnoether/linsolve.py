"""Dense linear solves for the small systems this package needs.

Gaussian elimination with partial pivoting, sized for mechanical systems
with a handful of degrees of freedom.  A pivot falling below
``PIVOT_RTOL`` times the matrix magnitude is treated as singular; an
exactly zero pivot reports an infinite condition estimate.

The algorithm is spelled once, in :func:`emit_solve`, which writes it as
straight-line statements into an expression
:class:`~fracnoether.expressions.Emitter`.  A constant matrix is
eliminated at compile time, leaving only the arithmetic on the right-hand
side; any other is eliminated in full at run time.  The accelerations of
``ExplicitOde`` (called, or written into the compiled RK4 loop of
:mod:`fracnoether.integrators`) are solved with it, and so is
:func:`solve`, the plain function for the singular check of a constant
mass matrix in ``to_explicit_ode`` and the shooting Jacobian.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

from .expressions import Emitter

PIVOT_RTOL = 1e-12


class SingularMatrixError(ArithmeticError):
    """Pivot below the relative threshold; carries a condition estimate."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


def singular_error(pivot: float, threshold: float, scale: float, largest: float):
    """The error for a pivot of magnitude ``largest`` below ``threshold``."""
    return SingularMatrixError(
        f"singular system: pivot {pivot:.3e} below {threshold:.3e}",
        condition_estimate=scale / largest if largest else math.inf,
    )


def solve(matrix, rhs) -> list[float]:
    """Solve ``matrix @ x = rhs`` by partial-pivoting elimination.

    Runs :func:`emit_solve` over a matrix of names, compiled once per
    size.  The pivot is the first entry of largest magnitude in its
    column.  A NaN entry leaves nothing to judge pivots against, so the
    solution is all NaN.
    """
    a = [list(map(float, row)) for row in matrix]
    b = list(map(float, rhs))
    n = len(a)
    entries = [x for row in a for x in row]
    if len(b) != n or any(len(row) != n for row in a):
        raise ValueError(f"shape mismatch: {n}-row matrix of {len(entries)} entries, rhs {len(b)}")
    return _solver(n)(*entries, *b) if n else []


@functools.cache
def _solver(n: int) -> Callable[..., list[float]]:
    """``solved(a0_0, .., a{n-1}_{n-1}, b0, .., b{n-1}) -> x``, compiled."""
    em = Emitter()
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    x = emit_solve(em, a, b, "raise {}".format)
    params = ", ".join([name for row in a for name in row] + b)
    source = [f"def solved({params}):", *em.body("    "), f"    return [{', '.join(x)}]"]
    return em.define(source, "solved", _linsolve=sys.modules[__name__])


def eliminate(matrix: Sequence[Sequence[float]]) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The statements :func:`emit_solve` writes for the known ``matrix``,
    each constant named by the order it is bound in, and those constants
    in that order.  Two matrices of equal statements are eliminated alike
    and differ only in the constants."""
    values: list[float] = []

    def bind(value: float) -> str:
        values.append(value)
        return f"_m{len(values) - 1}"

    em = Emitter()
    emit_solve(em, matrix, [f"b{i}" for i in range(len(matrix))], "raise {}".format, bind)
    return tuple(em.body("")), tuple(values)


def emit_solve(
    em, matrix: Sequence[Sequence], rhs: Sequence[str], raise_singular: Callable[[str], str],
    bind: Callable[[float], str] | None = None,
) -> list[str]:
    """Write the elimination of one system into ``em``; return the names of x.

    ``rhs`` holds names of locals.  ``matrix`` holds either floats only,
    known now, or names of locals only.  A known matrix is eliminated
    here and only the arithmetic on ``rhs`` is emitted; a matrix of names
    is eliminated at run time, every operation emitted in the order it
    runs.  Either way the float operations and branches are the same.
    The pivot is the first entry of largest magnitude in its column, a
    row whose factor is zero is left as it is, and a NaN entry makes x
    all NaN.  The constants a known matrix leaves are named by ``bind``,
    called once per constant in the order :func:`eliminate` records,
    ``em.bind`` by default; working values go to ``em.fresh`` locals, so
    no input name is ever assigned.

    Where the system is singular, the statements bind the
    :class:`SingularMatrixError` of :func:`singular_error` to a local,
    through this module bound as ``_linsolve`` in the compiled namespace,
    and run the statement ``raise_singular(local)``.  A known singular
    matrix emits that raise unguarded: nothing raises here.
    """
    n = len(rhs)
    a = [list(row) for row in matrix]
    b = list(rhs)
    x = [em.fresh() for _ in range(n)]
    known = all(type(value) is float for row in a for value in row)
    src = (bind or em.bind) if known else str
    indent = ""

    def line(statement: str) -> None:
        em.line(indent + statement)

    def let(source: str) -> str:
        name = em.fresh()
        line(f"{name} = {source}")
        return name

    magnitudes: dict[str, str] = {}

    def magnitude(value):
        if known:
            return abs(value)
        if value not in magnitudes:
            magnitudes[value] = let(f"abs({value})")
        return magnitudes[value]

    entries = [value for row in a for value in row]
    if known:
        if any(map(math.isnan, entries)):
            line(f"{' = '.join(x)} = {em.bind(math.nan)}")
            return x
        scale = max(map(abs, entries))
        threshold = PIVOT_RTOL * max(scale, 1e-300)
    else:
        names = list(dict.fromkeys(entries))
        line(f"if {' or '.join(f'{v} != {v}' for v in names)}:")
        line(f"    {' = '.join(x)} = {em.bind(math.nan)}")
        line("else:")
        indent = "    "
        mags = [magnitude(v) for v in names]
        scale = mags[0] if len(mags) == 1 else let(f"max({', '.join(mags)})")
        threshold = let(f"{em.bind(PIVOT_RTOL)} * max({scale}, {em.bind(1e-300)})")

    def emit_raise(guard: str, *values) -> None:
        error = em.fresh()
        line(f"{guard}{error} = _linsolve.singular_error({', '.join(map(src, values))})")
        line(guard + raise_singular(error))

    for col in range(n):
        column = [magnitude(a[row][col]) for row in range(col, n)]
        if known or col == n - 1:  # the choice is known now
            pivot_row, largest = col, column[0]
            for row in range(col + 1, n):
                if column[row - col] > largest:
                    pivot_row, largest = row, column[row - col]
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        else:
            choice, largest = em.fresh(), em.fresh()
            line(f"{choice}, {largest} = {col}, {column[0]}")
            for row in range(col + 1, n):
                m = column[row - col]
                line(f"if {m} > {largest}: {choice}, {largest} = {row}, {m}")
            # rows col.. swapped as the choice says, into new locals
            rows = range(col, n)
            swapped = [[em.fresh() for _ in range(col, n + 1)] for _ in rows]
            targets = ", ".join(name for names in swapped for name in names)
            for pivot_row in rows:
                order = [pivot_row if r == col else col if r == pivot_row else r for r in rows]
                values = ", ".join(v for r in order for v in a[r][col:] + [b[r]])
                test = ("else" if pivot_row == n - 1
                        else f"{'if' if pivot_row == col else 'elif'} {choice} == {pivot_row}")
                line(f"{test}:")
                line(f"    {targets} = {values}")
            for r, names in zip(rows, swapped):
                a[r][col:], b[r] = names[:-1], names[-1]

        pivot = a[col][col]
        if not known:
            line(f"if {largest} < {threshold}:")
            emit_raise("    ", pivot, threshold, scale, largest)
        elif largest < threshold:
            emit_raise("", pivot, threshold, scale, largest)
            return x

        top = a[col]
        for row in range(col + 1, n):
            lower = a[row]
            if known:
                factor = lower[col] / pivot
                if factor != 0.0:
                    lower[col + 1:] = [lower[k] - factor * top[k] for k in range(col + 1, n)]
                    b[row] = let(f"{b[row]} - {src(factor)} * {b[col]}")
                continue
            factor = let(f"{lower[col]} / {pivot}")
            old, tops = lower[col + 1:] + [b[row]], top[col + 1:] + [b[col]]
            new = [em.fresh() for _ in old]
            line(f"if {factor} != 0.0:")
            for name, value, t in zip(new, old, tops):
                line(f"    {name} = {value} - {factor} * {t}")
            line("else:")
            line(f"    {', '.join(new)} = {', '.join(old)}")
            lower[col + 1:], b[row] = new[:-1], new[-1]

    for row in range(n - 1, -1, -1):
        # the dot starts at 0.0, which turns a sum of -0.0 into 0.0; an
        # empty one is left out, since b - 0.0 is b for every float
        dot = " + ".join(["0.0"] + [f"{src(a[row][k])} * {x[k]}" for k in range(row + 1, n)])
        numerator = f"{b[row]} - ({dot})" if row < n - 1 else b[row]
        line(f"{x[row]} = ({numerator}) / {src(a[row][row])}")
    return x
