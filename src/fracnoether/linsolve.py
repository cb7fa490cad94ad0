"""Dense linear solves for the small systems this package needs.

Gaussian elimination with partial pivoting, sized for mechanical systems
with a handful of degrees of freedom.  A pivot falling below
``PIVOT_RTOL`` times the matrix magnitude is treated as singular; an
exactly zero pivot reports an infinite condition estimate.

The algorithm runs in two forms with the same rules and the same float
operations.  :func:`emit_solve` writes it as straight-line statements
into an expression :class:`~fracnoether.expressions.Emitter`, eliminating
a matrix of locals at run time: the accelerations of an ``ExplicitOde``
whose mass is not constant, or is singular, called or written into the
compiled RK4 loop of :mod:`fracnoether.integrators`.
:func:`eliminated` eliminates a known matrix now, doing its right-hand
side's arithmetic as it is told: as expression trees, the accelerations
of a constant mass, or on floats, :func:`solve` for the shooting
Jacobian.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

from .expressions import Add, Const, Div, Mul, Sub

PIVOT_RTOL = 1e-12

# the right-hand side's arithmetic for eliminated: constant, -, *, +, /
TREES = (Const, Sub, Mul, Add, Div)
FLOATS = (float, operator.sub, operator.mul, operator.add, operator.truediv)


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

    :func:`eliminated` on floats, with the float operations of
    :func:`emit_solve` in its order.  The pivot is the first entry of
    largest magnitude in its column.  A NaN entry leaves nothing to judge
    pivots against, so the solution is all NaN.
    """
    a = [list(map(float, row)) for row in matrix]
    b = list(map(float, rhs))
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a):
        raise ValueError(f"shape mismatch: {n}-row matrix of {sum(map(len, a))} entries, rhs {len(b)}")
    return eliminated(a, b, FLOATS)


def eliminated(matrix: Sequence[Sequence[float]], rhs: Sequence, arithmetic=TREES) -> list:
    """x of ``matrix @ x = rhs``, the known float ``matrix`` eliminated now.

    The rules are :func:`emit_solve`'s: the pivot is the first entry of
    largest magnitude in its column, a row whose factor is zero is left
    as it is, a NaN entry makes every x NaN, and a pivot below the
    threshold raises the :class:`SingularMatrixError` of
    :func:`singular_error` here.  The right-hand side takes one operation
    of ``arithmetic`` (constant, ``-``, ``*``, ``+``, ``/``) per float
    operation the run-time elimination does on it, with its operands in
    its order: with ``TREES`` x comes back as raw nodes over the ``rhs``
    trees, with ``FLOATS`` as the floats of the run-time elimination.
    The folding helpers are not used: they would drop the ``0.0 +`` that
    turns a sum of -0.0 into 0.0.
    """
    const, sub, mul, add, div = arithmetic
    n = len(rhs)
    a = [list(row) for row in matrix]
    b = list(rhs)
    entries = [value for row in a for value in row]
    if any(map(math.isnan, entries)):
        return [const(math.nan) for _ in range(n)]
    scale = max(map(abs, entries), default=0.0)
    threshold = PIVOT_RTOL * max(scale, 1e-300)
    for col in range(n):
        pivot_row, largest = col, abs(a[col][col])
        for row in range(col + 1, n):
            if abs(a[row][col]) > largest:
                pivot_row, largest = row, abs(a[row][col])
        a[col], a[pivot_row] = a[pivot_row], a[col]
        b[col], b[pivot_row] = b[pivot_row], b[col]
        top = a[col]
        if largest < threshold:
            raise singular_error(top[col], threshold, scale, largest)
        for row in range(col + 1, n):
            lower = a[row]
            factor = lower[col] / top[col]
            if factor != 0.0:
                lower[col + 1:] = [lower[k] - factor * top[k] for k in range(col + 1, n)]
                b[row] = sub(b[row], mul(const(factor), b[col]))
    x: list = [None] * n
    for row in range(n - 1, -1, -1):
        numerator = b[row]
        if row < n - 1:  # the dot of emit_solve, from 0.0 and left to right
            dot = const(0.0)
            for k in range(row + 1, n):
                dot = add(dot, mul(const(a[row][k]), x[k]))
            numerator = sub(numerator, dot)
        x[row] = div(numerator, const(a[row][row]))
    return x


def emit_solve(
    em, matrix: Sequence[Sequence[str]], rhs: Sequence[str], raise_singular: Callable[[str], str],
    *reads: str,
) -> list[str]:
    """Write the elimination of one system into ``em``; return the names of x.

    ``matrix`` and ``rhs`` hold names of locals, and the whole
    elimination is emitted, every operation in the order it runs.  The
    pivot is the first entry of largest magnitude in its column, a row
    whose factor is zero is left as it is, and a NaN entry makes x all
    NaN.  Working values go to ``em.fresh`` locals, so no input name is
    ever assigned; the constants are literals, and NaN is the emitter's
    ``_nan``.  :func:`eliminated` does the same float operations on a
    matrix known now.

    Where the system is singular, the statements bind the
    :class:`SingularMatrixError` of :func:`singular_error` to a local,
    through this module bound as ``_linsolve`` in the compiled namespace,
    and run the statement ``raise_singular(local)``, which also reads the
    names ``reads`` (:meth:`~fracnoether.expressions.Emitter.line`).
    """
    n = len(rhs)
    a = [list(row) for row in matrix]
    b = list(rhs)
    x = [em.fresh() for _ in range(n)]

    def line(statement: str, *names: str) -> None:
        em.line("    " + statement, *names)

    def let(source: str) -> str:
        name = em.fresh()
        line(f"{name} = {source}")
        return name

    magnitudes: dict[str, str] = {}

    def magnitude(value: str) -> str:
        if value not in magnitudes:
            magnitudes[value] = let(f"abs({value})")
        return magnitudes[value]

    names = list(dict.fromkeys(value for row in a for value in row))
    em.line(f"if {' or '.join(f'{v} != {v}' for v in names)}:")
    em.line(f"    {' = '.join(x)} = _nan")
    em.line("else:")
    mags = [magnitude(v) for v in names]
    scale = mags[0] if len(mags) == 1 else let(f"max({', '.join(mags)})")
    threshold = let(f"{PIVOT_RTOL!r} * max({scale}, {1e-300!r})")

    for col in range(n):
        column = [magnitude(a[row][col]) for row in range(col, n)]
        if col == n - 1:  # one row left: nothing to choose
            largest = column[0]
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
        error = em.fresh()
        line(f"if {largest} < {threshold}:")
        line(f"    {error} = _linsolve.singular_error({pivot}, {threshold}, {scale}, {largest})")
        line("    " + raise_singular(error), *reads)

        top = a[col]
        for row in range(col + 1, n):
            lower = a[row]
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
        dot = " + ".join(["0.0"] + [f"{a[row][k]} * {x[k]}" for k in range(row + 1, n)])
        numerator = f"{b[row]} - ({dot})" if row < n - 1 else b[row]
        line(f"{x[row]} = ({numerator}) / {a[row][row]}")
    return x
