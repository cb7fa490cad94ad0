"""Dense linear solves for the small systems this package needs.

Gaussian elimination with partial pivoting, sized for mechanical systems
with a handful of degrees of freedom.  A pivot falling below
``PIVOT_RTOL`` times the matrix magnitude is treated as singular; an
exactly zero pivot reports an infinite condition estimate.

The algorithm is spelled twice, side by side.  :func:`solve` runs it on
lists in plain Python (at these sizes array set-up would cost more than
the arithmetic); it serves the call-per-stage right-hand side
``ExplicitOde.__call__`` and the shooting Jacobian.  :func:`emit_solve`
writes the same operations as straight-line statements into an
expression :class:`~fracnoether.expressions.Emitter`; the compiled RK4
loop of :mod:`fracnoether.integrators` solves each stage with them, and
does at compile time whatever a constant mass matrix already decides.
Both give bit-identical results and the same singular error.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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

    The pivot is the first entry of largest magnitude in its column.  A
    NaN entry leaves nothing to judge pivots against, so the solution is
    all NaN.
    """
    a = [list(map(float, row)) for row in matrix]
    b = list(map(float, rhs))
    n = len(a)
    magnitudes = [abs(x) for row in a for x in row]
    if len(b) != n or len(magnitudes) != n * n:
        raise ValueError(
            f"shape mismatch: {n}-row matrix of {len(magnitudes)} entries, rhs {len(b)}"
        )
    if math.isnan(sum(magnitudes)):
        return [math.nan] * n
    scale = max(magnitudes) if n else 0.0
    threshold = PIVOT_RTOL * max(scale, 1e-300)

    for col in range(n):
        pivot_row, largest = col, abs(a[col][col])
        for row in range(col + 1, n):
            if abs(a[row][col]) > largest:
                pivot_row, largest = row, abs(a[row][col])
        pivot = a[pivot_row][col]
        if largest < threshold:
            raise singular_error(pivot, threshold, scale, largest)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        top = a[col]
        for row in range(col + 1, n):
            lower = a[row]
            factor = lower[col] / pivot
            if factor != 0.0:
                for k in range(col, n):
                    lower[k] -= factor * top[k]
                b[row] -= factor * b[col]

    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        dot = 0.0
        for k in range(row + 1, n):
            dot += a[row][k] * x[k]
        x[row] = (b[row] - dot) / a[row][row]
    return x


def emit_solve(
    em, matrix: Sequence[Sequence], rhs: Sequence[str], raise_singular: Callable[[str], str]
) -> list[str]:
    """Write :func:`solve` of one system into ``em``; return the names of x.

    ``rhs`` holds names of locals.  An entry of ``matrix`` is either the
    name of a local or a float known now.  Every operation of
    :func:`solve` whose operands are all known is done here, with the
    same float operation, and every branch whose condition is then known
    is resolved: a known pivot choice makes its swap a renaming, a known
    zero factor drops its row update.  What is left is emitted in the
    order :func:`solve` runs it.  Constants are named through
    ``em.bind``; working values go to ``em.fresh`` locals, so no input
    name is ever assigned.

    Where the system is singular, the statements bind the
    :class:`SingularMatrixError` of :func:`solve` to a local, through
    this module bound as ``_linsolve`` in the compiled namespace, and run
    the statement ``raise_singular(local)``.  A known singular matrix
    emits that raise unguarded: nothing raises here.
    """
    n = len(rhs)
    a = [list(row) for row in matrix]
    b = list(rhs)
    x = [em.fresh() for _ in range(n)]
    indent = ""

    def known(value) -> bool:
        return type(value) is float

    def src(value) -> str:
        return em.bind(value) if known(value) else value

    def line(statement: str) -> None:
        em.line(indent + statement)

    def let(source: str) -> str:
        name = em.fresh()
        line(f"{name} = {source}")
        return name

    magnitudes: dict[str, str] = {}

    def magnitude(value):
        if known(value):
            return abs(value)
        if value not in magnitudes:
            magnitudes[value] = let(f"abs({value})")
        return magnitudes[value]

    entries = [value for row in a for value in row]
    unknown = list(dict.fromkeys(v for v in entries if not known(v)))
    if any(math.isnan(v) for v in entries if known(v)):
        line(f"{' = '.join(x)} = {em.bind(math.nan)}")
        return x
    if unknown:
        line(f"if {' or '.join(f'{v} != {v}' for v in unknown)}:")
        line(f"    {' = '.join(x)} = {em.bind(math.nan)}")
        line("else:")
        indent = "    "

    mags = [magnitude(v) for v in entries]
    folded = [m for m in mags if known(m)]
    if len(folded) == len(mags):
        scale = max(folded)
        threshold = PIVOT_RTOL * max(scale, 1e-300)
    else:
        args = ([em.bind(max(folded))] if folded else []) + list(dict.fromkeys(
            m for m in mags if not known(m)))
        scale = args[0] if len(args) == 1 else let(f"max({', '.join(args)})")
        threshold = let(f"{em.bind(PIVOT_RTOL)} * max({scale}, {em.bind(1e-300)})")

    def update(value, factor, top):
        """``value - factor * top``, folding the product when it is known."""
        if known(factor) and known(top):
            product = factor * top
            return value - product if known(value) else let(f"{value} - {em.bind(product)}")
        return let(f"{src(value)} - {src(factor)} * {src(top)}")

    def emit_raise(guard: str, *values) -> None:
        error = em.fresh()
        line(f"{guard}{error} = _linsolve.singular_error({', '.join(map(src, values))})")
        line(guard + raise_singular(error))

    for col in range(n):
        column = [magnitude(a[row][col]) for row in range(col, n)]
        if len(column) == 1 or all(map(known, column)):  # the choice is known now
            pivot_row, largest = col, column[0]
            for row in range(col + 1, n):
                if column[row - col] > largest:
                    pivot_row, largest = row, column[row - col]
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        else:
            choice, largest = em.fresh(), em.fresh()
            line(f"{choice}, {largest} = {col}, {src(column[0])}")
            for row in range(col + 1, n):
                m = src(column[row - col])
                line(f"if {m} > {largest}: {choice}, {largest} = {row}, {m}")
            # rows col.. swapped as the choice says, into new locals
            rows = range(col, n)
            swapped = [[em.fresh() for _ in range(col, n + 1)] for _ in rows]
            targets = ", ".join(name for names in swapped for name in names)
            for pivot_row in rows:
                order = [pivot_row if r == col else col if r == pivot_row else r for r in rows]
                values = ", ".join(src(v) for r in order for v in a[r][col:] + [b[r]])
                test = ("else" if pivot_row == n - 1
                        else f"{'if' if pivot_row == col else 'elif'} {choice} == {pivot_row}")
                line(f"{test}:")
                line(f"    {targets} = {values}")
            for r, names in zip(rows, swapped):
                a[r][col:], b[r] = names[:-1], names[-1]

        pivot = a[col][col]
        if not (known(largest) and known(threshold)):
            line(f"if {src(largest)} < {src(threshold)}:")
            emit_raise("    ", pivot, threshold, scale, largest)
        elif largest < threshold:
            emit_raise("", pivot, threshold, scale, largest)
            return x

        top = a[col]
        for row in range(col + 1, n):
            lower = a[row]
            if known(lower[col]) and known(pivot) and pivot != 0.0:
                factor = lower[col] / pivot
            else:  # or a known zero pivot, whose run-time singular test fires first
                factor = let(f"{src(lower[col])} / {src(pivot)}")
            if known(factor):
                if factor != 0.0:
                    lower[col + 1:] = [update(lower[k], factor, top[k]) for k in range(col + 1, n)]
                    b[row] = update(b[row], factor, b[col])
                continue
            old, tops = lower[col + 1:] + [b[row]], top[col + 1:] + [b[col]]
            new = [em.fresh() for _ in old]
            line(f"if {factor} != 0.0:")
            for name, value, t in zip(new, old, tops):
                line(f"    {name} = {src(value)} - {factor} * {src(t)}")
            line("else:")
            line(f"    {', '.join(new)} = {', '.join(map(src, old))}")
            lower[col + 1:], b[row] = new[:-1], new[-1]

    for row in range(n - 1, -1, -1):
        # the dot starts at 0.0, which turns a sum of -0.0 into 0.0; an
        # empty one is left out, since b - 0.0 is b for every float
        dot = " + ".join(["0.0"] + [f"{src(a[row][k])} * {x[k]}" for k in range(row + 1, n)])
        numerator = f"{src(b[row])} - ({dot})" if row < n - 1 else src(b[row])
        line(f"{x[row]} = ({numerator}) / {src(a[row][row])}")
    return x
