"""Dense linear solves for the small systems this package needs.

Gaussian elimination with partial pivoting, sized for mechanical systems
with a handful of degrees of freedom, in plain Python on lists: at these
sizes array set-up would cost more than the arithmetic.  A pivot falling
below ``PIVOT_RTOL`` times the matrix magnitude is treated as singular;
an exactly zero pivot reports an infinite condition estimate.
"""

from __future__ import annotations

import math

PIVOT_RTOL = 1e-12


class SingularMatrixError(ArithmeticError):
    """Pivot below the relative threshold; carries a condition estimate."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


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
            estimate = scale / largest if largest else math.inf
            raise SingularMatrixError(
                f"singular system: pivot {pivot:.3e} below {threshold:.3e}",
                condition_estimate=estimate,
            )
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
