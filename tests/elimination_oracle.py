"""Partial-pivoting elimination on numpy arrays, an oracle for the linear
solve of :mod:`fracnoether.linsolve` that shares no code with it.

The rules, restated here: a NaN entry makes x all NaN; the pivot is the
first entry of largest magnitude in its column, and the system is
singular where that magnitude is below ``1e-12 * max(scale, 1e-300)``,
scale being the largest magnitude in the matrix; rows with a zero factor
are skipped; back-substitution subtracts the dot product of the row
and the known x, summed left to right.
"""

import math

import numpy as np


class SingularPivot(ArithmeticError):
    """The pivot rule tripped; carries scale over the pivot's magnitude."""

    def __init__(self, scale: float, largest: float):
        super().__init__(f"pivot {largest!r} of a matrix of scale {scale!r}")
        self.condition_estimate = scale / largest if largest else math.inf


def array_elimination(a, b) -> list[float]:
    """x of ``a @ x = b``; raises :class:`SingularPivot` where the rule trips."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    if np.isnan(a).any():
        return [math.nan] * n
    scale = float(np.max(np.abs(a)))
    threshold = 1e-12 * max(scale, 1e-300)
    with np.errstate(all="ignore"):
        for col in range(n):
            pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
            largest = float(abs(a[pivot_row, col]))
            if largest < threshold:
                raise SingularPivot(scale, largest)
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
            for row in range(col + 1, n):
                factor = a[row, col] / a[col, col]
                if factor != 0.0:
                    a[row, col:] -= factor * a[col, col:]
                    b[row] -= factor * b[col]
        x = np.empty(n)
        for row in range(n - 1, -1, -1):
            # summed left to right from 0.0: a BLAS dot may round otherwise
            dot = 0.0
            for term in a[row, row + 1 :] * x[row + 1 :]:
                dot += term
            x[row] = (b[row] - dot) / a[row, row]
    return x.tolist()
