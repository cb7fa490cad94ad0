"""A node-by-node evaluator and a plain RK4 over it, an oracle for the
compiled step loop of :func:`fracnoether.integrators.ivp_solve` that shares
no code with the emitter.

The rules, restated here:

- a node evaluates its children left to right, except a division, which
  evaluates its denominator first; ``ln`` and real powers need a
  positive argument, ``sqrt`` a non-negative one, and a division a
  nonzero denominator, else :class:`EvalDomainError`; a coordinate or
  velocity beyond the point's count is an :class:`ExpressionError`;
- one degree of freedom: the mass is evaluated, a zero mass is
  singular, and the acceleration is the net force over the mass; more:
  the net force trees and then the mass trees, row by row, are evaluated
  and the system solved by :func:`elimination_oracle.array_elimination`;
  the residual F - c p - M accel of the equation walks the same trees;
- a step evaluates the accelerations at its four stage points, then each
  channel at the four points in turn;
- ``OverflowError``, or the ``ValueError`` of ``sin`` or ``cos`` of an
  infinity, ends the step with :class:`BlowUpError` at its end, as does a
  non-finite state or channel after the update.
"""

import math
import operator

import numpy as np

from elimination_oracle import SingularPivot, array_elimination
from fracnoether.euler_lagrange import SingularHessianError
from fracnoether.expressions import (
    Add, Const, Cos, Div, EvalDomainError, Exp, ExpressionError, Ln, Mul, Neg, Pow, Q, Sin,
    Sqrt, Sub, Theta, V,
)
from fracnoether.integrators import BlowUpError

FUNCTIONS = {Sin: math.sin, Cos: math.cos, Exp: math.exp}
OPERATORS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def value(e, theta: float, q, v) -> float:
    """``e`` at one point, walked node by node; a subtree shared by several
    parents is walked once."""
    memo: dict[int, float] = {}

    def at(node) -> float:
        out = memo.get(id(node))
        if out is None:
            out = memo[id(node)] = rule(node)
        return out

    def rule(node) -> float:
        kind = type(node)
        if kind is Const:
            return node.value
        if kind is Theta:
            return theta
        if kind is Q or kind is V:
            values, letter = (q, "q") if kind is Q else (v, "v")
            if not -len(values) <= node.index < len(values):
                raise ExpressionError(f"variable {letter}{node.index} out of range for "
                                      f"{len(values)} degrees of freedom")
            return values[node.index]
        if kind is Div:
            den = at(node.b)
            if den == 0.0:
                raise EvalDomainError("division by zero")
            return at(node.a) / den
        if kind in OPERATORS:
            a = at(node.a)
            return OPERATORS[kind](a, at(node.b))
        x = at(node.children()[0])
        if kind is Neg:
            return -x
        if kind in FUNCTIONS:
            return FUNCTIONS[kind](x)
        if kind is Ln:
            if x <= 0.0:
                raise EvalDomainError(f"ln of non-positive value {x!r}")
            return math.log(x)
        if kind is Sqrt:
            if x < 0.0:
                raise EvalDomainError(f"sqrt of negative value {x!r}")
            return math.sqrt(x)
        if kind is Pow:
            if x <= 0.0:
                raise EvalDomainError(f"power with real exponent needs a positive base, got {x!r}")
            return math.pow(x, node.exponent)
        raise TypeError(f"no rule for {kind.__name__}")

    return at(e)


def accelerations(ode, theta: float, q, v) -> list[float]:
    """The accelerations of an ``ExplicitOde`` at one point."""
    if ode.n == 1:
        mass = value(ode.mass[0][0], theta, q, v)
        if mass == 0.0:
            raise SingularHessianError(theta, math.inf)
        return [value(ode.net[0], theta, q, v) / mass]
    force = [value(f, theta, q, v) for f in ode.net]
    mass = [[value(m, theta, q, v) for m in row] for row in ode.mass]
    try:
        return array_elimination(mass, force)
    except SingularPivot as exc:
        raise SingularHessianError(theta, exc.condition_estimate) from None


def euler_lagrange_residual(ode, theta: float, q, v, accel) -> list[float]:
    """F - c p - M accel of an ``ExplicitOde`` at one point, the net force
    and mass trees walked node by node: the residual of the weighted
    Euler-Lagrange equation, zero where ``accel`` solves it."""
    force = [value(f, theta, q, v) for f in ode.net]
    mass = [[value(m, theta, q, v) for m in row] for row in ode.mass]
    return [f - sum(m * float(a) for m, a in zip(row, accel, strict=True))
            for f, row in zip(force, mass)]


def rk4(ode, a: float, b: float, q0, v0, steps: int, integrands: dict):
    """(rows of q, rows of v, {name: channel}) of the classical RK4 solve."""
    nodes = np.linspace(a, b, steps + 1).tolist()
    h = (b - a) / steps
    hh, h6 = 0.5 * h, h / 6.0
    q, v = [float(x) for x in q0], [float(x) for x in v0]
    channels = {name: [0.0] for name in integrands}
    qs, vs = [q], [v]
    for th, full in zip(nodes[:-1], nodes[1:]):
        try:
            half = th + hh
            points = [(th, q, v)]
            ks = [accelerations(ode, th, q, v)]
            for theta, step in ((half, hh), (half, hh), (full, h)):
                sq = [x + step * y for x, y in zip(q, points[-1][2])]
                sv = [x + step * y for x, y in zip(v, ks[-1])]
                points.append((theta, sq, sv))
                ks.append(accelerations(ode, theta, sq, sv))
            for name, g in integrands.items():
                g1, g2, g3, g4 = (value(g, *point) for point in points)
                channels[name].append(channels[name][-1] + h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4))
        except ExpressionError:
            raise
        except (OverflowError, ValueError) as exc:
            raise BlowUpError(full) from exc
        vels = [p[2] for p in points]
        q = [x + h6 * (s1 + 2.0 * s2 + 2.0 * s3 + s4) for x, s1, s2, s3, s4 in zip(q, *vels)]
        v = [x + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4) for x, k1, k2, k3, k4 in zip(v, *ks)]
        qs.append(q)
        vs.append(v)
        if not all(map(math.isfinite, q + v + [c[-1] for c in channels.values()])):
            raise BlowUpError(full)
    return qs, vs, channels
