"""Variational problems with a power-law weighted action and their
Euler-Lagrange dynamics.

The action weight is the kernel ``(t - theta)^(alpha - 1)`` with fractional
order ``alpha`` in (0, 1] and observer time ``t`` held strictly beyond the
integration interval, so the kernel stays real, positive, and bounded.  The
stationarity condition for such problems reads, componentwise,

    dL/dq - d/dtheta (dL/dv) = (1 - alpha) / (t - theta) * dL/dv

which collapses to the classical Euler-Lagrange equation at ``alpha = 1``.
:class:`FractionalParams` is the one place the kernel and its drag
coefficient are written, and :func:`along_motion` the one place the
derivative along the motion is expanded.  :func:`to_explicit_ode`
rearranges the equation into explicit accelerations for regular
Lagrangians (invertible velocity Hessian).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linsolve
from .expressions import (
    Const,
    EvalPoint,
    Expr,
    Mul,
    Q,
    Sub,
    Theta,
    V,
    add,
    compile_trees,
    div,
    evaluate_on_grid,
    max_coordinate_index,
    mul,
    sub,
)


class SingularHessianError(ArithmeticError):
    """Velocity Hessian not invertible at some point; the Lagrangian is
    degenerate (for instance linear in a velocity) and outside this tool's
    scope."""

    def __init__(self, theta: float, condition_estimate: float):
        super().__init__(
            f"singular velocity Hessian at theta = {theta!r} "
            f"(condition estimate {condition_estimate:.3e})"
        )
        self.theta = theta
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class FractionalParams:
    """Fractional order alpha in (0, 1] and the observer time t.

    Owns every spelling of the kernel: the action weight and the symbolic
    drag builders of the equation of motion and the charges.
    """

    alpha: float
    observer_time: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0,1]")

    @property
    def drag_strength(self) -> float:
        """1 - alpha; zero in the classical limit."""
        return 1.0 - self.alpha

    def weight(self, theta):
        """The action kernel (t - theta)^(alpha - 1); theta may be an array."""
        return np.power(self.observer_time - theta, self.alpha - 1.0)

    def kernel_coefficient(self) -> Expr:
        """Symbolic drag coefficient (1 - alpha) / (t - theta), in that order."""
        return self.over_lag(Const(self.drag_strength))

    def over_lag(self, e: Expr) -> Expr:
        """Symbolic e / (t - theta)."""
        return div(e, sub(Const(self.observer_time), Theta()))

    def drag(self, e: Expr) -> Expr:
        """Symbolic (1 - alpha) * e / (t - theta); folds away at alpha = 1."""
        return mul(Const(self.drag_strength), self.over_lag(e))


@dataclass(frozen=True)
class BoundaryConditions:
    q_a: tuple
    q_b: tuple

    def __init__(self, q_a: Sequence[float], q_b: Sequence[float]):
        object.__setattr__(self, "q_a", tuple(float(x) for x in q_a))
        object.__setattr__(self, "q_b", tuple(float(x) for x in q_b))
        if len(self.q_a) != len(self.q_b):
            raise ValueError("boundary vectors must have equal length")


@dataclass(frozen=True)
class VariationalProblem:
    """A Lagrangian on an interval together with the kernel parameters.

    Boundary values are optional; initial-value use supplies (q0, v0) to the
    integrator directly.
    """

    n: int
    lagrangian: Expr
    interval: tuple[float, float]
    frac: FractionalParams
    boundary: BoundaryConditions | None = None

    def __post_init__(self):
        a, b = self.interval
        object.__setattr__(self, "interval", (float(a), float(b)))
        if self.n < 1:
            raise ValueError("degree-of-freedom count n must be positive")
        if not self.interval[0] < self.interval[1]:
            raise ValueError("interval must satisfy a < b")
        if max_coordinate_index(self.lagrangian) >= self.n:
            raise ValueError(
                "Lagrangian references a variable index beyond the problem's n"
            )
        if not self.frac.observer_time > self.interval[1]:
            raise ValueError("observer time must exceed b")
        if self.boundary is not None and len(self.boundary.q_a) != self.n:
            raise ValueError("boundary vectors must have length n")

    @property
    def a(self) -> float:
        return self.interval[0]

    @property
    def b(self) -> float:
        return self.interval[1]


def along_motion(e: Expr, n: int) -> tuple[Expr, list[Expr]]:
    """Split d/dtheta of e along a motion into symbolic pieces.

    Returns ``(rate, accel_coeffs)`` with rate = de/dtheta + sum_k de/dq_k v_k
    and accel_coeffs[k] = de/dv_k, so that the total derivative reads
    rate + sum_k accel_coeffs[k] * accel_k.  For a (theta, q) expression
    every acceleration coefficient folds to zero.
    """
    rate = e.diff(Theta())
    for k in range(n):
        rate = add(rate, mul(e.diff(Q(k)), V(k)))
    return rate, [e.diff(V(k)) for k in range(n)]


class ExplicitOde:
    """Explicit accelerations for a regular Lagrangian.

    With momenta p_j = dL/dv_j split by :func:`along_motion`, the weighted
    Euler-Lagrange equation reads M accel = F - c p, where the force tree
    F_j = dL/dq_j - rate(p_j), the mass trees M_jk = dp_j/dv_k, and the
    kernel coefficient c = (1-alpha)/(t-theta).  The net force trees
    F_j - c p_j and the mass trees are built once here and compiled into
    two functions, each computing the subtrees its trees share once.

    Callable as ``rhs(theta, q, v) -> accel`` (lists or arrays accepted,
    a list returned).  One degree of freedom divides by the single mass
    entry; more go through :func:`linsolve.solve`.  ``on_grid`` evaluates
    the same right-hand side over a whole batch of samples at once.
    :func:`integrators.ivp_solve` writes the net force and mass trees,
    and the elimination of :func:`linsolve.emit_solve` over them, into
    its compiled step loop instead of calling, and keeps those loops in
    ``loops``, one per integrand set.
    """

    def __init__(self, prob: VariationalProblem):
        self.prob = prob
        self.n = n = prob.n
        L = prob.lagrangian
        self.momentum = [L.diff(V(j)) for j in range(n)]
        self.force = []
        self.mass = []
        for j, p in enumerate(self.momentum):
            rate, accel_coeffs = along_motion(p, n)
            self.force.append(sub(L.diff(Q(j)), rate))
            self.mass.append(accel_coeffs)
        # Built from the nodes, not the folding helpers: F - c p must not
        # fold to -(c p) when F is zero, which would flip the sign of a zero.
        c = prob.frac.kernel_coefficient()
        self.net = [Sub(f, Mul(c, p)) for f, p in zip(self.force, self.momentum)]
        self._net = compile_trees(self.net)
        self._mass = compile_trees(self.mass)
        self.loops: dict = {}

    def assemble(self, theta: float, q, v) -> tuple[tuple, tuple]:
        """Net force F - c p and mass matrix M (a tuple of rows) at one point."""
        return self._net(theta, q, v), self._mass(theta, q, v)

    def residual(self, point: EvalPoint, accel) -> np.ndarray:
        """Pointwise residual of the weighted Euler-Lagrange equation.

        dL/dq - d/dtheta(dL/dv) - (1-alpha)/(t-theta) * dL/dv at a point,
        that is F - c p - M accel from the trees compiled at construction;
        a zero vector means (point, accel) satisfies the equation.
        """
        if point.n != self.n:
            raise ValueError("point dimension does not match the problem")
        accel = np.array([float(x) for x in accel])
        if accel.size != self.n:
            raise ValueError("accel must have length n")
        force, mass = self.assemble(point.theta, point.q, point.v)
        return np.array(force) - np.array(mass) @ accel

    def __call__(self, theta: float, q, v):
        if self.n == 1:
            ((m00,),) = self._mass(theta, q, v)
            if m00 == 0.0:
                raise SingularHessianError(theta, float("inf"))
            (net,) = self._net(theta, q, v)
            return [net / m00]
        force, mass = self.assemble(theta, q, v)
        try:
            return linsolve.solve(mass, force)
        except linsolve.SingularMatrixError as exc:
            raise SingularHessianError(theta, exc.condition_estimate) from exc

    def on_grid(self, theta, q, v) -> np.ndarray:
        """Accelerations at m samples; theta (m,), q and v (m, n)."""
        theta = np.asarray(theta, dtype=float)
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)

        def grid(e):
            return evaluate_on_grid(e, theta, q, v)

        mats = np.stack([np.stack([grid(m) for m in row], -1) for row in self.mass], 1)
        rhs = np.stack([grid(net) for net in self.net], -1)
        try:
            return np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SingularHessianError(float("nan"), float("inf")) from exc


def to_explicit_ode(prob: VariationalProblem) -> ExplicitOde:
    """Rearrange the Euler-Lagrange equation into explicit accelerations.

    Raises :class:`SingularHessianError` on first evaluation at any point
    where the velocity Hessian degenerates; a probe at the interval
    midpoint with zero state catches constant-degenerate Lagrangians
    immediately.
    """
    ode = ExplicitOde(prob)
    mid = 0.5 * (prob.a + prob.b)
    probe_q = [0.0] * prob.n
    probe_v = [0.0] * prob.n
    try:
        ode(mid, probe_q, probe_v)
    except SingularHessianError:
        raise
    except ArithmeticError:
        # Hessian may be state-dependent and merely undefined at the probe;
        # defer judgement to actual use.
        pass
    return ode
