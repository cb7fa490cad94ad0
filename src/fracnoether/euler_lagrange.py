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
derivative along the motion is expanded; :class:`VariationalProblem` derives
the momenta p = dL/dv and the energy function H = L - p . v once.
:func:`to_explicit_ode` rearranges the equation into explicit accelerations
for regular Lagrangians (invertible velocity Hessian).
"""

from __future__ import annotations

import copy
import math
from functools import cached_property, wraps
from typing import Sequence

from . import linsolve
from .expressions import (
    Const,
    Emitter,
    Expr,
    Mul,
    Q,
    Sub,
    Theta,
    V,
    add,
    div,
    max_coordinate_index,
    mul,
    power,
    shaped,
    sub,
)
from .records import Record, field, replace


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


class FractionalParams(Record):
    """Fractional order alpha in (0, 1] and the observer time t.

    Owns every spelling of the kernel, each a tree: the action weight and
    the drag builders of the equation of motion and the charges.  Alpha
    enters the trees by two numbers only, 1 - alpha and the weight's
    exponent alpha - 1, plain constants, which are slots of the trees'
    shape (:func:`~fracnoether.expressions.shaped`): the trees of every
    alpha below 1 have one shape, and are emitted once, whatever other
    constant of the trees the two equal.  No other tree reads alpha,
    so every alpha of a problem shares them all and builds only its drag
    and weight (:func:`alpha_free`).  At alpha = 1 the drag folds away and
    the weight is 1.
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

    def weight(self) -> Expr:
        """Symbolic action kernel (t - theta)^(alpha - 1)."""
        return power(sub(Const(self.observer_time), Theta()), self.alpha - 1.0)

    def kernel_coefficient(self) -> Expr:
        """Symbolic drag coefficient (1 - alpha) / (t - theta), in that order."""
        return self.over_lag(Const(self.drag_strength))

    def over_lag(self, e: Expr) -> Expr:
        """Symbolic e / (t - theta)."""
        return div(e, sub(Const(self.observer_time), Theta()))

    def drag(self, e: Expr) -> Expr:
        """Symbolic (1 - alpha) * e / (t - theta); folds away at alpha = 1."""
        return mul(Const(self.drag_strength), self.over_lag(e))


class BoundaryConditions(Record):
    q_a: tuple
    q_b: tuple

    def __init__(self, q_a: Sequence[float], q_b: Sequence[float]):
        object.__setattr__(self, "q_a", tuple(float(x) for x in q_a))
        object.__setattr__(self, "q_b", tuple(float(x) for x in q_b))
        if len(self.q_a) != len(self.q_b):
            raise ValueError("boundary vectors must have equal length")


def alpha_free(build):
    """Build ``build(prob, *args)``, which must not read alpha, once per args for a
    problem and every problem :meth:`VariationalProblem.with_alpha` makes from it."""
    @wraps(build)
    def shared(prob, *args):
        key = (build, *args)
        if key not in prob._alpha_free:
            prob._alpha_free[key] = build(prob, *args)
        return prob._alpha_free[key]
    return shared


class VariationalProblem(Record):
    """A Lagrangian on an interval together with the kernel parameters.

    Boundary values are optional; initial-value use supplies (q0, v0) to the
    integrator directly.
    """

    n: int
    lagrangian: Expr
    interval: tuple[float, float]
    frac: FractionalParams
    boundary: BoundaryConditions | None = None
    _alpha_free: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def with_alpha(self, alpha: float) -> "VariationalProblem":
        """This problem at order ``alpha``, sharing every :func:`alpha_free` value."""
        prob = replace(self, frac=FractionalParams(alpha, self.frac.observer_time))
        object.__setattr__(prob, "_alpha_free", self._alpha_free)
        return prob

    @cached_property
    @alpha_free
    def momentum(self) -> tuple[Expr, ...]:
        """The momenta p_j = dL/dv_j."""
        return tuple(self.lagrangian.diff(V(j)) for j in range(self.n))

    @cached_property
    @alpha_free
    def energy(self) -> Expr:
        """The energy function H = L - p . v."""
        out = self.lagrangian
        for j, p in enumerate(self.momentum):
            out = sub(out, mul(p, V(j)))
        return out

    @cached_property
    def action_integrand(self) -> Expr:
        """The weighted Lagrangian L (t - theta)^(alpha - 1) the action integrates."""
        return mul(self.lagrangian, self.frac.weight())


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

    With the problem's momenta p_j split by :func:`along_motion`, the
    weighted Euler-Lagrange equation reads M accel = F - c p, where the
    force tree F_j = dL/dq_j - rate(p_j), the mass trees M_jk = dp_j/dv_k,
    and the kernel coefficient c = (1-alpha)/(t-theta).  The net force trees
    F_j - c p_j, F_j at alpha = 1, are built here on the shared force trees,
    and ``kernel`` is the tree c they hold, None at alpha = 1;
    ``constant_mass`` holds the rows of M as floats when every mass tree is
    a constant, and is None otherwise.  With one degree of freedom,
    ``quotient`` is the tree F_0 - c p_0 over M_00, folded where the mass
    is one or both are constants; None with more.  With more and a
    constant mass, :attr:`solved` holds the accelerations as trees over
    the net force trees, built on first use.

    Callable as ``rhs(theta, q, v) -> accel`` (sequences accepted, a list
    returned).  :meth:`emit_accelerations` writes the solve for the
    accelerations at a point into an expression emitter; the first call
    defines it as one function, emitted once per shape of its trees
    (:meth:`shape_key`), and :func:`integrators.ivp_solve` writes it into
    its compiled step loop at every stage instead of calling.  ``samples``
    lists the :class:`~fracnoether.integrators.Sample` trees a solve of
    this ODE samples at every node (:meth:`with_samples`), none by
    default.
    """

    # The names the statements of emit_accelerations read, bound by expressions.shaped.
    NAMES = {"_inf": math.inf, "_linsolve": linsolve, "_SingularHessianError": SingularHessianError}
    samples: tuple = ()

    def __init__(self, prob: VariationalProblem):
        self.prob = prob
        self.n = prob.n
        self.momentum = prob.momentum
        self.force, self.mass, self.constant_mass = _force_and_mass(prob)
        # Built from the nodes, not the folding helpers: F - c p must not
        # fold to -(c p) when F is zero, which would flip the sign of a zero.
        # At alpha = 1 there is no drag, and the net force is F itself.
        c = self.kernel = None if prob.frac.alpha == 1.0 else prob.frac.kernel_coefficient()
        self.net = list(self.force) if c is None else [
            Sub(f, Mul(c, p)) for f, p in zip(self.force, self.momentum)]
        self.quotient = div(self.net[0], self.mass[0][0]) if self.n == 1 else None

    def with_samples(self, samples) -> "ExplicitOde":
        """This ODE, sharing its trees, sampling ``samples`` along every solve."""
        ode = copy.copy(self)
        ode.samples = tuple(samples)
        return ode

    @cached_property
    def solved(self) -> list[Expr] | linsolve.SingularMatrixError | None:
        """The accelerations of a constant mass with two or more degrees of
        freedom, as trees over the net force trees
        (:func:`linsolve.eliminated`), or the
        :class:`~fracnoether.linsolve.SingularMatrixError` of a singular
        one; None for any other mass."""
        if self.n == 1 or self.constant_mass is None:
            return None
        try:
            return linsolve.eliminated(self.constant_mass, self.net)
        except linsolve.SingularMatrixError as exc:
            return exc

    def emit_accelerations(self, em: Emitter, theta: str) -> list[str]:
        """Emit the accelerations at ``em``'s current point; return their names.

        One degree of freedom emits the mass and a zero-mass check, left
        out for a nonzero constant mass, where it cannot trip, then
        :attr:`quotient`.  More emit the net force trees, then, for a
        constant mass, the trees of :attr:`solved`.  Any other mass, and
        a singular constant one, emits the mass trees and the run-time
        elimination of :func:`linsolve.emit_solve`, which raises
        :class:`SingularHessianError` at the theta held in ``theta`` where
        the mass is singular.  The function compiled around the
        statements binds :attr:`NAMES`.
        """
        if self.n == 1:
            mass = self.mass[0][0]
            if not (type(mass) is Const and mass.value != 0.0):
                em.check(em.emit(mass), "== 0.0", f"_SingularHessianError({theta}, _inf)")
            # the division's own zero test is the check above, written once
            return [em.emit(self.quotient)]
        force = [em.emit(f) for f in self.net]
        if isinstance(self.solved, list):
            return [em.emit(x) for x in self.solved]
        return linsolve.emit_solve(
            em, [[em.emit(m) for m in row] for row in self.mass], force,
            lambda exc: f"raise _SingularHessianError({theta}, {exc}.condition_estimate) from {exc}",
        )

    def shape_key(self) -> tuple[tuple, tuple]:
        """What :meth:`emit_accelerations` reads besides its trees, and
        those trees, for :func:`~fracnoether.expressions.shaped` (the RK4
        loop and :meth:`__call__`): n, and the quotient and the mass tree
        of one degree of freedom.  More read the net force trees, and the
        trees of :attr:`solved` or else the mass trees.  Every constant of
        them is a slot of the shape, so masses eliminated alike share one
        emission."""
        if self.n == 1:
            return (1,), ([self.quotient], self.mass)
        return (self.n,), (self.net, self.solved if isinstance(self.solved, list) else self.mass)

    @cached_property
    def _accelerations(self):
        """``f(theta, q, v) -> accel``, shared by every ODE of its shape."""
        def emit(em: Emitter):
            source, name, names = em.function(
                f"[{', '.join(self.emit_accelerations(em, 'theta'))}]")
            return source, name, {**names, **self.NAMES}

        key, trees = self.shape_key()
        return shaped(("accelerations", *key), trees, emit)

    def __call__(self, theta: float, q, v) -> list:
        return self._accelerations(theta, q, v)


@alpha_free
def _force_and_mass(prob: VariationalProblem) -> tuple[list, list, tuple | None]:
    """The force and mass trees of :class:`ExplicitOde`, and the constant mass."""
    force, mass = [], []
    for j, p in enumerate(prob.momentum):
        rate, accel_coeffs = along_motion(p, prob.n)
        force.append(sub(prob.lagrangian.diff(Q(j)), rate))
        mass.append(accel_coeffs)
    constant = (
        tuple(tuple(float(m.value) for m in row) for row in mass)
        if all(type(m) is Const for row in mass for m in row) else None
    )
    return force, mass, constant


def to_explicit_ode(prob: VariationalProblem) -> ExplicitOde:
    """Rearrange the Euler-Lagrange equation into explicit accelerations.

    A constant singular mass matrix raises :class:`SingularHessianError`
    here, reported at the interval midpoint; no tree is evaluated.  Any
    other degenerate velocity Hessian raises it where a solve meets it.
    """
    ode = ExplicitOde(prob)
    mid = 0.5 * (prob.a + prob.b)
    if prob.n == 1 and ode.constant_mass is not None and ode.constant_mass[0][0] == 0.0:
        raise SingularHessianError(mid, float("inf"))
    if isinstance(ode.solved, linsolve.SingularMatrixError):
        raise SingularHessianError(mid, ode.solved.condition_estimate) from ode.solved
    return ode
