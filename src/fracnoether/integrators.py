"""Fixed-step RK4 integration with running quadrature channels, and a
Newton shooting solver for two-point boundary problems.

Channels are named integrands g(theta, q, v) accumulated alongside the
state by evaluating g on the RK4 stage states with the classical
1/6-2/6-2/6-1/6 weights, i.e. the integral is treated as one more state
component of the augmented system.  That keeps channel accuracy in step
with the trajectory instead of degrading to trapezoid order.

The step loop itself is generated: :func:`ivp_solve` compiles the whole
loop once into straight-line Python over local scalars, with the trees of
an :class:`ExplicitOde` right-hand side, the linear solve for its
accelerations (:func:`linsolve.emit_solve`, with a constant mass matrix
folded at compile time) and the trees of expression integrands written
out at each of the four stage points (subtrees shared at one point
computed once), and any other callable called at each stage.  An
``ExplicitOde`` keeps its compiled loops, one per integrand set, so the
many solves of :func:`bvp_shoot` compile two loops in all.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import linsolve
from .euler_lagrange import (
    ExplicitOde,
    SingularHessianError,
    VariationalProblem,
    to_explicit_ode,
)
from .expressions import Const, Emitter, Expr


class BlowUpError(RuntimeError):
    """State left the finite floats during integration."""

    def __init__(self, theta: float):
        super().__init__(f"non-finite state detected at theta = {theta!r}")
        self.theta = theta


class ShootingError(RuntimeError):
    """Structural failure of the shooting iteration (singular Jacobian)."""


# Grid uniformity tolerance, one part in 1e-12 of the step.
_GRID_RTOL = 1e-12


@dataclass
class Trajectory:
    """Uniform-grid samples of (theta, q, v) plus accumulated channels.

    Every channel starts at zero at the left endpoint; channel[k] holds the
    integral of its integrand from theta_grid[0] to theta_grid[k].
    """

    theta_grid: np.ndarray
    q: np.ndarray          # shape (N+1, n)
    v: np.ndarray          # shape (N+1, n)
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        grid = np.asarray(self.theta_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("theta grid needs at least two points")
        steps = np.diff(grid)
        h = (grid[-1] - grid[0]) / (grid.size - 1)
        if h <= 0 or np.any(np.abs(steps - h) > _GRID_RTOL * abs(h) + 1e-300):
            raise ValueError("theta grid must be strictly increasing and uniform")
        rows = grid.size
        if self.q.shape[0] != rows or self.v.shape[0] != rows or self.q.shape != self.v.shape:
            raise ValueError("q and v must hold one row per grid point")
        for name, values in self.channels.items():
            if values.shape != (rows,):
                raise ValueError(f"channel {name!r} length does not match the grid")
            if values[0] != 0.0:
                raise ValueError(f"channel {name!r} must start at zero")

    @property
    def n_dof(self) -> int:
        return self.q.shape[1]

    @property
    def steps(self) -> int:
        return self.theta_grid.size - 1

    def channel(self, name: str) -> np.ndarray:
        return self.channels[name]

    def write_csv(self, path) -> None:
        """Header ``theta,q0..,v0..,<channels>``; 17 significant digits."""
        n = self.n_dof
        names = list(self.channels)
        header = (
            ["theta"]
            + [f"q{j}" for j in range(n)]
            + [f"v{j}" for j in range(n)]
            + names
        )
        table = np.column_stack(
            [self.theta_grid, self.q, self.v, *(self.channels[name] for name in names)]
        )
        template = ",".join(["%.17g"] * len(header)) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(template % tuple(row) for row in table.tolist())


@dataclass(frozen=True)
class ShootingReport:
    converged: bool
    iterations: int
    boundary_miss: tuple
    initial_velocity: tuple


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form trajectory used as a convergence oracle."""

    q: Callable[[float], Sequence[float]]
    v: Callable[[float], Sequence[float]]


@dataclass(frozen=True)
class ConvergenceReport:
    step_counts: tuple
    errors: tuple
    slope: float | None
    indeterminate: bool


def ivp_solve(
    rhs: Callable,
    a: float,
    b: float,
    q0: Sequence[float],
    v0: Sequence[float],
    steps: int,
    integrands: Mapping[str, Expr] | None = None,
) -> Trajectory:
    """Classical RK4 on (q, v)' = (v, rhs) with channel accumulation.

    The step loop is one compiled function (:func:`_compile_rk4_loop`).
    An :class:`ExplicitOde` right-hand side and :class:`Expr` integrands
    are written into it stage by stage; any other ``rhs`` callable, and
    any integrand that only has an ``evaluate(theta, q, v)`` method, is
    called at each stage instead.  The loop for an ``ExplicitOde`` is
    compiled once per integrand set and kept on the ODE.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    qc = [float(x) for x in q0]
    vc = [float(x) for x in v0]
    n = len(qc)
    if len(vc) != n or n < 1:
        raise ValueError("q0 and v0 must have equal length n >= 1")

    grid = np.linspace(float(a), float(b), steps + 1)
    h = (float(b) - float(a)) / steps
    names = list(integrands) if integrands else []
    loop = _rk4_loop(rhs, n, [integrands[name] for name in names])

    # Rows (q, v, channels) are appended flat, as C doubles, and shaped once.
    rows = array("d", qc + vc + [0.0] * len(names))
    loop(grid.tolist(), h, 0.5 * h, h / 6.0, qc + vc, rows.extend)
    table = np.array(rows).reshape(steps + 1, -1)
    return Trajectory(
        theta_grid=grid,
        q=table[:, :n].copy(),
        v=table[:, n : 2 * n].copy(),
        channels={name: table[:, 2 * n + idx].copy() for idx, name in enumerate(names)},
    )


def _rk4_loop(rhs: Callable, n: int, integrands: Sequence) -> Callable:
    """The compiled step loop for this right-hand side and integrand list,
    cached on an :class:`ExplicitOde` of matching dimension."""
    if not (isinstance(rhs, ExplicitOde) and rhs.n == n):
        return _compile_rk4_loop(rhs, n, integrands, inline=False)
    key = tuple(map(id, integrands))
    hit = rhs.loops.get(key)
    if hit is None:  # the entry pins the integrands its key names
        hit = rhs.loops[key] = (integrands, _compile_rk4_loop(rhs, n, integrands, inline=True))
    return hit[1]


def _compile_rk4_loop(rhs: Callable, n: int, integrands: Sequence, inline: bool) -> Callable:
    """Compile ``loop(nodes, h, hh, h6, state, out)``, the whole RK4 step loop.

    The state ``q0.., v0..`` and every stage value live in local scalars.
    Each step computes the four stage accelerations, then each channel at
    stages 1-4 in order, with the arithmetic of the classical tableau;
    ``OverflowError`` there becomes :class:`BlowUpError` at the step's end,
    as does a non-finite state or channel after the update.  Each step
    passes its row ``(q.., v.., channels..)`` to ``out``.

    With ``inline``, ``rhs`` is an :class:`ExplicitOde` whose mass and net
    force trees are emitted at each stage point: one degree of freedom
    checks the mass for zero before any force node and divides; more emit
    the force trees, then the mass trees that are not constants, then the
    elimination of :func:`linsolve.emit_solve` over them, with the
    constant entries folded in.  :class:`Expr` integrands are emitted at
    the same points, reusing the subtrees already computed there.
    Everything else is called with the stage point as lists.
    """
    em = Emitter()
    js = range(n)
    q, v = [f"q{j}" for j in js], [f"v{j}" for j in js]
    # stage s sits at (theta, s{s}q_j, s{s}v_j); stage 1 is the state itself
    points = [("th", q, v)] + [
        (theta, [f"s{s}q_{j}" for j in js], [f"s{s}v_{j}" for j in js])
        for s, theta in ((2, "half"), (3, "half"), (4, "full"))
    ]

    def tup(names) -> str:
        return f"({', '.join(names)},)"

    def call(fn: str, theta: str, sq: list, sv: list) -> str:
        return f"{fn}({theta}, [{', '.join(sq)}], [{', '.join(sv)}])"

    accels = []
    for s, (theta, sq, sv) in enumerate(points, 1):
        if s > 1:
            step = "h" if s == 4 else "hh"
            last_v, last_a = points[s - 2][2], accels[-1]
            for j in js:
                em.line(f"{sq[j]} = {q[j]} + {step} * {last_v[j]}")
            for j in js:
                em.line(f"{sv[j]} = {v[j]} + {step} * {last_a[j]}")
        k = [f"k{s}_{j}" for j in js]
        if not inline:
            em.line(f"k{s} = {call('_rhs', theta, sq, sv)}")
            for j in js:
                em.line(f"{k[j]} = k{s}[{j}]")
        elif n == 1:
            em.at(theta, sq, sv)
            mass = em.emit(rhs.mass[0][0])
            em.line(f"if {mass} == 0.0: raise _SingularHessianError({theta}, _inf)")
            force = em.emit(rhs.net[0])
            em.line(f"{k[0]} = {force} / {mass}")
        else:
            em.at(theta, sq, sv)
            force = [em.emit(f) for f in rhs.net]
            mass = [[float(m.value) if type(m) is Const else em.emit(m) for m in row]
                    for row in rhs.mass]
            k = linsolve.emit_solve(
                em, mass, force,
                lambda exc: f"raise _SingularHessianError({theta}, {exc}.condition_estimate) from {exc}",
            )
        accels.append(k)

    callables = {}
    for idx, g in enumerate(integrands):
        values = []
        for s, (theta, sq, sv) in enumerate(points, 1):
            if isinstance(g, Expr):
                em.at(theta, sq, sv)
                values.append(em.emit(g))
            else:
                callables[f"_g{idx}"] = g.evaluate
                values.append(f"g{idx}_{s}")
                em.line(f"{values[-1]} = {call(f'_g{idx}', theta, sq, sv)}")
        g1, g2, g3, g4 = values
        em.line(f"c{idx} += h6 * ({g1} + 2.0 * {g2} + 2.0 * {g3} + {g4})")

    row = q + v + [f"c{idx}" for idx in range(len(integrands))]
    k1, k2, k3, k4 = accels
    source = [
        "def loop(nodes, h, hh, h6, state, out):",
        f"    {', '.join(q + v)}, = state",
        *(f"    c{idx} = 0.0" for idx in range(len(integrands))),
        "    for th, full in zip(nodes[:-1], nodes[1:]):",
        "        half = th + hh",
        "        try:",
        *em.body("            "),
        "        except OverflowError as exc:",
        "            raise _BlowUpError(full) from exc",
        *(f"        q{j} = q{j} + h6 * (v{j} + 2.0 * s2v_{j} + 2.0 * s3v_{j} + s4v_{j})"
          for j in js),
        *(f"        v{j} = v{j} + h6 * ({k1[j]} + 2.0 * {k2[j]} + 2.0 * {k3[j]} + {k4[j]})"
          for j in js),
        f"        out({tup(row)})",
        f"        if not ({' and '.join(f'_isfinite({x})' for x in row)}):",
        "            raise _BlowUpError(full)",
    ]
    return em.define(
        source, "loop", _rhs=rhs, _linsolve=linsolve, _inf=math.inf, _isfinite=math.isfinite,
        _BlowUpError=BlowUpError, _SingularHessianError=SingularHessianError, **callables,
    )


def bvp_shoot(
    prob: VariationalProblem,
    steps: int = 1000,
    tol: float = 1e-9,
    max_iter: int = 50,
    integrands: Mapping[str, Expr] | None = None,
) -> tuple[Trajectory, ShootingReport]:
    """Newton shooting on the initial velocity.

    Forward finite differences supply the Jacobian of the boundary map
    v0 -> q(b; v0) - q_b.  The converged solve is repeated once with the
    requested channel integrands attached.  Every solve runs on one
    :class:`ExplicitOde`, so the probes share one compiled loop and the
    channel solve compiles one more.
    """
    if prob.boundary is None:
        raise ValueError("bvp_shoot requires boundary conditions on the problem")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = to_explicit_ode(prob)
    a, b = prob.interval
    q_a = np.array(prob.boundary.q_a)
    q_b = np.array(prob.boundary.q_b)
    n = prob.n

    v0 = (q_b - q_a) / (b - a)

    def boundary_miss(v_init: np.ndarray) -> tuple[np.ndarray, Trajectory]:
        traj = ivp_solve(rhs, a, b, q_a, v_init, steps)
        return traj.q[-1] - q_b, traj

    miss, traj = boundary_miss(v0)
    iterations = 0
    converged = bool(np.max(np.abs(miss)) <= tol)

    while not converged and iterations < max_iter:
        jac = np.empty((n, n))
        for k in range(n):
            delta = 1e-6 * (1.0 + abs(v0[k]))
            probe = v0.copy()
            probe[k] += delta
            miss_k, _ = boundary_miss(probe)
            jac[:, k] = (miss_k - miss) / delta
        try:
            step = linsolve.solve(jac, -miss)
        except linsolve.SingularMatrixError as exc:
            raise ShootingError(f"singular shooting Jacobian: {exc}") from exc
        v0 = v0 + step
        miss, traj = boundary_miss(v0)
        iterations += 1
        converged = bool(np.max(np.abs(miss)) <= tol)

    if converged and integrands:
        traj = ivp_solve(rhs, a, b, q_a, v0, steps, integrands=integrands)
        miss = traj.q[-1] - q_b

    report = ShootingReport(
        converged=converged,
        iterations=iterations,
        boundary_miss=tuple(float(x) for x in miss),
        initial_velocity=tuple(float(x) for x in v0),
    )
    return traj, report


# Errors below this fraction of the solution scale count as rounding noise
# for order measurement.
_ORDER_FLOOR_RTOL = 1e-13


def convergence_order(
    prob: VariationalProblem,
    exact: ExactSolution,
    step_counts: Sequence[int],
) -> ConvergenceReport:
    """Least-squares slope of log(max error) against log(h).

    Initial conditions are read off the exact solution at a.  When every
    error sits at rounding level the order is reported indeterminate.
    """
    if len(step_counts) < 2:
        raise ValueError("need at least two step counts")
    rhs = to_explicit_ode(prob)
    a, b = prob.interval
    q0 = exact.q(a)
    v0 = exact.v(a)

    errors = []
    scale = 0.0
    for steps in step_counts:
        traj = ivp_solve(rhs, a, b, q0, v0, steps)
        ref = np.array([exact.q(float(th)) for th in traj.theta_grid])
        scale = max(scale, float(np.max(np.abs(ref))))
        errors.append(float(np.max(np.abs(traj.q - ref))))

    floor = _ORDER_FLOOR_RTOL * (1.0 + scale)
    if all(err <= floor for err in errors):
        return ConvergenceReport(
            step_counts=tuple(step_counts),
            errors=tuple(errors),
            slope=None,
            indeterminate=True,
        )

    hs = [(b - a) / steps for steps in step_counts]
    log_h = np.log(hs)
    log_e = np.log([max(err, 1e-300) for err in errors])
    slope = float(np.polyfit(log_h, log_e, 1)[0])
    return ConvergenceReport(
        step_counts=tuple(step_counts),
        errors=tuple(errors),
        slope=slope,
        indeterminate=False,
    )
