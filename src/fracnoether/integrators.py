"""Fixed-step RK4 integration with running quadrature channels, and a
Newton shooting solver for two-point boundary problems.

Channels are named integrands g(theta, q, v) accumulated alongside the
state by evaluating g on the RK4 stage states with the classical
1/6-2/6-2/6-1/6 weights, i.e. the integral is treated as one more state
component of the augmented system.  That keeps channel accuracy in step
with the trajectory instead of degrading to trapezoid order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import linsolve
from .euler_lagrange import VariationalProblem, to_explicit_ode
from .expressions import Expr


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

    Each integrand needs only an ``evaluate(theta, q, v)`` method, bound
    once before the step loop; for an :class:`Expr` that is its compiled
    evaluator.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    qc = [float(x) for x in q0]
    vc = [float(x) for x in v0]
    n = len(qc)
    if len(vc) != n or n < 1:
        raise ValueError("q0 and v0 must have equal length n >= 1")

    grid = np.linspace(float(a), float(b), steps + 1)
    nodes = grid.tolist()
    h = (float(b) - float(a)) / steps
    hh = 0.5 * h
    h6 = h / 6.0
    names = list(integrands) if integrands else []
    gfuncs = [integrands[name].evaluate for name in names]
    isfinite = math.isfinite

    # Samples are appended flat, as C doubles, and shaped once at the end.
    q_out = array("d", qc)
    v_out = array("d", vc)
    ch = [0.0] * len(names)
    chan = array("d", ch)

    rng = range(n)
    for i in range(steps):
        th = nodes[i]
        half = th + hh
        full = nodes[i + 1]

        try:
            a1 = rhs(th, qc, vc)
            s2q = [qc[j] + hh * vc[j] for j in rng]
            s2v = [vc[j] + hh * a1[j] for j in rng]
            a2 = rhs(half, s2q, s2v)
            s3q = [qc[j] + hh * s2v[j] for j in rng]
            s3v = [vc[j] + hh * a2[j] for j in rng]
            a3 = rhs(half, s3q, s3v)
            s4q = [qc[j] + h * s3v[j] for j in rng]
            s4v = [vc[j] + h * a3[j] for j in rng]
            a4 = rhs(full, s4q, s4v)

            for idx, g in enumerate(gfuncs):
                total = (
                    g(th, qc, vc)
                    + 2.0 * g(half, s2q, s2v)
                    + 2.0 * g(half, s3q, s3v)
                    + g(full, s4q, s4v)
                )
                ch[idx] += h6 * total
        except OverflowError as exc:
            raise BlowUpError(full) from exc

        qc = [qc[j] + h6 * (vc[j] + 2.0 * s2v[j] + 2.0 * s3v[j] + s4v[j]) for j in rng]
        vc = [vc[j] + h6 * (a1[j] + 2.0 * a2[j] + 2.0 * a3[j] + a4[j]) for j in rng]
        q_out.extend(qc)
        v_out.extend(vc)
        chan.extend(ch)

        if not (all(map(isfinite, qc)) and all(map(isfinite, vc)) and all(map(isfinite, ch))):
            raise BlowUpError(full)

    rows = steps + 1
    chan = np.array(chan).reshape(rows, len(names))
    channels = {name: chan[:, idx].copy() for idx, name in enumerate(names)}
    return Trajectory(
        theta_grid=grid,
        q=np.array(q_out).reshape(rows, n),
        v=np.array(v_out).reshape(rows, n),
        channels=channels,
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
    requested channel integrands attached.
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
