"""Fixed-step RK4 integration with running quadrature channels, and a
Newton shooting solver for two-point boundary problems.

Channels are named integrands g(theta, q, v) accumulated alongside the
state by evaluating g on the RK4 stage states with the classical
1/6-2/6-2/6-1/6 weights, i.e. the integral is treated as one more state
component of the augmented system.  That keeps channel accuracy in step
with the trajectory instead of degrading to trapezoid order.

The step loop itself is generated: :func:`ivp_solve` compiles the whole
loop once into straight-line Python over local scalars, with the
accelerations of an :class:`ExplicitOde` right-hand side
(:meth:`ExplicitOde.emit_accelerations`, the same statements its own call
runs) and the trees of expression integrands written out at each of the
four stage points (subtrees shared at one point computed once), and any
other callable called at each stage.  An ``ExplicitOde`` keeps its
compiled loops, one per integrand set, and a loop whose trees have the
shape of an earlier one, as at the next alpha of a sweep, is not emitted
again.  :func:`ivp_solve` tests the rows finite once per solve, not the
loop at every step.  The Newton solves of :func:`bvp_shoot` run the
channel-less loop keeping only the state at b, and the one trajectory a
shoot returns is a solve at the final velocity with its channels.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import linsolve
from .euler_lagrange import ExplicitOde, VariationalProblem, to_explicit_ode
from .expressions import Emitter, Expr, ExpressionError, shaped


class BlowUpError(RuntimeError):
    """State left the finite floats during integration."""

    def __init__(self, theta: float):
        super().__init__(f"non-finite state detected at theta = {theta!r}")
        self.theta = theta


class ShootingError(RuntimeError):
    """Structural failure of the shooting iteration (singular Jacobian)."""


# Grid uniformity tolerance, one part in 1e-12 of the step.
_GRID_RTOL = 1e-12


def _check_grid(grid: np.ndarray) -> int:
    """Raise ``ValueError`` unless ``grid`` is a strictly increasing uniform
    float grid of at least two nodes; return its node count."""
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("theta grid needs at least two points")
    steps = np.diff(grid)
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    if h <= 0 or np.any(np.abs(steps - h) > _GRID_RTOL * abs(h) + 1e-300):
        raise ValueError("theta grid must be strictly increasing and uniform")
    return grid.size


def uniform_grid(a: float, b: float, steps: int) -> np.ndarray:
    """The ``steps + 1`` nodes from ``a`` to ``b`` that :func:`ivp_solve`
    steps over; ``ValueError`` where floats cannot space them uniformly, as
    on ``[1e14, 1e14 + 1]`` in 2000 steps."""
    grid = np.linspace(float(a), float(b), steps + 1)
    _check_grid(grid)
    return grid


# The "%.17g" texts of the last theta grid written, keyed by its bytes.
_theta_texts: tuple[bytes, list[str]] = (b"", [])


def write_table(
    path, header: Sequence[str], theta_grid, columns: Sequence, trailer: str = ""
) -> None:
    """Write the CSV line ``header``, one row ``theta,column values..`` per
    grid node with 17 significant digits, then ``trailer``.

    Trajectory and charge CSVs are written here.  The theta texts of the
    last grid written are kept, keyed by the bytes of the grid as floats
    (an int grid must not match the float grid of the same bytes), so the
    CSVs of one grid format it once.  A row is the ``"%s"`` of a kept text
    and the ``"%.17g"`` of each column value, the same bytes as formatting
    every value anew.
    """
    global _theta_texts
    grid = np.asarray(theta_grid, dtype=float)
    key = grid.tobytes()
    cached, texts = _theta_texts
    if cached != key:
        texts = ["%.17g" % x for x in grid.tolist()]
        _theta_texts = (key, texts)
    width = len(columns) + 1
    args = [None] * (width * len(texts))
    args[::width] = texts
    for j, column in enumerate(columns, 1):
        args[j::width] = np.asarray(column, dtype=float).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((("%s" + ",%.17g" * len(columns) + "\n") * len(texts)) % tuple(args))
        fh.write(trailer)


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
        rows = _check_grid(np.asarray(self.theta_grid, dtype=float))
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

    def check_n_dof(self, n: int) -> None:
        """Raise ``ValueError`` unless the trajectory has ``n`` degrees of freedom."""
        if self.n_dof != n:
            raise ValueError(f"trajectory has {self.n_dof} degrees of freedom, the problem {n}")

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
        columns = [*self.q.T, *self.v.T, *self.channels.values()]
        write_table(path, header, self.theta_grid, columns)


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
    if isinstance(rhs, ExplicitOde) and rhs.n != n:
        raise ValueError(f"q0 and v0 have length {n}, the ODE has {rhs.n} degrees of freedom")

    grid = uniform_grid(a, b, steps)
    h = (float(b) - float(a)) / steps
    names = list(integrands) if integrands else []
    loop = _rk4_loop(rhs, n, [integrands[name] for name in names])

    # Rows (q, v, channels) are appended flat, as C doubles, and shaped once.
    rows = array("d", qc + vc + [0.0] * len(names))
    width = len(rows)
    try:
        loop(grid.tolist(), h, 0.5 * h, h / 6.0, qc + vc, rows.extend)
    except Exception:
        _finite_rows(rows, width, grid)
        raise
    table = _finite_rows(rows, width, grid)
    return Trajectory(
        theta_grid=grid,
        q=table[:, :n].copy(),
        v=table[:, n : 2 * n].copy(),
        channels={name: table[:, 2 * n + idx].copy() for idx, name in enumerate(names)},
    )


def _final_state(
    rhs: ExplicitOde, a: float, b: float, q0: Sequence[float], steps: int
) -> Callable:
    """``final_state(v0)``: the last row ``(q.., v..)`` of ``ivp_solve(rhs, a, b,
    q0, v0, steps)``, for any ``v0`` of the ODE's length, from the same
    compiled loop keeping only that row; no trajectory is built.

    Validates as :func:`ivp_solve` does, once.  The loop only adds to q and
    v, so a finite last row means every row was finite.  Where the loop
    raises or the last row is not finite, that solve runs again through
    :func:`ivp_solve`, which raises its error, with the same theta and message.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    qc = [float(x) for x in q0]
    if rhs.n != len(qc):
        raise ValueError(f"q0 and v0 have length {len(qc)}, the ODE has {rhs.n} degrees of freedom")
    nodes = uniform_grid(a, b, steps).tolist()
    h = (float(b) - float(a)) / steps
    loop = _rk4_loop(rhs, rhs.n, [])

    def final_state(v0: Sequence[float]) -> tuple:
        vc = [float(x) for x in v0]
        last = deque(maxlen=1)
        try:
            loop(nodes, h, 0.5 * h, h / 6.0, qc + vc, last.append)
        except Exception:
            last.clear()
        if last and all(map(math.isfinite, last[0])):
            return last[0]
        traj = ivp_solve(rhs, a, b, qc, vc, steps)
        return (*traj.q[-1], *traj.v[-1])

    return final_state


def _finite_rows(rows: array, width: int, grid: np.ndarray) -> np.ndarray:
    """The flat rows as a table of ``width`` columns; :class:`BlowUpError` at the
    node of the first non-finite row after the initial state.  The loop only adds to
    q, v and the channels, so a state that left the finite floats stays out: that row
    is where a test after every step stops, whatever a later step of the loop raised."""
    table = np.frombuffer(rows).reshape(-1, width)
    bad = ~np.isfinite(table[1:]).all(axis=1)
    if bad.any():
        raise BlowUpError(float(grid[1 + int(bad.argmax())])) from None
    return table


def _rk4_loop(rhs: Callable, n: int, integrands: Sequence) -> Callable:
    """The compiled step loop for this right-hand side and integrand list,
    cached on an :class:`ExplicitOde`."""
    if not isinstance(rhs, ExplicitOde):
        return _compile_rk4_loop(rhs, n, integrands)
    key = tuple(integrands)  # nodes hash by identity, and the key keeps them alive
    loop = rhs.loops.get(key)
    if loop is None:
        loop = rhs.loops[key] = _compile_rk4_loop(rhs, n, integrands)
    return loop


def _compile_rk4_loop(rhs: Callable, n: int, integrands: Sequence) -> Callable:
    """Compile ``loop(nodes, h, hh, h6, state, out)``, the whole RK4 step loop
    of :func:`_emit_rk4_loop`.

    A loop that writes out every tree, an :class:`ExplicitOde` ``rhs`` and
    :class:`Expr` integrands, is emitted once per shape of its trees
    (:func:`~fracnoether.expressions.shaped`): the loops of a sweep's
    alphas differ only in the named value 1 - alpha.
    """
    emit = functools.partial(_emit_rk4_loop, rhs, n, integrands)
    if isinstance(rhs, ExplicitOde) and all(isinstance(g, Expr) for g in integrands):
        key, trees = rhs.shape_key()
        return shaped(("loop", *key), (*trees, integrands), emit)
    em = Emitter()
    source, name, names = emit(em)
    return em.define(source, name, **names)


def _emit_rk4_loop(rhs: Callable, n: int, integrands: Sequence, em: Emitter):
    """Emit ``loop(nodes, h, hh, h6, state, out)``, the whole RK4 step loop,
    into ``em``; return its source, name and names for ``em.define``.

    The state ``q0.., v0..`` and every stage value live in local scalars.
    Each step computes the four stage accelerations, then each channel at
    stages 1-4 in order, with the arithmetic of the classical tableau;
    ``OverflowError`` there, or the ``ValueError`` of ``sin`` or ``cos`` of
    an infinity (an :class:`ExpressionError` passes as it is), becomes
    :class:`BlowUpError` at the step's end.  Each step passes its row
    ``(q.., v.., channels..)`` to ``out``; :func:`ivp_solve` tests the rows
    finite once, after the loop.

    The constants and math functions the statements read are keyword
    defaults of ``loop``, so the body reads them as locals.
    An :class:`ExplicitOde` ``rhs`` has its accelerations emitted at each
    stage point by :meth:`ExplicitOde.emit_accelerations`.
    :class:`Expr` integrands are emitted at the same points, reusing the
    subtrees already computed there.  Everything else is called with the
    stage point as lists.
    """
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
        if isinstance(rhs, ExplicitOde):
            em.at(theta, sq, sv)
            k = rhs.emit_accelerations(em, theta)
        else:
            k = [f"k{s}_{j}" for j in js]
            em.line(f"k{s} = {call('_rhs', theta, sq, sv)}")
            for j in js:
                em.line(f"{k[j]} = k{s}[{j}]")
        accels.append(k)

    names = {"_BlowUpError": BlowUpError, "_ExpressionError": ExpressionError, **ExplicitOde.NAMES}
    if not isinstance(rhs, ExplicitOde):
        names["_rhs"] = rhs
    for idx, g in enumerate(integrands):
        values = []
        for s, (theta, sq, sv) in enumerate(points, 1):
            if isinstance(g, Expr):
                em.at(theta, sq, sv)
                values.append(em.emit(g))
            else:
                names[f"_g{idx}"] = g.evaluate
                values.append(f"g{idx}_{s}")
                em.line(f"{values[-1]} = {call(f'_g{idx}', theta, sq, sv)}")
        g1, g2, g3, g4 = values
        em.line(f"c{idx} += h6 * ({g1} + 2.0 * {g2} + 2.0 * {g3} + {g4})")

    row = q + v + [f"c{idx}" for idx in range(len(integrands))]
    k1, k2, k3, k4 = accels
    source = [
        f"def loop(nodes, h, hh, h6, state, out{em.keyword_defaults()}):",
        f"    {', '.join(q + v)}, = state",
        *(f"    c{idx} = 0.0" for idx in range(len(integrands))),
        "    for th, full in zip(nodes[:-1], nodes[1:]):",
        "        half = th + hh",
        "        try:",
        *em.body("            "),
        "        except _ExpressionError:",
        "            raise",
        "        except (OverflowError, ValueError) as exc:",
        "            raise _BlowUpError(full) from exc",
        *(f"        q{j} = q{j} + h6 * (v{j} + 2.0 * s2v_{j} + 2.0 * s3v_{j} + s4v_{j})"
          for j in js),
        *(f"        v{j} = v{j} + h6 * ({k1[j]} + 2.0 * {k2[j]} + 2.0 * {k3[j]} + {k4[j]})"
          for j in js),
        f"        out({tup(row)})",
    ]
    return source, "loop", names


# Newton shooting has converged once no boundary miss exceeds SHOOTING_TOL,
# and gives up after SHOOTING_MAX_ITER iterations.
SHOOTING_TOL = 1e-9
SHOOTING_MAX_ITER = 50


def bvp_shoot(
    prob: VariationalProblem,
    steps: int = 1000,
    integrands: Mapping[str, Expr] | None = None,
) -> tuple[Trajectory, ShootingReport]:
    """Newton shooting on the initial velocity.

    Forward finite differences supply the Jacobian of the boundary map
    v0 -> q(b; v0) - q_b, until no component of the miss exceeds
    ``SHOOTING_TOL``.  The Newton solves run one compiled loop on one
    :class:`ExplicitOde` and keep only the state at b
    (:func:`_final_state`); the trajectory returned, with the requested
    channel integrands, is one :func:`ivp_solve` at the final velocity,
    converged or not, and the report's miss is that solve's.
    """
    if prob.boundary is None:
        raise ValueError("bvp_shoot requires boundary conditions on the problem")
    rhs = to_explicit_ode(prob)
    a, b = prob.interval
    q_a = np.array(prob.boundary.q_a)
    q_b = np.array(prob.boundary.q_b)
    n = prob.n

    v0 = (q_b - q_a) / (b - a)
    final_state = _final_state(rhs, a, b, q_a, steps)

    def boundary_miss(v_init: np.ndarray) -> np.ndarray:
        return np.array(final_state(v_init)[:n]) - q_b

    miss = boundary_miss(v0)
    iterations = 0
    converged = bool(np.max(np.abs(miss)) <= SHOOTING_TOL)

    while not converged and iterations < SHOOTING_MAX_ITER:
        jac = np.empty((n, n))
        for k in range(n):
            delta = 1e-6 * (1.0 + abs(v0[k]))
            probe = v0.copy()
            probe[k] += delta
            jac[:, k] = (boundary_miss(probe) - miss) / delta
        try:
            step = linsolve.solve(jac, -miss)
        except linsolve.SingularMatrixError as exc:
            raise ShootingError(f"singular shooting Jacobian: {exc}") from exc
        v0 = v0 + step
        miss = boundary_miss(v0)
        iterations += 1
        converged = bool(np.max(np.abs(miss)) <= SHOOTING_TOL)

    traj = ivp_solve(rhs, a, b, q_a, v0, steps, integrands=integrands)
    report = ShootingReport(
        converged=converged,
        iterations=iterations,
        boundary_miss=tuple(float(x) for x in traj.q[-1] - q_b),
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
