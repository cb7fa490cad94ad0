"""Weighted action evaluation and first-variation diagnostics.

The action of a trajectory is one composite Simpson sum of
``L(theta, q, v) * (t - theta)^(alpha - 1)`` over the stored grid, divided
by Gamma(alpha), which is ``math.gamma``; the integrand is one tree
(``VariationalProblem.action_integrand``), sampled like every charge, and
the sums over the odd and the even interior nodes are ``math.fsum``,
correctly rounded.
The kernel is smooth on the whole interval because the observer time sits
strictly beyond it, so Simpson's 4th order is ample and no singular
quadrature is needed.
"""

from __future__ import annotations

import math
from typing import Sequence

from .euler_lagrange import VariationalProblem
from .expressions import (
    EvalDomainError, Expr, Theta, depends_on_velocity, evaluate_on_grid, max_coordinate_index,
)
from .integrators import Sample, Trajectory, log_log_slope
from .records import Record


def gamma_fn(x: float) -> float:
    """Euler gamma (``math.gamma``) of a positive argument."""
    if not x > 0.0:
        raise ValueError(f"gamma function requires a positive argument, got {x!r}")
    return math.gamma(x)


class StationarityReport(Record):
    """First-variation probe of a trajectory under a boundary-vanishing bump."""

    base_action: float
    fitted_exponent: float | None
    first_order_coefficient: float
    epsilons: tuple
    deltas: tuple


def action_sample(prob: VariationalProblem) -> Sample:
    """The integrand of :func:`fractional_action`, for a solve to sample."""
    return Sample(prob.action_integrand)


def fractional_action(prob: VariationalProblem, traj: Trajectory) -> float:
    """The composite Simpson sum of the weighted Lagrangian over the
    trajectory, divided by Gamma(alpha), its integrand taken from the solve
    where it sampled it.  An action whose sums overflow, or that is not
    finite, raises :class:`EvalDomainError`."""
    traj.check_n_dof(prob.n)
    a, b = prob.interval
    grid = traj.theta_grid
    if abs(grid[0] - a) > 1e-9 or abs(grid[-1] - b) > 1e-9:
        raise ValueError("trajectory does not span the problem interval")
    n = traj.steps
    if n % 2 != 0:
        raise ValueError("action quadrature needs an even step count")
    f = traj.sample(action_sample(prob))
    try:
        simpson = (b - a) / n / 3.0 * (
            f[0] + f[-1] + 4.0 * math.fsum(f[1:-1:2]) + 2.0 * math.fsum(f[2:-1:2]))
    except OverflowError:  # math.fsum's intermediate overflow
        simpson = math.inf
    value = simpson / gamma_fn(prob.frac.alpha)
    if not math.isfinite(value):
        raise EvalDomainError("non-finite action")
    return value


# Bump endpoint values beyond this tolerance violate the fixed-boundary
# requirement of the first variation.
_BUMP_BOUNDARY_TOL = 1e-10


def stationarity_check(
    prob: VariationalProblem,
    extremal: Trajectory,
    bump: Expr,
    eps_ladder: Sequence[float],
) -> StationarityReport:
    """Probe first-order stationarity of a trajectory.

    Perturbs the trajectory by eps * bump(theta) (velocities by the bump's
    exact theta-derivative), evaluates the action over the eps ladder, and
    fits |I(eps) - I(0)| against eps.  An extremal shows a fitted exponent
    near 2 and a first-order coefficient at discretization level; any
    genuinely non-stationary trajectory shows a nonzero linear term.
    """
    if max_coordinate_index(bump) >= 0 or depends_on_velocity(bump):
        raise ValueError("bump must be a function of theta alone")
    if not eps_ladder:
        raise ValueError("need at least one epsilon")
    eps_sorted = sorted(float(e) for e in eps_ladder)
    if not all(0.0 < e < math.inf for e in eps_sorted):
        raise ValueError("epsilons must be finite and positive")
    grid = extremal.theta_grid
    zeros = [(0.0,)] * len(grid)
    bump_vals = evaluate_on_grid(bump, grid, zeros, zeros)
    scale = 1.0 + max(map(abs, bump_vals))
    if abs(bump_vals[0]) > _BUMP_BOUNDARY_TOL * scale or abs(
        bump_vals[-1]
    ) > _BUMP_BOUNDARY_TOL * scale:
        raise ValueError("bump must vanish at the interval endpoints")
    dbump_vals = evaluate_on_grid(bump.diff(Theta()), grid, zeros, zeros)

    base = fractional_action(prob, extremal)

    def perturbed_action(eps: float) -> float:
        q = [tuple(x + eps * b for x in row) for row, b in zip(extremal.q, bump_vals)]
        v = [tuple(x + eps * b for x in row) for row, b in zip(extremal.v, dbump_vals)]
        traj = Trajectory(theta_grid=grid, q=q, v=v, channels={})
        return fractional_action(prob, traj)

    plus = [perturbed_action(eps) for eps in eps_sorted]
    deltas = [abs(p - base) for p in plus]
    # the central difference needs the -eps action at the smallest eps only
    eps_min = eps_sorted[0]
    first_order = (plus[0] - perturbed_action(-eps_min)) / (2.0 * eps_min)

    usable = [(e, d) for e, d in zip(eps_sorted, deltas) if d > 0.0]
    if len(usable) >= 2:
        exponent = log_log_slope([e for e, _ in usable], [d for _, d in usable])
    else:
        exponent = None

    return StationarityReport(
        base_action=base,
        fitted_exponent=exponent,
        first_order_coefficient=first_order,
        epsilons=tuple(eps_sorted),
        deltas=tuple(deltas),
    )
