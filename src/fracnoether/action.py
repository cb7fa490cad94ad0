"""Weighted action evaluation and first-variation diagnostics.

The action of a trajectory is the Simpson quadrature of
``L(theta, q, v) * (t - theta)^(alpha - 1)`` over the stored grid, divided
by Gamma(alpha).  The kernel is smooth on the whole interval because the
observer time sits strictly beyond it, so Simpson's 4th order is ample and
no singular quadrature is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .euler_lagrange import VariationalProblem
from .expressions import Expr, Theta, depends_on_velocity, evaluate_on_grid, max_coordinate_index
from .integrators import Trajectory

# Lanczos approximation, g = 7 with the standard 9-term coefficient set.
# Relative error stays below 1e-13 across (0, 50], which the unit tests
# pin against exact factorials and the reflection/recurrence identities.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma_fn(x: float) -> float:
    """Euler gamma for positive arguments via the Lanczos series."""
    if not x > 0.0:
        raise ValueError(f"gamma function requires a positive argument, got {x!r}")
    return _gamma(x)


def _gamma(x: float) -> float:
    if x < 0.5:
        # reflection keeps the series argument comfortably positive
        return math.pi / (math.sin(math.pi * x) * _gamma(1.0 - x))
    z = x - 1.0
    series = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        series += _LANCZOS_COEF[i] / (z + i)
    s = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * s ** (z + 0.5) * math.exp(-s) * series


@dataclass(frozen=True)
class ActionValue:
    value: float
    quadrature_error_estimate: float


@dataclass(frozen=True)
class StationarityReport:
    """First-variation probe of a trajectory under a boundary-vanishing bump."""

    base_action: float
    fitted_exponent: float | None
    first_order_coefficient: float
    epsilons: tuple
    deltas: tuple


def _simpson(values: np.ndarray, h: float) -> float:
    n = values.size - 1
    if n % 2 != 0:
        raise ValueError("Simpson quadrature needs an even number of steps")
    return (
        h
        / 3.0
        * (
            values[0]
            + values[-1]
            + 4.0 * values[1:-1:2].sum()
            + 2.0 * values[2:-1:2].sum()
        )
    )


def _weighted_integrand(prob: VariationalProblem, traj: Trajectory) -> np.ndarray:
    grid = traj.theta_grid
    lagr = evaluate_on_grid(prob.lagrangian, grid, traj.q, traj.v)
    return lagr * prob.frac.weight(grid)


def fractional_action(prob: VariationalProblem, traj: Trajectory) -> ActionValue:
    """Simpson quadrature of the weighted Lagrangian over the trajectory."""
    a, b = prob.interval
    grid = traj.theta_grid
    if abs(grid[0] - a) > 1e-9 or abs(grid[-1] - b) > 1e-9:
        raise ValueError("trajectory does not span the problem interval")
    n = traj.steps
    if n % 2 != 0:
        raise ValueError("action quadrature needs an even step count")
    h = (b - a) / n
    f = _weighted_integrand(prob, traj)
    gamma_alpha = gamma_fn(prob.frac.alpha)
    value = _simpson(f, h) / gamma_alpha
    if n % 4 == 0:
        coarse = _simpson(f[::2], 2.0 * h) / gamma_alpha
    else:
        coarse = h * (0.5 * f[0] + f[1:-1].sum() + 0.5 * f[-1]) / gamma_alpha
    return ActionValue(value=value, quadrature_error_estimate=abs(value - coarse))


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
    grid = extremal.theta_grid
    bump_vals = evaluate_on_grid(
        bump, grid, np.zeros((grid.size, 1)), np.zeros((grid.size, 1))
    )
    scale = 1.0 + float(np.max(np.abs(bump_vals)))
    if abs(bump_vals[0]) > _BUMP_BOUNDARY_TOL * scale or abs(
        bump_vals[-1]
    ) > _BUMP_BOUNDARY_TOL * scale:
        raise ValueError("bump must vanish at the interval endpoints")
    dbump_vals = evaluate_on_grid(
        bump.diff(Theta()), grid, np.zeros((grid.size, 1)), np.zeros((grid.size, 1))
    )

    base = fractional_action(prob, extremal).value

    def perturbed_action(eps: float) -> float:
        q = extremal.q + eps * bump_vals[:, None]
        v = extremal.v + eps * dbump_vals[:, None]
        traj = Trajectory(theta_grid=grid, q=q, v=v, channels={})
        return fractional_action(prob, traj).value

    eps_sorted = sorted(float(e) for e in eps_ladder)
    deltas = []
    plus_minus = {}
    for eps in eps_sorted:
        plus = perturbed_action(eps)
        minus = perturbed_action(-eps)
        plus_minus[eps] = (plus, minus)
        deltas.append(abs(plus - base))

    eps_min = eps_sorted[0]
    plus, minus = plus_minus[eps_min]
    first_order = (plus - minus) / (2.0 * eps_min)

    usable = [(e, d) for e, d in zip(eps_sorted, deltas) if d > 0.0]
    if len(usable) >= 2:
        log_eps = np.log([e for e, _ in usable])
        log_d = np.log([d for _, d in usable])
        exponent = float(np.polyfit(log_eps, log_d, 1)[0])
    else:
        exponent = None

    return StationarityReport(
        base_action=base,
        fitted_exponent=exponent,
        first_order_coefficient=first_order,
        epsilons=tuple(eps_sorted),
        deltas=tuple(deltas),
    )
