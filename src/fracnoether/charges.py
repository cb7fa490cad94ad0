"""Symmetry generators, gauge rates, and conserved-charge candidates.

A generator is a pair (tau(theta, q), xi(theta, q)) describing an
infinitesimal shift of intrinsic time and coordinates.  For any generator,
:func:`gauge_rate_from_reduced_condition` produces the unique gauge rate
that balances the weighted-invariance condition identically, and the
charge

    C = dL/dv . xi + (L - dL/dv . v) tau - Lambda

is then constant along solutions of the weighted Euler-Lagrange equation.
Lambda is the gauge rate accumulated by quadrature from the left endpoint;
the running correction integrals of the specialized energy/momentum
charges use the same base point, so all charges are pinned up to the
additive constant that drift statistics ignore anyway.

The energy charge needs a Lagrangian whose tree has no ``theta`` node, and
the momentum charge for q_i one with no ``q_i`` node.  Both preconditions
are decided on the expression structure, never by sampling.

Drift of a sampled series is max |C(theta_k) - C(theta_0)|; the relative
form divides by (1 + max |C|) to stay scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .euler_lagrange import ExplicitOde, VariationalProblem, along_motion, to_explicit_ode
from .expressions import (
    Const,
    EvalPoint,
    Expr,
    Q,
    Theta,
    V,
    add,
    depends_on_velocity,
    evaluate,
    evaluate_on_grid,
    mul,
    references,
    sub,
)
from .integrators import Trajectory

# Channel names the specialized charges expect on a trajectory.
LAMBDA_CHANNEL = "Lambda"
ENERGY_CHANNEL = "energy_correction"
MOMENTUM_CHANNEL = "momentum_correction_{dof}"


class ChargePreconditionError(ValueError):
    """A charge was requested for a Lagrangian that does not satisfy its
    structural precondition (explicit theta dependence, q dependence, or a
    velocity-dependent generator)."""


class MissingChannelError(LookupError):
    """The trajectory lacks a required accumulated channel."""


@dataclass(frozen=True)
class SymmetryGenerator:
    """Pair (tau, xi) over (theta, q), with an optional gauge rate over
    (theta, q, v)."""

    tau: Expr
    xi: tuple
    gauge_rate: Expr | None = None

    def __init__(self, tau: Expr, xi: Sequence[Expr], gauge_rate: Expr | None = None):
        xi = tuple(xi)
        if depends_on_velocity(tau) or any(depends_on_velocity(x) for x in xi):
            raise ChargePreconditionError(
                "generators may not depend on velocities: tau and xi are functions of (theta, q)"
            )
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "gauge_rate", gauge_rate)

    @property
    def n(self) -> int:
        return len(self.xi)

    def with_gauge(self, gauge_rate: Expr) -> "SymmetryGenerator":
        return SymmetryGenerator(self.tau, self.xi, gauge_rate)


@dataclass(frozen=True)
class ChargeSeries:
    """Samples of a candidate constant of motion with drift statistics."""

    theta_grid: np.ndarray
    values: np.ndarray
    drift: float
    relative_drift: float

    @classmethod
    def from_values(cls, theta_grid: np.ndarray, values: np.ndarray) -> "ChargeSeries":
        theta_grid = np.asarray(theta_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if theta_grid.shape != values.shape:
            raise ValueError("theta grid and values must share length")
        d, rd = _drift_stats(values)
        return cls(theta_grid=theta_grid, values=values, drift=d, relative_drift=rd)

    def write_csv(self, path) -> None:
        """Rows ``theta,value`` plus a trailing drift comment line."""
        table = np.column_stack([self.theta_grid, self.values])
        with open(path, "w", newline="") as fh:
            fh.write("theta,value\n")
            fh.writelines("%.17g,%.17g\n" % (th, val) for th, val in table.tolist())
            fh.write(
                f"# drift={format(self.drift, '.17g')} "
                f"relative_drift={format(self.relative_drift, '.17g')}\n"
            )


def _drift_stats(values: np.ndarray) -> tuple[float, float]:
    d = float(np.max(np.abs(values - values[0])))
    return d, d / (1.0 + float(np.max(np.abs(values))))


def drift(series: ChargeSeries) -> tuple[float, float]:
    """Recompute (drift, relative_drift) from the stored samples."""
    return _drift_stats(np.asarray(series.values, dtype=float))


# --------------------------------------------------------------------------
# Derivatives along the motion


class TotalDerivative:
    """d/dtheta of one expression along a motion, for evaluation at many points.

    The pieces of :func:`along_motion` are built once and each compiled on
    first evaluation; the acceleration is only required when e actually
    references a velocity.
    """

    def __init__(self, e: Expr, n: int):
        self.n = n
        self.rate, self.accel_coeffs = along_motion(e, n)
        self.needs_accel = depends_on_velocity(e)

    def __call__(self, point: EvalPoint, accel=None) -> float:
        if point.n != self.n:
            raise ValueError("point dimension does not match the expression's n")
        out = evaluate(self.rate, point)
        if self.needs_accel:
            if accel is None:
                raise ValueError("accel is required for a velocity-dependent expression")
            for coeff, a in zip(self.accel_coeffs, accel, strict=True):
                out += evaluate(coeff, point) * float(a)
        return out


# --------------------------------------------------------------------------
# Invariance-condition residuals


class InvarianceResiduals:
    """The invariance-condition residuals of one generator, for many points.

    The trees of condition (8) and, when the generator carries a gauge
    rate, of the quasi-invariance condition are built once, the second
    sharing the first as a subtree; each is compiled on first evaluation.
    """

    def __init__(self, prob: VariationalProblem, gen: SymmetryGenerator):
        # L tau + dL/dv.(xi - v tau) is the gauge-free charge, regrouped.
        self.condition8 = charge_expression(prob, gen)
        self.quasi_invariance = None
        if gen.gauge_rate is not None:
            full = add(
                gauge_rate_from_reduced_condition(prob, gen),
                prob.frac.drag(self.condition8),
            )
            self.quasi_invariance = sub(full, gen.gauge_rate)

    def quasi_invariance_at(self, point: EvalPoint) -> float:
        """Residual of the full quasi-invariance condition at one point.

        dL/dtheta tau + dL/dq . xi + dL/dv . (xi_dot - v tau_dot)
          + L (tau_dot + (1-alpha)/(t-theta) tau) - gauge_rate

        which is the reduced-condition gauge of
        :func:`gauge_rate_from_reduced_condition` plus the kernel drag of
        the condition-(8) expression, minus the installed gauge rate.  Zero
        means the generator is an exact weighted symmetry up to the
        installed gauge rate.  The specialized energy/momentum generators
        do not satisfy this form; they satisfy the reduced condition
        instead.
        """
        if self.quasi_invariance is None:
            raise ChargePreconditionError("quasi-invariance residual needs a gauge rate")
        return evaluate(self.quasi_invariance, point)

    def condition8_at(self, point: EvalPoint) -> float:
        """Residual of the auxiliary algebraic condition L tau + dL/dv.(xi - v tau).

        A diagnostic only: charge construction relies on the reduced
        condition, which holds by construction for derived gauge rates even
        when this residual is nonzero (it is nonzero for the plain
        time-translation generator already).
        """
        return evaluate(self.condition8, point)


def _momentum_times_shift(prob: VariationalProblem, gen: SymmetryGenerator) -> Expr:
    """dL/dv . (xi - v tau)."""
    out = Const(0.0)
    for j in range(prob.n):
        shift = sub(gen.xi[j], mul(V(j), gen.tau))
        out = add(out, mul(prob.lagrangian.diff(V(j)), shift))
    return out


def gauge_rate_from_reduced_condition(
    prob: VariationalProblem, gen: SymmetryGenerator
) -> Expr:
    """Derive the gauge rate that balances the reduced invariance condition.

    Returns the symbolic expression

      dL/dtheta tau + dL/dq . xi + dL/dv . (xi_dot - v tau_dot) + L tau_dot
        - (1-alpha)/(t-theta) * dL/dv . (xi - v tau)

    with xi_dot and tau_dot expanded along the motion.  Installing it makes
    the reduced condition an identity in (theta, q, v), which is exactly
    what charge conservation consumes.
    """
    _check_dimensions(prob, gen)
    L = prob.lagrangian
    n = prob.n
    tau_dot = along_motion(gen.tau, n)[0]
    out = mul(L.diff(Theta()), gen.tau)
    for j in range(n):
        xi_dot = along_motion(gen.xi[j], n)[0]
        out = add(out, mul(L.diff(Q(j)), gen.xi[j]))
        out = add(out, mul(L.diff(V(j)), sub(xi_dot, mul(V(j), tau_dot))))
    out = add(out, mul(L, tau_dot))
    return sub(out, prob.frac.drag(_momentum_times_shift(prob, gen)))


# --------------------------------------------------------------------------
# Charges


def charge_expression(prob: VariationalProblem, gen: SymmetryGenerator) -> Expr:
    """Symbolic charge without the gauge term: dL/dv.xi + (L - dL/dv.v) tau."""
    _check_dimensions(prob, gen)
    out = Const(0.0)
    for j in range(prob.n):
        out = add(out, mul(prob.lagrangian.diff(V(j)), gen.xi[j]))
    return add(out, mul(_energy_expression(prob), gen.tau))


def lambda_integrand(gen: SymmetryGenerator) -> Expr:
    if gen.gauge_rate is None:
        raise ChargePreconditionError("generator carries no gauge rate to accumulate")
    return gen.gauge_rate


def energy_correction_integrand(prob: VariationalProblem) -> Expr:
    """dL/dv . v / (t - theta), the running correction of the energy charge."""
    L = prob.lagrangian
    total = Const(0.0)
    for j in range(prob.n):
        total = add(total, mul(L.diff(V(j)), V(j)))
    return prob.frac.over_lag(total)


def momentum_correction_integrand(prob: VariationalProblem, dof: int) -> Expr:
    """dL/dv_i / (t - theta), the running correction of one momentum charge."""
    _check_dof(prob, dof)
    return prob.frac.over_lag(prob.lagrangian.diff(V(dof)))


def gauge_channel(index: int, count: int) -> str:
    """Channel of generator ``index`` out of ``count``: ``Lambda`` for a
    single generator, ``Lambda_g{index}`` for several."""
    return LAMBDA_CHANNEL if count == 1 else f"{LAMBDA_CHANNEL}_g{index}"


def standard_integrands(
    prob: VariationalProblem,
    generators: Sequence[SymmetryGenerator] = (),
    energy: bool = False,
    momentum: bool = False,
) -> dict[str, Expr]:
    """Channel map for a solve covering the requested charges.

    Generator gauges land in the channels named by :func:`gauge_channel`.
    """
    out: dict[str, Expr] = {}
    for i, gen in enumerate(generators):
        out[gauge_channel(i, len(generators))] = lambda_integrand(gen)
    if energy:
        out[ENERGY_CHANNEL] = energy_correction_integrand(prob)
    if momentum:
        for j in range(prob.n):
            out[MOMENTUM_CHANNEL.format(dof=j)] = momentum_correction_integrand(prob, j)
    return out


def noether_charge(
    prob: VariationalProblem,
    gen: SymmetryGenerator,
    traj: Trajectory,
    channel: str = LAMBDA_CHANNEL,
) -> ChargeSeries:
    """Sample the gauge-corrected charge along a trajectory."""
    if channel not in traj.channels:
        raise MissingChannelError(
            f"trajectory lacks the accumulated gauge channel {channel!r}"
        )
    expr = charge_expression(prob, gen)
    values = evaluate_on_grid(expr, traj.theta_grid, traj.q, traj.v)
    values = values - traj.channels[channel]
    return ChargeSeries.from_values(traj.theta_grid, values)


def classical_energy(prob: VariationalProblem, traj: Trajectory) -> ChargeSeries:
    """L - dL/dv . v sampled with no fractional correction (constant only
    at alpha = 1 for autonomous Lagrangians)."""
    expr = _energy_expression(prob)
    values = evaluate_on_grid(expr, traj.theta_grid, traj.q, traj.v)
    return ChargeSeries.from_values(traj.theta_grid, values)


def fractional_energy(prob: VariationalProblem, traj: Trajectory) -> ChargeSeries:
    """Energy-style charge for autonomous Lagrangians.

    Samples L - dL/dv.v - (1-alpha) * integral of dL/dv.v/(t-theta).
    """
    if references(prob.lagrangian, Theta()):
        raise ChargePreconditionError(
            "energy charge requires an autonomous Lagrangian (no explicit theta)"
        )
    if ENERGY_CHANNEL not in traj.channels:
        raise MissingChannelError(
            f"trajectory lacks the energy correction channel {ENERGY_CHANNEL!r}"
        )
    expr = _energy_expression(prob)
    values = evaluate_on_grid(expr, traj.theta_grid, traj.q, traj.v)
    values = values - prob.frac.drag_strength * traj.channels[ENERGY_CHANNEL]
    return ChargeSeries.from_values(traj.theta_grid, values)


def classical_momentum(
    prob: VariationalProblem, traj: Trajectory, dof: int
) -> ChargeSeries:
    """dL/dv_i sampled with no fractional correction."""
    _check_dof(prob, dof)
    expr = prob.lagrangian.diff(V(dof))
    values = evaluate_on_grid(expr, traj.theta_grid, traj.q, traj.v)
    return ChargeSeries.from_values(traj.theta_grid, values)


def fractional_momentum(
    prob: VariationalProblem, traj: Trajectory, dof: int
) -> ChargeSeries:
    """Momentum-style charge for a coordinate the Lagrangian ignores.

    Samples dL/dv_i + (1-alpha) * integral of dL/dv_i/(t-theta).
    """
    _check_dof(prob, dof)
    if references(prob.lagrangian, Q(dof)):
        raise ChargePreconditionError(
            f"momentum charge for dof {dof} requires L independent of q{dof}"
        )
    channel = MOMENTUM_CHANNEL.format(dof=dof)
    if channel not in traj.channels:
        raise MissingChannelError(
            f"trajectory lacks the momentum correction channel {channel!r}"
        )
    expr = prob.lagrangian.diff(V(dof))
    values = evaluate_on_grid(expr, traj.theta_grid, traj.q, traj.v)
    values = values + prob.frac.drag_strength * traj.channels[channel]
    return ChargeSeries.from_values(traj.theta_grid, values)


def pointwise_conservation_residual(
    prob: VariationalProblem,
    gen: SymmetryGenerator,
    traj: Trajectory,
    ode: ExplicitOde | None = None,
) -> np.ndarray:
    """d/dtheta of the charge at every grid point, quadrature-free.

    Uses accelerations from the explicit right-hand side, so the result
    measures the algebraic conservation identity itself rather than
    integration error.  Requires the generator's gauge rate.
    """
    if gen.gauge_rate is None:
        raise ChargePreconditionError("pointwise residual needs a gauge rate")
    if ode is None:
        ode = to_explicit_ode(prob)
    grid, q, v = traj.theta_grid, traj.q, traj.v
    accel = ode.on_grid(grid, q, v)
    rate, accel_coeffs = along_motion(charge_expression(prob, gen), prob.n)
    out = evaluate_on_grid(rate, grid, q, v)
    for k, coeff in enumerate(accel_coeffs):
        out = out + evaluate_on_grid(coeff, grid, q, v) * accel[:, k]
    return out - evaluate_on_grid(gen.gauge_rate, grid, q, v)


# --------------------------------------------------------------------------
# Internals


def _energy_expression(prob: VariationalProblem) -> Expr:
    L = prob.lagrangian
    out = L
    for j in range(prob.n):
        out = sub(out, mul(L.diff(V(j)), V(j)))
    return out


def _check_dimensions(prob: VariationalProblem, gen: SymmetryGenerator) -> None:
    if gen.n != prob.n:
        raise ValueError(
            f"generator has {gen.n} coordinate shifts but the problem has n = {prob.n}"
        )


def _check_dof(prob: VariationalProblem, dof: int) -> None:
    if not 0 <= dof < prob.n:
        raise ValueError(f"dof {dof} out of range for n = {prob.n}")
