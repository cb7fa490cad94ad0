"""Symmetry generators, gauge rates, and conserved-charge candidates.

A generator is a pair (tau(theta, q), xi(theta, q)) describing an
infinitesimal shift of intrinsic time and coordinates.  For any generator,
:func:`gauge_rate_from_reduced_condition` produces the unique gauge rate
that balances the weighted-invariance condition identically, and the
charge

    C = p . xi + H tau - Lambda,

with the problem's momenta p = dL/dv and energy function H = L - p . v
(``VariationalProblem.momentum`` and ``.energy``), is then constant along
solutions of the weighted Euler-Lagrange equation.  Lambda is the gauge
rate accumulated by quadrature from the left endpoint; the running
correction integrals of the specialized energy/momentum charges use the
same base point, so all charges are pinned up to the additive constant
that drift statistics ignore anyway.  The five charge samplers share one
path: a tree on the trajectory's grid plus a weight times a channel, a
:class:`~fracnoether.integrators.Sample` that the solve can write into
its loop.  :func:`requested` lists, for the kinds a solve asks for, the
channels (:func:`standard_integrands` is that half) and the reported
charges, each a label with its sample and its charge function; it is the
one place a charge's label is formed.

The energy charge needs a Lagrangian whose tree has no ``theta`` node, and
the momentum charge for q_i one with no ``q_i`` node.  Both preconditions
are decided on the expression structure, never by sampling, each in one
function that :func:`requested` and the charge's public function share.

Drift of a sampled series is max |C(theta_k) - C(theta_0)|; the relative
form divides by (1 + max |C|) to stay scale-free.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .euler_lagrange import (
    VariationalProblem, along_motion, alpha_free, to_explicit_ode,
)
from .expressions import (
    Const,
    EvalDomainError,
    Expr,
    Q,
    Theta,
    V,
    add,
    depends_on_velocity,
    evaluate_on_grid,
    mul,
    references,
    sub,
)
from .integrators import Sample, Trajectory, column, write_table
from .records import Record

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


class SymmetryGenerator(Record):
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


class ChargeSeries(Record):
    """Samples of a candidate constant of motion with drift statistics:
    ``theta_grid`` and ``values`` tuples of floats."""

    theta_grid: tuple
    values: tuple
    drift: float
    relative_drift: float

    @classmethod
    def from_values(cls, theta_grid: Sequence[float], values: Sequence[float]) -> "ChargeSeries":
        if not isinstance(theta_grid, tuple):
            theta_grid = column(theta_grid)
        values = column(values)
        if len(theta_grid) != len(values):
            raise ValueError("theta grid and values must share length")
        d, rd = _drift_stats(values)
        return cls(theta_grid=theta_grid, values=values, drift=d, relative_drift=rd)

    def write_csv(self, path) -> None:
        """Rows ``theta,value`` plus a trailing drift comment line."""
        write_table(
            path, ["theta", "value"], self.theta_grid, [self.values],
            trailer=f"# drift={format(self.drift, '.17g')} "
            f"relative_drift={format(self.relative_drift, '.17g')}\n",
        )


def _drift_stats(values: Sequence[float]) -> tuple[float, float]:
    """max_k |x_k - x_0| and its ratio to 1 + max_k |x_k|.  Rounding is
    monotone, so the largest |x_k - x_0| is that of the largest or the
    smallest x_k, with the same rounding: no difference is formed per sample.
    A drift that is not finite, as between values of opposite signs near
    the largest float, raises :class:`EvalDomainError`."""
    top, bottom, first = max(values), min(values), values[0]
    d = max(top - first, first - bottom)
    if not math.isfinite(d):
        raise EvalDomainError("non-finite drift")
    return d, d / (1.0 + max(top, -bottom))


# --------------------------------------------------------------------------
# Gauge rates and the invariance condition


def gauge_rate_from_reduced_condition(
    prob: VariationalProblem, gen: SymmetryGenerator
) -> Expr:
    """Derive the gauge rate that balances the reduced invariance condition.

    Returns the symbolic expression

      dL/dtheta tau + dL/dq . xi + dL/dv . (xi_dot - v tau_dot) + L tau_dot
        - (1-alpha)/(t-theta) * dL/dv . (xi - v tau)

    with xi_dot and tau_dot expanded along the motion.  Installing it makes
    the reduced condition an identity in (theta, q, v), which is exactly
    what charge conservation consumes.  Every alpha shares all but the drag
    term (:func:`alpha_free`).
    """
    _check_dimensions(prob, gen)
    free, shift = _gauge_parts(prob, gen.tau, gen.xi)
    return sub(free, prob.frac.drag(shift))


@alpha_free
def _gauge_parts(prob: VariationalProblem, tau: Expr, xi: tuple) -> tuple[Expr, Expr]:
    L = prob.lagrangian
    tau_dot = along_motion(tau, prob.n)[0]
    out, shift = mul(L.diff(Theta()), tau), Const(0.0)
    for j, p in enumerate(prob.momentum):
        xi_dot = along_motion(xi[j], prob.n)[0]
        out = add(out, mul(L.diff(Q(j)), xi[j]))
        out = add(out, mul(p, sub(xi_dot, mul(V(j), tau_dot))))
        shift = add(shift, mul(p, sub(xi[j], mul(V(j), tau))))
    return add(out, mul(L, tau_dot)), shift


def quasi_invariance_residual(prob: VariationalProblem, gen: SymmetryGenerator) -> Expr:
    """Residual of the weighted quasi-invariance condition, as a tree:

      dL/dtheta tau + dL/dq . xi + dL/dv . (xi_dot - v tau_dot)
        + L (tau_dot + (1-alpha)/(t-theta) tau) - gauge_rate

    that is G0 + c L tau minus the installed gauge rate, with G0 the
    classical invariance expression (the alpha-free part of
    :func:`gauge_rate_from_reduced_condition`) and c = (1-alpha)/(t-theta).
    Zero means the generator is an exact weighted symmetry up to its gauge
    rate; the specialized energy/momentum generators satisfy the reduced
    condition instead.  The residual of the auxiliary condition (8),
    L tau + dL/dv . (xi - v tau), is :func:`charge_expression`, regrouped.
    """
    if gen.gauge_rate is None:
        raise ChargePreconditionError("quasi-invariance residual needs a gauge rate")
    _check_dimensions(prob, gen)
    free, _ = _gauge_parts(prob, gen.tau, gen.xi)
    return sub(add(free, prob.frac.drag(mul(prob.lagrangian, gen.tau))), gen.gauge_rate)


# --------------------------------------------------------------------------
# Charges


def charge_expression(prob: VariationalProblem, gen: SymmetryGenerator) -> Expr:
    """Symbolic charge without the gauge term: dL/dv.xi + (L - dL/dv.v) tau."""
    _check_dimensions(prob, gen)
    return _charge(prob, gen.tau, gen.xi)


@alpha_free
def _charge(prob: VariationalProblem, tau: Expr, xi: tuple) -> Expr:
    out = Const(0.0)
    for p, x in zip(prob.momentum, xi):
        out = add(out, mul(p, x))
    return add(out, mul(prob.energy, tau))


def lambda_integrand(gen: SymmetryGenerator) -> Expr:
    if gen.gauge_rate is None:
        raise ChargePreconditionError("generator carries no gauge rate to accumulate")
    return gen.gauge_rate


@alpha_free
def energy_correction_integrand(prob: VariationalProblem) -> Expr:
    """dL/dv . v / (t - theta), the running correction of the energy charge."""
    total = Const(0.0)
    for j, p in enumerate(prob.momentum):
        total = add(total, mul(p, V(j)))
    return prob.frac.over_lag(total)


@alpha_free
def momentum_correction_integrand(prob: VariationalProblem, dof: int) -> Expr:
    """dL/dv_i / (t - theta), the running correction of one momentum charge."""
    _check_dof(prob, dof)
    return prob.frac.over_lag(prob.momentum[dof])


class Charge(Record):
    """A reported charge: its ``label``; the ``sample`` a solve writes into
    its loop, or the :class:`ChargePreconditionError` the charge fails; and
    the name of the charge function that gives its series, called with
    ``prob``, ``traj`` and ``arguments`` by keyword."""

    label: str
    sample: Sample | ChargePreconditionError
    function: str
    arguments: dict


def requested(
    prob: VariationalProblem,
    generators: Sequence[SymmetryGenerator] = (),
    energy: bool = False,
    momentum: bool = False,
    classical: bool = False,
) -> tuple[dict[str, Expr], list[Charge]]:
    """The channel map of a solve covering the requested kinds, and the
    charges it reports, in report order.

    The channels: each generator's gauge (``Lambda``, or ``Lambda_g<i>``
    for several), the energy correction, one momentum correction per dof.
    The charges: ``noether_g<i>`` per generator, ``energy``, ``momentum_<j>``
    per dof, each fractional one followed, with ``classical``, by its
    uncorrected counterpart (``classical_energy``, ``classical_momentum_<j>``).
    """
    integrands: dict[str, Expr] = {}
    charges: list[Charge] = []
    for i, gen in enumerate(generators):
        channel = LAMBDA_CHANNEL if len(generators) == 1 else f"{LAMBDA_CHANNEL}_g{i}"
        integrands[channel] = lambda_integrand(gen)
        charges.append(Charge(f"noether_g{i}", _noether_sample(prob, gen, channel),
                              "noether_charge", {"gen": gen, "channel": channel}))
    if energy:
        integrands[ENERGY_CHANNEL] = energy_correction_integrand(prob)
        charges.append(Charge("energy", _energy_failure(prob) or _energy_sample(prob, True),
                              "fractional_energy", {}))
        if classical:
            charges.append(Charge("classical_energy", _energy_sample(prob, False),
                                  "classical_energy", {}))
    if momentum:
        dofs = range(prob.n)
        for j in dofs:
            integrands[MOMENTUM_CHANNEL.format(dof=j)] = momentum_correction_integrand(prob, j)
        charges += [Charge(f"momentum_{j}",
                           _momentum_failure(prob, j) or _momentum_sample(prob, j, True),
                           "fractional_momentum", {"dof": j}) for j in dofs]
        if classical:
            charges += [Charge(f"classical_momentum_{j}", _momentum_sample(prob, j, False),
                               "classical_momentum", {"dof": j}) for j in dofs]
    return integrands, charges


def standard_integrands(
    prob: VariationalProblem,
    generators: Sequence[SymmetryGenerator] = (),
    energy: bool = False,
    momentum: bool = False,
) -> dict[str, Expr]:
    """Channel map for a solve covering the requested charges (:func:`requested`)."""
    return requested(prob, generators, energy, momentum)[0]


def noether_charge(
    prob: VariationalProblem,
    gen: SymmetryGenerator,
    traj: Trajectory,
    channel: str = LAMBDA_CHANNEL,
) -> ChargeSeries:
    """Sample the gauge-corrected charge along a trajectory."""
    return _sample(prob, traj, lambda: _noether_sample(prob, gen, channel), channel,
                   "accumulated gauge")


def classical_energy(prob: VariationalProblem, traj: Trajectory) -> ChargeSeries:
    """L - dL/dv . v sampled with no fractional correction (constant only
    at alpha = 1 for autonomous Lagrangians)."""
    return _sample(prob, traj, lambda: _energy_sample(prob, fractional=False))


def fractional_energy(prob: VariationalProblem, traj: Trajectory) -> ChargeSeries:
    """Energy-style charge for autonomous Lagrangians.

    Samples L - dL/dv.v - (1-alpha) * integral of dL/dv.v/(t-theta).
    """
    return _sample(prob, traj, lambda: _energy_sample(prob, fractional=True), ENERGY_CHANNEL,
                   "energy correction", _energy_failure(prob))


def classical_momentum(
    prob: VariationalProblem, traj: Trajectory, dof: int
) -> ChargeSeries:
    """dL/dv_i sampled with no fractional correction."""
    _check_dof(prob, dof)
    return _sample(prob, traj, lambda: _momentum_sample(prob, dof, fractional=False))


def fractional_momentum(
    prob: VariationalProblem, traj: Trajectory, dof: int
) -> ChargeSeries:
    """Momentum-style charge for a coordinate the Lagrangian ignores.

    Samples dL/dv_i + (1-alpha) * integral of dL/dv_i/(t-theta).
    """
    _check_dof(prob, dof)
    return _sample(prob, traj, lambda: _momentum_sample(prob, dof, fractional=True),
                   MOMENTUM_CHANNEL.format(dof=dof), "momentum correction",
                   _momentum_failure(prob, dof))


def pointwise_conservation_residual(
    prob: VariationalProblem,
    gen: SymmetryGenerator,
    traj: Trajectory,
) -> tuple:
    """d/dtheta of the charge at every grid point, quadrature-free.

    Uses accelerations from the explicit right-hand side, called at each
    grid point with the arithmetic the integrator ran, so the result
    measures the algebraic conservation identity itself rather than
    integration error.  Requires the generator's gauge rate.
    """
    if gen.gauge_rate is None:
        raise ChargePreconditionError("pointwise residual needs a gauge rate")
    traj.check_n_dof(prob.n)
    ode = to_explicit_ode(prob)
    grid, q, v = traj.theta_grid, traj.q, traj.v
    accel = [ode(*point) for point in zip(grid, q, v)]
    rate, accel_coeffs = along_motion(charge_expression(prob, gen), prob.n)
    out = evaluate_on_grid(rate, grid, q, v)
    for k, coeff in enumerate(accel_coeffs):
        out = [x + c * a[k] for x, c, a in zip(out, evaluate_on_grid(coeff, grid, q, v), accel)]
    return tuple([x - g for x, g in zip(out, evaluate_on_grid(gen.gauge_rate, grid, q, v))])


# --------------------------------------------------------------------------
# Internals


def _sample(prob: VariationalProblem, traj: Trajectory, make: Callable[[], Sample],
            channel: str | None = None, kind: str = "",
            failure: ChargePreconditionError | None = None) -> ChargeSeries:
    """The series of the sample ``make()`` on the trajectory (taken from the
    solve, or evaluated: :meth:`Trajectory.sample`); a failed precondition
    ``failure``, then a trajectory of another degree-of-freedom count than
    ``prob``'s, then a missing ``channel``, described as ``kind``, is
    raised before the sample's tree is built."""
    if failure is not None:
        raise failure
    traj.check_n_dof(prob.n)
    if channel is not None and channel not in traj.channels:
        raise MissingChannelError(f"trajectory lacks the {kind} channel {channel!r}")
    return ChargeSeries.from_values(traj.theta_grid, traj.sample(make()))


def _noether_sample(prob: VariationalProblem, gen: SymmetryGenerator, channel: str) -> Sample:
    return Sample(charge_expression(prob, gen), -1.0, channel)


def _energy_sample(prob: VariationalProblem, fractional: bool) -> Sample:
    if not fractional:
        return Sample(prob.energy)
    return Sample(prob.energy, -prob.frac.drag_strength, ENERGY_CHANNEL)


def _momentum_sample(prob: VariationalProblem, dof: int, fractional: bool) -> Sample:
    if not fractional:
        return Sample(prob.momentum[dof])
    return Sample(prob.momentum[dof], prob.frac.drag_strength, MOMENTUM_CHANNEL.format(dof=dof))


def _energy_failure(prob: VariationalProblem) -> ChargePreconditionError | None:
    """The precondition of the energy charge, no theta node in L: ``None``
    when it holds, else the error the charge fails."""
    if references(prob.lagrangian, Theta()):
        return ChargePreconditionError(
            "energy charge requires an autonomous Lagrangian (no explicit theta)")
    return None


def _momentum_failure(prob: VariationalProblem, dof: int) -> ChargePreconditionError | None:
    """The precondition of the momentum charge of ``dof``, no q_dof node in
    L: ``None`` when it holds, else the error the charge fails."""
    if references(prob.lagrangian, Q(dof)):
        return ChargePreconditionError(
            f"momentum charge for dof {dof} requires L independent of q{dof}")
    return None


def _check_dimensions(prob: VariationalProblem, gen: SymmetryGenerator) -> None:
    if gen.n != prob.n:
        raise ValueError(
            f"generator has {gen.n} coordinate shifts but the problem has n = {prob.n}"
        )


def _check_dof(prob: VariationalProblem, dof: int) -> None:
    if not 0 <= dof < prob.n:
        raise ValueError(f"dof {dof} out of range for n = {prob.n}")
