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
other callable called at each stage.  The :class:`Sample` trees an ODE
carries (:meth:`ExplicitOde.with_samples`) are written at the first stage
point of every step too, sharing what the step computed there, and give
the trajectory one more column each.  A loop is emitted once per shape
of its trees: one whose trees have the shape of an earlier one, as at the
next alpha of a sweep, is not emitted again.  The loop appends each value
it keeps to a list of its column, and :func:`ivp_solve` tests the last
value of each finite once per solve, not the loop at every step.  The
Newton solves of :func:`bvp_shoot` run the channel-less loop, built once
per shoot, returning only the state at b and reading the kernel
(1 - alpha)/(t - theta) of the right-hand side from its values on the
grid, evaluated once per shoot by the kernel tree's own compiled
evaluator.  The one trajectory a shoot returns is a solve at the final
velocity with its channels and samples, which writes the kernel out as
every :func:`ivp_solve` does, and which is also the last check of its
miss where the shoot expects that check to converge.
The process remembers the last 32 shoots that returned, by the structure
of their trees and the rest of what their Newton iteration reads
(``_SHOOTS``), and a shoot it remembers builds no Newton loop and runs
only that final solve.

Everything here runs on floats, a column of values a tuple: the theta
grid is :func:`linspace`, ``numpy.linspace``'s formula, bit for bit.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Mapping, Sequence

from . import linsolve
from .euler_lagrange import ExplicitOde, VariationalProblem, to_explicit_ode
from .expressions import (
    Emitter, Expr, ExpressionError, _value_key, evaluate_on_grid, shaped, structure,
)
from .records import Record, field


class BlowUpError(RuntimeError):
    """State left the finite floats during integration."""

    def __init__(self, theta: float):
        super().__init__(f"non-finite state detected at theta = {theta!r}")
        self.theta = theta


class ShootingError(RuntimeError):
    """Failure of the shooting iteration: a singular Jacobian, or a miss
    still above the tolerance after the last iteration."""


# Grid uniformity tolerance, a millionth of the step h: linspace rounds a node by
# under one float spacing of the largest |node|, so only a grid whose floats are
# visibly coarse next to h, as [1e14, 1e14 + 1] in 2000 steps, is refused.
_GRID_RTOL = 1e-6


def linspace(start: float, stop: float, num: int) -> list[float]:
    """The ``num`` floats ``numpy.linspace(start, stop, num)`` returns, bit
    for bit: ``i * step + start`` with ``step = (stop - start) / (num - 1)``,
    ``i / (num - 1) * (stop - start) + start`` where the step underflows to
    zero, and the last value set to ``stop``."""
    start, stop = float(start), float(stop)
    div = num - 1
    delta = stop - start
    if div <= 0:
        return [i * delta + start for i in range(num)]
    step = delta / div
    if step == 0.0:
        nodes = [i / div * delta + start for i in range(num)]
    else:
        nodes = [i * step + start for i in range(num)]
    nodes[-1] = stop
    return nodes


def _check_grid(grid: Sequence[float]) -> int:
    """Raise ``ValueError`` unless ``grid`` is a strictly increasing uniform
    grid of at least two finite nodes, its step finite too; return its node
    count."""
    if len(grid) < 2:
        raise ValueError("theta grid needs at least two points")
    h = (grid[-1] - grid[0]) / (len(grid) - 1)
    if not (math.isfinite(h) and all_finite(grid)):
        raise ValueError("theta grid must have a finite step and finite nodes")
    tol = _GRID_RTOL * abs(h)
    if h <= 0 or any(abs(y - x - h) > tol for x, y in zip(grid, grid[1:])):
        raise ValueError("theta grid must be strictly increasing and uniform")
    return len(grid)


class _Grid(tuple):
    """A theta grid :func:`uniform_grid` has checked, so it is not checked
    again; ``texts`` are its theta texts once :func:`write_table` wrote it."""

    texts: list[str] | None = None


def uniform_grid(a: float, b: float, steps: int) -> tuple[float, ...]:
    """The ``steps + 1`` nodes from ``a`` to ``b`` that :func:`ivp_solve`
    steps over, :func:`linspace`'s; ``ValueError`` for fewer than 2 steps,
    or where floats cannot space them uniformly (:func:`_check_grid`), as
    on ``[1e14, 1e14 + 1]`` in 2000 steps.

    Each grid is built and checked once per process: the same (a, b,
    steps), ``-0.0`` told from ``0.0``, returns the same immutable tuple.
    The 32 grids used last are kept (:func:`_built_grid`, an
    ``lru_cache``), each with its texts; a grid the check rejects is not.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    return _built_grid(float(a).hex(), float(b).hex(), steps)


@functools.lru_cache(maxsize=32)
def _built_grid(a: str, b: str, steps: int) -> _Grid:
    """The checked grid of :func:`uniform_grid`, its ends given by
    ``float.hex`` so that ``-0.0`` and ``0.0`` are two keys."""
    grid = _Grid(linspace(float.fromhex(a), float.fromhex(b), steps + 1))
    _check_grid(grid)
    return grid


def write_table(
    path, header: Sequence[str], theta_grid, columns: Sequence, trailer: str = ""
) -> None:
    """Write the CSV line ``header``, one row ``theta,column values..`` per
    grid node with 17 significant digits, then ``trailer``.

    Trajectory and charge CSVs are written here.  A grid of
    :func:`uniform_grid` keeps its theta texts, so the CSVs of one grid
    format it once; any other grid is formatted per table.  A column that
    repeats its values, as a conserved charge does, formats each distinct
    value once: one whose first 16 values hold a repeat, at most half of
    whose values are distinct and none of them a zero (0.0 and -0.0 are
    one key of two texts), is written as the ``"%s"`` of its values'
    texts.  Every other column is written as the ``"%.17g"`` of each
    value.  Equal floats other than zeros have equal bits, so each row has
    the same bytes as formatting every value anew.
    """
    texts = theta_grid.texts if type(theta_grid) is _Grid else None
    if texts is None:
        texts = ["%.17g" % x for x in theta_grid]
        if type(theta_grid) is _Grid:
            theta_grid.texts = texts
    width = len(columns) + 1
    args = [None] * (width * len(texts))
    args[::width] = texts
    row = "%s"
    for j, column in enumerate(columns, 1):
        head = column[:16]
        if len(set(head)) < len(head):
            distinct = tuple(dict.fromkeys(column))
            if 2 * len(distinct) <= len(column) and 0 not in distinct:
                text = dict(zip(distinct, ("%.17g\n" * len(distinct) % distinct).split("\n")))
                args[j::width] = map(text.__getitem__, column)
                row += ",%s"
                continue
        args[j::width] = column
        row += ",%.17g"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(((row + "\n") * len(texts)) % tuple(args))
        fh.write(trailer)


class Sample(Record):
    """The tree ``tree`` plus ``weight`` times the channel ``channel`` (none:
    the tree alone), sampled at every grid node of a solve.

    Samples compare by tree identity, channel and the repr of the weight,
    so 0.0 and -0.0 weights stay apart.
    """

    tree: Expr
    weight: float = 0.0
    channel: str | None = None

    def _key(self) -> tuple:
        return (self.tree, repr(self.weight), self.channel)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sample) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def all_finite(values: Sequence[float]) -> bool:
    """Whether every value is finite: a finite sum needs no scan."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def column(values) -> tuple[float, ...]:
    """``values`` as a column: a tuple of floats."""
    return values if type(values) is tuple else tuple(map(float, values))


class Rows(Sequence):
    """Rows of equally long columns, each row a tuple built when it is
    read: a trajectory's q or v, kept as the columns of its solve.  Equal
    to another sequence of the same rows."""

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[tuple]):
        self.columns = tuple(columns)

    @classmethod
    def of(cls, rows) -> "Rows":
        """``rows`` as :class:`Rows`; any other sequence of rows is copied
        into columns, and must hold rows of one length n >= 1."""
        if type(rows) is cls:
            return rows
        rows = [tuple(row) for row in rows]
        if len(set(map(len, rows))) > 1 or rows and not rows[0]:
            raise ValueError("q and v must hold rows of one length n >= 1")
        return cls([column(values) for values in zip(*rows)])

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(zip(*(column[k] for column in self.columns)))
        return tuple(column[k] for column in self.columns)

    def __iter__(self):
        return zip(*self.columns)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    __hash__ = None

    def __repr__(self) -> str:
        return repr(tuple(self))


class Trajectory(Record):
    """Uniform-grid samples of (theta, q, v) plus accumulated channels.

    ``theta_grid`` is a tuple of floats; ``q`` and ``v`` are :class:`Rows`,
    one tuple of n floats per grid node (any sequence of rows is taken);
    every channel, and every :class:`Sample` the solve wrote, is a column,
    a tuple of floats.  Every channel starts at zero at the left
    endpoint; channel[k] holds the integral of its integrand from
    theta_grid[0] to theta_grid[k].
    """

    theta_grid: tuple
    q: Rows                # N+1 rows of n floats
    v: Rows                # N+1 rows of n floats
    channels: dict[str, tuple]
    samples: dict[Sample, tuple] = field(default_factory=dict)

    def __post_init__(self):
        grid = self.theta_grid
        if type(grid) is not _Grid:
            grid = tuple(map(float, grid))
            _check_grid(grid)
        rows = len(grid)
        q, v = Rows.of(self.q), Rows.of(self.v)
        lengths = {len(column) for column in q.columns + v.columns}
        if lengths != {rows} or len(q.columns) != len(v.columns):
            raise ValueError("q and v must hold one row per grid point")
        channels = {name: column(values) for name, values in self.channels.items()}
        for name, values in channels.items():
            if len(values) != rows:
                raise ValueError(f"channel {name!r} length does not match the grid")
            if values[0] != 0.0:
                raise ValueError(f"channel {name!r} must start at zero")
        samples = {s: column(values) for s, values in self.samples.items()}
        if any(len(values) != rows for values in samples.values()):
            raise ValueError("a sample's length does not match the grid")
        for name, value in zip(("theta_grid", "q", "v", "channels", "samples"),
                               (grid, q, v, channels, samples)):
            object.__setattr__(self, name, value)

    @property
    def n_dof(self) -> int:
        return len(self.q.columns)

    def check_n_dof(self, n: int) -> None:
        """Raise ``ValueError`` unless the trajectory has ``n`` degrees of freedom."""
        if self.n_dof != n:
            raise ValueError(f"trajectory has {self.n_dof} degrees of freedom, the problem {n}")

    @property
    def steps(self) -> int:
        return len(self.theta_grid) - 1

    def sample(self, s: Sample) -> tuple:
        """``s`` at every grid node: the column the solve sampled, or else the
        tree evaluated node by node (:func:`~fracnoether.expressions.evaluate_on_grid`,
        which raises for a non-finite value) plus ``s.weight`` times the channel,
        with the same arithmetic."""
        values = self.samples.get(s)
        if values is not None:
            return values
        values = evaluate_on_grid(s.tree, self.theta_grid, self.q, self.v)
        if s.channel is None:
            return values
        w = s.weight
        return tuple([x + w * c for x, c in zip(values, self.channels[s.channel])])

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
        columns = [*self.q.columns, *self.v.columns, *self.channels.values()]
        write_table(path, header, self.theta_grid, columns)


class ShootingReport(Record):
    converged: bool
    iterations: int
    boundary_miss: tuple
    initial_velocity: tuple


class ExactSolution(Record):
    """Closed-form trajectory used as a convergence oracle."""

    q: Callable[[float], Sequence[float]]
    v: Callable[[float], Sequence[float]]


class ConvergenceReport(Record):
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
    called at each stage instead.  The :class:`Sample` list of an
    ``ExplicitOde`` (:meth:`ExplicitOde.with_samples`), whose channels
    must be among ``integrands``, is sampled at every node into
    ``Trajectory.samples``; a sample that fails to evaluate or is not
    finite at some node is left out, for :meth:`Trajectory.sample` to
    evaluate and report.  Every loop, one that calls at each stage too, is
    emitted once per shape of its trees, not once per solve.  It computes
    every subtree at every stage, the kernel included.
    It appends every value it keeps to one list per sample, q, v and
    channel column, which become the trajectory's columns as they are:
    nothing is transposed, and a non-finite state is looked for in the
    columns (:func:`_raise_blow_up`).  Where there is none and the loop
    raised ``OverflowError``, or a ``ValueError`` other than an
    :class:`ExpressionError`, the blow-up is at the end of its last step.
    """
    qc = [float(x) for x in q0]
    vc = [float(x) for x in v0]
    n = len(qc)
    if len(vc) != n or n < 1:
        raise ValueError("q0 and v0 must have equal length n >= 1")
    samples = ()
    if isinstance(rhs, ExplicitOde):
        if rhs.n != n:
            raise ValueError(f"q0 and v0 have length {n}, the ODE has {rhs.n} degrees of freedom")
        samples = rhs.samples
    names = list(integrands) if integrands else []
    for s in samples:
        if s.channel is not None and s.channel not in names:
            raise ValueError(f"sample channel {s.channel!r} is not among the integrands")
    sampled = tuple((s.tree, None if s.channel is None else names.index(s.channel))
                    for s in samples)

    grid = uniform_grid(a, b, steps)
    h = (float(b) - float(a)) / steps
    loop = _compile_rk4_loop(rhs, n, [integrands[name] for name in names], sampled)

    # One list per column: each step appends its samples, taken at its
    # start, and the state (q, v, channels) it reached; after the last
    # step, the samples of the last state.
    state = [[x] for x in qc + vc + [0.0] * len(names)]
    taken = [[] for _ in samples]
    weights = [s.weight for s in samples]
    try:
        loop(grid, h, 0.5 * h, h / 6.0, qc + vc, (), taken + state,
             *([weights] if samples else []))
    except Exception as exc:
        _raise_blow_up(state, grid)
        if isinstance(exc, (OverflowError, ValueError)) and not isinstance(exc, ExpressionError):
            # raised by the step after the last one appended
            raise BlowUpError(grid[len(state[0])]) from exc
        raise
    if not all_finite([values[-1] for values in state]):
        _raise_blow_up(state, grid)
    state = [tuple(values) for values in state]
    return Trajectory(
        theta_grid=grid,
        q=Rows(state[:n]),
        v=Rows(state[n : 2 * n]),
        channels=dict(zip(names, state[2 * n :])),
        samples={s: values for s, values in zip(samples, map(tuple, taken))
                 if all_finite(values)},
    )


def _final_state(
    rhs: ExplicitOde, a: float, b: float, q0: Sequence[float], steps: int
) -> Callable:
    """``final_state(v0)``: the last row ``(q.., v..)`` of ``ivp_solve(rhs, a, b,
    q0, v0, steps)``, for any ``v0`` of the ODE's length, from a compiled
    loop that returns only that row; no trajectory is built.

    Validates as :func:`ivp_solve` does, once.  It evaluates the kernel
    of ``rhs`` at the nodes and half-nodes of the grid by the kernel's own
    evaluator (:attr:`~fracnoether.expressions.Expr.evaluate`), and the
    loop reads the two columns ``(at the nodes, at the half-nodes)``, which
    are handed to every call of the loop and kept nowhere else; where there
    is no kernel (alpha = 1), there are none.  The loop spells a half-node
    ``th + hh`` as every loop does, the sum the second column was evaluated
    at.  Every node and half-node lies below b, and b below the
    observer time, so the kernel's denominator is never zero; a value that
    overflows is an infinity, not an error, and ends in the replay below.
    The loop only adds to q and v, so a finite last row means every row
    was finite.
    Where the loop raises or the last row is not finite, that solve runs
    again through :func:`ivp_solve`, which raises its error, with the same
    theta and message.  Its q and v, and so its boundary miss, are those
    of the same solve through :func:`ivp_solve`, channels and samples or
    not, bit for bit: a shoot may take either for a check of its miss.
    """
    qc = [float(x) for x in q0]
    if rhs.n != len(qc):
        raise ValueError(f"q0 and v0 have length {len(qc)}, the ODE has {rhs.n} degrees of freedom")
    nodes = uniform_grid(a, b, steps)
    h = (float(b) - float(a)) / steps
    columns = ()
    if rhs.kernel is not None:
        kernel = rhs.kernel.evaluate
        columns = ([kernel(th, (), ()) for th in nodes],
                   [kernel(th + 0.5 * h, (), ()) for th in nodes[:-1]])
    loop = _compile_rk4_loop(rhs, rhs.n, [], (), rhs.kernel, last_row=True)

    def final_state(v0: Sequence[float]) -> tuple:
        vc = [float(x) for x in v0]
        try:
            last = loop(nodes, h, 0.5 * h, h / 6.0, qc + vc, columns)
        except Exception:
            last = None
        if last is not None and all(map(math.isfinite, last)):
            return last
        traj = ivp_solve(rhs, a, b, qc, vc, steps)
        return (*traj.q[-1], *traj.v[-1])

    return final_state


def _raise_blow_up(columns: Sequence[list], grid: Sequence[float]) -> None:
    """:class:`BlowUpError` at the first node after the first where a column
    of the state (q, v, channels) is not finite, if there is one.  The loop
    only adds to q, v and the channels, so a state that left the finite
    floats stays out: that node is where a test after every step stops,
    whatever a later step of the loop raised."""
    first = len(grid)
    for values in columns:
        for k, x in enumerate(values[1:first], 1):
            if not math.isfinite(x):
                first = k
                break
    if first < len(grid):
        raise BlowUpError(grid[first]) from None


def _compile_rk4_loop(rhs: Callable, n: int, integrands: Sequence, sampled: Sequence,
                      kernel: Expr | None = None, last_row: bool = False) -> Callable:
    """Compile the RK4 step loop of :func:`_emit_rk4_loop`.

    Given ``kernel``, the kernel tree of an :class:`ExplicitOde` ``rhs``
    (:func:`_final_state`), the loop reads the kernel from its ``columns``
    argument, then the kernel's two columns; with none, as in every
    :func:`ivp_solve`, it writes the kernel out and its ``columns``
    argument is ``()``.  Every loop is emitted once per shape of its trees
    and of the trees it reads (:func:`~fracnoether.expressions.shaped`),
    keyed also by whether ``rhs`` is an :class:`ExplicitOde`, by n and by
    which integrands are trees: the loops of a sweep's alphas, or of the
    scenarios of one family, differ only in coefficients, which are slots
    of the shape, and in the sample weights and the columns, which are
    arguments.  A call-per-stage loop, of any other ``rhs`` or integrand,
    binds the callables of this call (``_rhs``, ``_g<i>``) in its own
    function.
    """
    ode = isinstance(rhs, ExplicitOde)
    key, trees = rhs.shape_key() if ode else ((), ())
    trees = (*trees, [g for g in integrands if isinstance(g, Expr)], [tree for tree, _ in sampled])
    called = {f"_g{i}": g.evaluate for i, g in enumerate(integrands) if not isinstance(g, Expr)}
    if not ode:
        called["_rhs"] = rhs
    key = ("loop", ode, n, tuple(isinstance(g, Expr) for g in integrands), *key,
           tuple(k for _, k in sampled), last_row)
    emit = functools.partial(_emit_rk4_loop, rhs, n, integrands, sampled, kernel, last_row)
    return shaped(key, (*trees, [] if kernel is None else [kernel]), emit, **called)


def _emit_rk4_loop(rhs: Callable, n: int, integrands: Sequence, sampled: Sequence,
                   kernel: Expr | None, last_row: bool, em: Emitter):
    """Emit ``loop(nodes, h, hh, h6, state, columns, out[, weights])``, the
    whole RK4 step loop, into ``em``; return its source, name and names for
    :func:`shaped`.  ``out`` holds one list per sample, then per q, v and
    channel, and the loop binds the ``append`` of each once.  With
    ``last_row`` it is ``loop(nodes, h, hh, h6, state, columns)``, appends
    nothing and returns the last row.

    The state ``q0.., v0..`` and every stage value live in local scalars,
    and ``em`` writes every statement of a step: each stage coordinate, as
    ``q_j + hh * v_j``, is a value (:meth:`Emitter.moved`), written into its
    one reader and not at all where none reads it.  ``kernel`` is the kernel
    tree of the ODE where it is read, else None; only a Newton loop reads
    it, which takes no samples, at its theta, half-node and next node from
    ``columns``, the kernel at the nodes and at the half-nodes
    (:func:`_final_state`); every other subtree is written out, and other
    loops get no columns.  A step binds, and steps over the sequence of,
    only the names the emitter records it reading (:attr:`Emitter.reads`:
    ``th``, ``full``, ``x0``, ``y0``, ``z0``), and computes
    ``half = th + hh`` where it reads ``half``.  Each step computes the four
    stage accelerations, then each channel at stages 1-4 in order, with the
    arithmetic of the classical tableau; an error there leaves the loop, for
    :func:`ivp_solve` to name.  Every value a step's update lines read at
    stage 1 is read as it stood before the update: the update of q, then of
    v, then of each channel, overwrites the state locals that stage 1 reads,
    so a stage-1 acceleration or channel value that is a bare q or v leaf is
    copied to a ``k1_`` local first.  Then each sampled tree is computed at
    stage 1, reusing what the step computed there, plus its weight (from
    ``weights``) times its channel as it stood at the step's start; an error
    there makes every sample of the step NaN.  Each step appends each of its
    samples, and then each value of the state ``(q.., v.., channels..)`` it
    reached, to its list, and no row tuple is built; after the last step the
    samples are computed once more, afresh, at the last row and appended.
    :func:`ivp_solve` tests the last state finite after the loop.

    The constants and math functions the statements read are keyword
    defaults of ``loop``, so the body reads them as locals.
    An :class:`ExplicitOde` ``rhs`` has its accelerations emitted at each
    stage point by :meth:`ExplicitOde.emit_accelerations`.
    :class:`Expr` integrands are emitted at the same points, reusing the
    subtrees already computed there.  Everything else is called with the
    stage point as lists, by the name its caller binds: ``_rhs``, or
    ``_g<i>`` for integrand i.
    """
    js = range(n)
    q, v = [f"q{j}" for j in js], [f"v{j}" for j in js]

    def call(value: str, fn: str, theta: str, sq: list, sv: list) -> None:
        em.line(f"{value} = {fn}({theta}, [{', '.join(sq)}], [{', '.join(sv)}])", theta, *sq, *sv)

    # stage s > 1 sits at the state moved on by the rates of stage s - 1, and
    # a Newton loop holds the kernel there in a local read from its columns
    points, accels = [], []
    for s, theta, held in ((1, "th", "x0"), (2, "half", "y0"), (3, "half", "y0"), (4, "full", "z0")):
        sq, sv = q, v
        if s > 1:
            step = "h" if s == 4 else "hh"
            sq = [em.moved(q[j], step, points[-1][2][j]) for j in js]
            sv = [em.moved(v[j], step, accels[-1][j]) for j in js]
        points.append((theta, sq, sv, {} if kernel is None else {kernel: held}))
        if isinstance(rhs, ExplicitOde):
            em.at(*points[-1])
            k = rhs.emit_accelerations(em, theta)
        else:
            k = [f"k{s}_{j}" for j in js]
            call(f"k{s}", "_rhs", theta, sq, sv)
            for j in js:
                em.line(f"{k[j]} = k{s}[{j}]")
        accels.append(k)

    # a stage-1 value that is a bare q or v leaf is copied before the
    # update lines, which read it after the state has moved on
    state, copies = set(q + v), {}

    def before_update(name: str) -> str:
        if name in state:
            name = copies.setdefault(name, f"k1_{name}")
        return name

    accels[0] = [before_update(name) for name in accels[0]]
    channels = []
    for idx, g in enumerate(integrands):
        values = []
        for s, (theta, sq, sv, held) in enumerate(points, 1):
            if isinstance(g, Expr):
                em.at(theta, sq, sv, held)
                values.append(em.emit(g))
            else:
                values.append(f"g{idx}_{s}")
                call(values[-1], f"_g{idx}", theta, sq, sv)
        channels.append([before_update(values[0]), *values[1:]])

    # the samples at stage 1, the update, then the samples at the last row:
    # a point of its own names, so nothing of the loop is taken for it
    taken = [f"s{i}" for i in range(len(sampled))]
    ends = [f"e{name}" for name in q + v]
    row = q + v + [f"c{idx}" for idx in range(len(integrands))]
    puts = [f"put_{name}" for name in taken + row]

    def sample(theta: str, sq: list, sv: list, held: dict) -> None:
        em.at(theta, sq, sv, held)
        for i, (tree, k) in enumerate(sampled):
            value = em.emit(tree)
            em.line(f"s{i} = {value}" if k is None else f"s{i} = {value} + w{i} * c{k}")

    solved = em.mark()
    sample(*points[0])
    sampled_to = em.mark()
    for name, copy in copies.items():
        em.line(f"{copy} = {name}", name)
    # q by the stage velocities, v by the accelerations, each channel by its values
    rates = [*zip(*(sv for _, _, sv, _ in points)), *zip(*accels), *channels]
    for x, (a, b, c, d) in zip(row, rates):
        em.line(f"{x} = {x} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})", a, b, c, d)
    for put, name in zip(puts, [] if last_row else taken + row):
        em.line(f"{put}({name})", name)
    stepped = em.mark()
    sample("end", ends[:n], ends[n:], {})

    def sampling(indent: str, start: int, stop: int | None) -> list[str]:
        return [
            f"{indent}try:",
            *em.body(indent + "    ", start, stop),
            f"{indent}except (ArithmeticError, ValueError):",
            f"{indent}    {' = '.join(taken)} = _nan",
        ] if sampled else []

    step = [*em.body("        ", 0, solved), *sampling("        ", solved, sampled_to),
            *em.body("        ", sampled_to, stepped)]
    # of a step's theta, next node, half-node and kernel values, those it reads
    reads = set(em.reads)
    if "half" in reads:
        step.insert(0, "        half = th + hh")
        reads.add("th")
    walked = [("th", "nodes[:-1]"), ("full", "nodes[1:]")]
    if kernel is not None:
        walked += [("x0", "n0"), ("y0", "m0"), ("z0", "n0[1:]")]
    targets, sources = zip(*([pair for pair in walked if pair[0] in reads]
                             or [("th", "nodes[:-1]")]))
    over = sources[0] if len(sources) == 1 else f"zip({', '.join(sources)})"
    source = [
        f"def loop(nodes, h, hh, h6, state, columns{'' if last_row else ', out'}"
        f"{', weights' if sampled else ''}{em.keyword_defaults()}):",
        f"    {', '.join(q + v)}, = state",
        *(f"    w{i} = weights[{i}]" for i, (_, k) in enumerate(sampled) if k is not None),
        *(f"    c{idx} = 0.0" for idx in range(len(integrands))),
        *([] if last_row else [f"    {', '.join(puts)}, = [values.append for values in out]"]),
        *([] if kernel is None else ["    n0, m0, = columns"]),
        f"    for {', '.join(targets)} in {over}:",
        *step,
    ]
    if sampled:
        source += [  # the last row's theta and state, where its samples read them
            *(f"    {e} = {x}" for e, x in zip(["end", *ends], ["nodes[-1]", *q, *v]) if e in reads),
            *sampling("    ", stepped, None),
            *(f"    {put}({name})" for put, name in zip(puts, taken)),
        ]
    if last_row:
        source.append(f"    return ({', '.join(row)},)")
    return source, "loop", ExplicitOde.NAMES


# Classical RK4 is stable on the negative real axis only down to h*lambda
# = -2.785 (Hairer & Wanner II, IV.2): the largest step times the drag's
# damping rate, rho, that a command solves at (scenarios.check_stable).
RK4_STABILITY_BOUND = 2.785

# Newton shooting has converged once no boundary miss exceeds SHOOTING_TOL,
# and gives up after SHOOTING_MAX_ITER iterations.
SHOOTING_TOL = 1e-9
SHOOTING_MAX_ITER = 50

# The last _MAX_SHOOTS shoots that returned, by what their Newton iteration
# reads (bvp_shoot), the most recently used last: key -> (final velocity,
# iterations, converged).
_SHOOTS: dict[tuple, tuple] = {}
_MAX_SHOOTS = 32


def _check_converges(misses: Sequence[float]) -> bool:
    """Whether the next check solve of a shoot is expected to converge, from
    the max-norm boundary misses of its check solves so far: under
    quadratic convergence the next miss is about e_k^3 / e_(k-1)^2 of the
    last two, here compared with ``SHOOTING_TOL``.  A wrong guess costs one
    solve, never a result (:func:`bvp_shoot`)."""
    if len(misses) < 2:
        return False
    ratio = misses[-1] / misses[-2]
    return ratio * ratio * misses[-1] <= SHOOTING_TOL


def bvp_shoot(
    prob: VariationalProblem,
    steps: int = 1000,
    integrands: Mapping[str, Expr] | None = None,
    samples: Sequence[Sample] = (),
) -> tuple[Trajectory, ShootingReport]:
    """Newton shooting on the initial velocity.

    Forward finite differences supply the Jacobian of the boundary map
    v0 -> q(b; v0) - q_b, until no component of the miss exceeds
    ``SHOOTING_TOL``.  The Newton solves run one compiled loop on one
    :class:`ExplicitOde` and keep only the state at b
    (:func:`_final_state`).  The trajectory returned, with the requested
    channel integrands and samples, is one :func:`ivp_solve` at the final
    velocity, converged or not, and the report's miss is that solve's.

    Where :func:`_check_converges` expects the next check solve to
    converge, that check is the :func:`ivp_solve` with the channels and
    samples, its miss read from its last row, which is the Newton loop's
    bit for bit; a shoot that ends there returns it and solves that
    velocity no second time.  Where that solve raises, the check runs in
    the Newton loop instead, so a shoot raises only what it raised
    without the guess, and where it raised.

    The process remembers the last 32 shoots that returned (``_SHOOTS``),
    by all that their Newton iteration reads, known before anything is
    compiled: the structure of the ODE's trees, every constant by its
    value (:meth:`ExplicitOde.shape_key`,
    :func:`~fracnoether.expressions.structure`), the grid, ``q_a`` and
    ``q_b`` by ``float.hex``, ``SHOOTING_TOL`` and ``SHOOTING_MAX_ITER``.
    A shoot of a remembered key, as ``charge`` after ``solve`` on one
    boundary problem, takes its final velocity, iterations and
    ``converged`` from there; it builds no kernel column and no Newton
    loop, and runs only the one solve at that velocity with its own
    channels and samples, so it returns what the Newton iteration would,
    bit for bit, and raises what that solve raises.  A shoot that raised
    is not remembered.  ``cli.clear_caches`` forgets every shoot.
    """
    if prob.boundary is None:
        raise ValueError("bvp_shoot requires boundary conditions on the problem")
    rhs = to_explicit_ode(prob)
    a, b = prob.interval
    q_a, q_b = prob.boundary.q_a, prob.boundary.q_b
    n = prob.n

    head, trees = rhs.shape_key()
    key = (head, structure(trees), float(a).hex(), float(b).hex(), steps,
           tuple(map(float.hex, q_a)), tuple(map(float.hex, q_b)),
           _value_key(SHOOTING_TOL), _value_key(SHOOTING_MAX_ITER))
    remembered = _SHOOTS.get(key)
    ode = rhs.with_samples(samples)

    traj = None
    if remembered is not None:
        v0, iterations, converged = remembered
    else:
        final_state = _final_state(rhs, a, b, q_a, steps)

        def boundary_miss(v_init: list[float]) -> list[float]:
            return [x - y for x, y in zip(final_state(v_init)[:n], q_b)]

        v0 = [(y - x) / (b - a) for x, y in zip(q_a, q_b)]
        iterations = 0
        misses = []  # the max-norm miss of each check solve
        while True:
            traj = None
            if _check_converges(misses):
                try:
                    traj = ivp_solve(ode, a, b, q_a, v0, steps, integrands=integrands)
                except Exception:
                    pass  # the Newton check below raises what an unguessed shoot raises
            if traj is None:
                miss = boundary_miss(v0)
            else:
                miss = [x - y for x, y in zip(traj.q[-1], q_b)]
            misses.append(max(map(abs, miss)))
            converged = misses[-1] <= SHOOTING_TOL
            if converged or iterations >= SHOOTING_MAX_ITER:
                break
            jac = [[0.0] * n for _ in range(n)]
            for k in range(n):
                delta = 1e-6 * (1.0 + abs(v0[k]))
                probe = list(v0)
                probe[k] += delta
                for row, x, y in zip(jac, boundary_miss(probe), miss):
                    row[k] = (x - y) / delta
            try:
                step = linsolve.solve(jac, [-x for x in miss])
            except linsolve.SingularMatrixError as exc:
                raise ShootingError(f"singular shooting Jacobian: {exc}") from exc
            v0 = [x + dx for x, dx in zip(v0, step)]
            iterations += 1

    if traj is None:
        traj = ivp_solve(ode, a, b, q_a, v0, steps, integrands=integrands)
    report = ShootingReport(
        converged=converged,
        iterations=iterations,
        boundary_miss=tuple(x - y for x, y in zip(traj.q[-1], q_b)),
        initial_velocity=tuple(v0),
    )
    _SHOOTS.pop(key, None)  # the most recently used goes last
    if len(_SHOOTS) >= _MAX_SHOOTS:
        del _SHOOTS[next(iter(_SHOOTS))]
    _SHOOTS[key] = (report.initial_velocity, iterations, converged)
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
        refs = [exact.q(th) for th in traj.theta_grid]
        scale = max(scale, max(abs(float(x)) for ref in refs for x in ref))
        errors.append(max(abs(x - float(r)) for row, ref in zip(traj.q, refs)
                          for x, r in zip(row, ref)))

    floor = _ORDER_FLOOR_RTOL * (1.0 + scale)
    if all(err <= floor for err in errors):
        return ConvergenceReport(
            step_counts=tuple(step_counts),
            errors=tuple(errors),
            slope=None,
            indeterminate=True,
        )

    hs = [(b - a) / steps for steps in step_counts]
    slope = log_log_slope(hs, [max(err, 1e-300) for err in errors])
    return ConvergenceReport(
        step_counts=tuple(step_counts),
        errors=tuple(errors),
        slope=slope,
        indeterminate=False,
    )


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x), over positive values and two distinct xs."""
    lx = [math.log(x) for x in xs]
    if len(set(lx)) < 2:
        raise ValueError("a log-log slope needs two distinct x values")
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((x - mx) * (y - my) for x, y in zip(lx, ly))
            / sum((x - mx) * (x - mx) for x in lx))
