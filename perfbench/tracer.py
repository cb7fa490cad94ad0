"""Layer tracing of fracnoether from outside the package.

:func:`install` replaces the public functions that ``fracnoether.cli``,
``fracnoether.integrators`` and ``fracnoether.scenarios`` call with
wrappers that record one span per call: name, start, end, parent span and
the invocation (CLI command) it belongs to.  The calls made once per RK4
stage -- the right-hand side, the channel integrands and ``linsolve`` --
are too frequent for spans; they are counted and timed in per-thread
aggregates instead.  Spans stay in memory until :meth:`TraceStore.dump`.

:func:`layer_metrics` turns one pass's dump into the per-layer metrics.
Only the traced run installs the wrappers; timed runs patch nothing.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from time import perf_counter

# Charge functions of fracnoether.charges that the CLI calls; spans are `charges.<name>`.
CHARGE_FUNCTIONS = (
    "noether_charge", "fractional_energy", "classical_energy",
    "fractional_momentum", "classical_momentum",
)
SETUP = -1  # invocation id of spans recorded while the pass sets up


class HotCounters:
    """Aggregates of the per-stage calls made by one thread."""

    __slots__ = (
        "rhs_calls", "rhs_s", "rhs_linsolve_s", "channel_evals", "channel_s",
        "linsolve_calls", "linsolve_s", "in_rhs",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class TraceStore:
    """Spans and per-thread counters of one pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, invocation, name, start, end, attrs)
        self.invocation = SETUP
        self.root: int | None = None  # span of the running command
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[HotCounters] = []

    def counters(self) -> HotCounters:
        c = getattr(self._local, "counters", None)
        if c is None:
            c = self._local.counters = HotCounters()
            with self._lock:
                self._counters.append(c)
        return c

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None, after=None):
        """Run ``fn`` inside a span; ``after(result, attrs)`` adds attributes."""
        stack = self._stack()
        # Sweep worker threads start with an empty stack: their spans are
        # children of the running command.
        parent = stack[-1] if stack else self.root
        span_id = next(self._ids)
        attrs = {} if attrs is None else attrs
        stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.invocation, name, start, end, attrs))
        if after is not None:
            after(result, attrs)
        return result

    def command(self, invocation: int, fn, *args):
        """Run one CLI command as the root span of its invocation."""
        self.invocation = invocation
        span_id = next(self._ids)
        self.root = span_id
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.spans.append((span_id, None, invocation, "cli.command", start, end, {}))
            self.root = None

    def dump(self) -> dict:
        hot = {name: 0 for name in HotCounters.__slots__ if name != "in_rhs"}
        for c in self._counters:
            for name in hot:
                hot[name] += getattr(c, name)
        return {"spans": self.spans, "hot": hot}


class _CountedRhs:
    """The RHS callable handed to ``ivp_solve``, counted and timed."""

    __slots__ = ("_rhs", "_c")

    def __init__(self, rhs, counters: HotCounters):
        self._rhs = rhs
        self._c = counters

    def __call__(self, theta, q, v):
        c = self._c
        c.in_rhs = 1
        start = perf_counter()
        try:
            return self._rhs(theta, q, v)
        finally:
            c.rhs_s += perf_counter() - start
            c.rhs_calls += 1
            c.in_rhs = 0


class _CountedChannel:
    """A channel integrand handed to ``ivp_solve``, counted and timed."""

    __slots__ = ("_expr", "_c")

    def __init__(self, expr, counters: HotCounters):
        self._expr = expr
        self._c = counters

    def evaluate(self, theta, q, v):
        start = perf_counter()
        value = self._expr.evaluate(theta, q, v)
        c = self._c
        c.channel_s += perf_counter() - start
        c.channel_evals += 1
        return value


def install(store: TraceStore) -> None:
    """Wrap the layer functions of an imported fracnoether in ``store``."""
    from fracnoether import charges, cli, expressions, integrators, linsolve, scenarios

    wrapped: dict[object, object] = {}

    def patch(module, attr, make):
        original = getattr(module, attr)
        if original not in wrapped:
            wrapped[original] = make(original)
        setattr(module, attr, wrapped[original])

    def spanned(name, after=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return store.call(name, fn, args, kwargs, after=after)
            return wrapper
        return make

    def traced_ivp_solve(fn):
        @functools.wraps(fn)
        def wrapper(rhs, a, b, q0, v0, steps, integrands=None):
            counters = store.counters()
            nodes = 0
            if integrands:
                nodes = sum(sum(1 for _ in expressions.walk(g)) for g in integrands.values())
                integrands = {k: _CountedChannel(g, counters) for k, g in integrands.items()}
            return store.call(
                "integrators.ivp_solve", fn,
                (_CountedRhs(rhs, counters), a, b, q0, v0, steps),
                {"integrands": integrands},
                attrs={"steps": steps, "channel_nodes": nodes},
            )
        return wrapper

    def shooting_attrs(result, attrs):
        traj, report = result
        attrs.update(steps=traj.steps, iterations=report.iterations,
                     converged=report.converged)

    def counted_linsolve(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = store.counters()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                c.linsolve_s += elapsed
                c.linsolve_calls += 1
                if c.in_rhs:
                    c.rhs_linsolve_s += elapsed
        return wrapper

    def traced_write_csv(name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(self, path):
                return store.call(name, fn, (self, path), after=lambda _, attrs: attrs.update(
                    bytes=os.path.getsize(path)))
            return wrapper
        return make

    for module in (cli, scenarios):
        patch(module, "load_scenario", spanned("scenarios.load_scenario"))
    for attr in ("build_problem", "build_generators"):
        patch(cli, attr, spanned(f"scenarios.{attr}"))
    patch(scenarios, "parse", spanned("expressions.parse"))
    patch(scenarios, "gauge_rate_from_reduced_condition",
          spanned("charges.gauge_rate_from_reduced_condition"))
    for module in (cli, integrators):
        patch(module, "to_explicit_ode", spanned("euler_lagrange.to_explicit_ode"))
        patch(module, "ivp_solve", traced_ivp_solve)
    patch(cli, "bvp_shoot", spanned("integrators.bvp_shoot", after=shooting_attrs))
    for attr in CHARGE_FUNCTIONS:
        patch(cli, attr, spanned(f"charges.{attr}"))
    patch(cli, "fractional_action", spanned("action.fractional_action"))
    patch(linsolve, "solve", counted_linsolve)
    patch(integrators.Trajectory, "write_csv", traced_write_csv("cli.csv.trajectory"))
    patch(charges.ChargeSeries, "write_csv", traced_write_csv("cli.csv.charge"))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and counters."""
    spans = dump["spans"]
    hot = dump["hot"]
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)

    def dur(name):
        return sum(s[5] - s[4] for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    gauge = "charges.gauge_rate_from_reduced_condition"
    gauge_in_build = sum(
        c[5] - c[4]
        for s in by_name.get("scenarios.build_generators", ())
        for c in children.get(s[0], ()) if c[3] == gauge
    )
    ivp = by_name.get("integrators.ivp_solve", [])
    ivp_s = dur("integrators.ivp_solve")
    shots = by_name.get("integrators.bvp_shoot", [])
    shoot_steps = sum(
        c[6]["steps"] for s in shots for c in children.get(s[0], ())
        if c[3] == "integrators.ivp_solve"
    )
    series = [s for name in CHARGE_FUNCTIONS for s in by_name.get(f"charges.{name}", ())]
    csv = by_name.get("cli.csv.trajectory", []) + by_name.get("cli.csv.charge", [])
    commands = by_name.get("cli.command", [])
    command_s = dur("cli.command")
    cli_self = sum(
        (s[5] - s[4]) - _union_length([(c[4], c[5]) for c in children.get(s[0], ())])
        for s in commands
    )
    rhs_s = hot["rhs_s"] - hot["rhs_linsolve_s"]
    return {
        "scenarios.load_s": dur("scenarios.load_scenario"),
        "scenarios.build_s": dur("scenarios.build_problem")
        + dur("scenarios.build_generators") - gauge_in_build,
        "expressions.parse_calls": count("expressions.parse"),
        "expressions.parse_s": dur("expressions.parse"),
        "expressions.channel_nodes": sum(s[6]["channel_nodes"] for s in ivp),
        "euler_lagrange.rhs_calls": hot["rhs_calls"],
        "euler_lagrange.rhs_s": rhs_s,
        "euler_lagrange.rhs_us": 1e6 * rhs_s / hot["rhs_calls"] if hot["rhs_calls"] else 0.0,
        "euler_lagrange.derive_s": dur("euler_lagrange.to_explicit_ode"),
        "linsolve.calls": hot["linsolve_calls"],
        "linsolve.s": hot["linsolve_s"],
        "integrators.ivp_solves": len(ivp),
        "integrators.rk4_steps": sum(s[6]["steps"] for s in ivp),
        "integrators.channel_evals": hot["channel_evals"],
        "integrators.channel_s": hot["channel_s"],
        "integrators.rk4_self_s": ivp_s - hot["rhs_s"] - hot["channel_s"],
        "integrators.shoot_iters": sum(s[6].get("iterations", 0) for s in shots),
        "integrators.shoot_useful_frac": (
            sum(s[6].get("steps", 0) for s in shots) / shoot_steps if shoot_steps else 0.0
        ),
        "integrators.shoot_unconverged": sum(1 for s in shots if not s[6].get("converged")),
        "charges.gauge_derive_s": dur(gauge),
        "charges.series_calls": len(series),
        "charges.series_s": sum(s[5] - s[4] for s in series),
        "charges.precondition_errors": sum(
            1 for s in series if s[6].get("error") == "ChargePreconditionError"
        ),
        "action.calls": count("action.fractional_action"),
        "action.s": dur("action.fractional_action"),
        "cli.csv_write_s": sum(s[5] - s[4] for s in csv),
        "cli.csv_bytes": sum(s[6].get("bytes", 0) for s in csv),
        "cli.self_s": cli_self,
        "cli.busy_ratio": ivp_s / command_s if command_s else 0.0,
    }
