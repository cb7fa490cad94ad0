"""Seeded scenario files and command lists for the benchmark workloads.

The mix of every workload is fixed: which Lagrangian families,
generators, charges, step counts and sweep widths it runs.  The seed draws
only coefficients, alpha and the initial or boundary values, so runs with
different seeds do the same kind and amount of work and compare.  Every
coefficient is drawn, so no two scenarios of a plan share a Lagrangian
text, and a cache can only help inside one command.
"""

from __future__ import annotations

import random

WORKLOADS = ("ivp_corpus", "bvp_shoot", "sweep_narrow")

OBSERVER_TIME = 2.0
INTERVAL = [0.0, 1.0]

# The corpus Lagrangian families of the acceptance theorem corpus, each
# coefficient a seeded draw.  Coefficient ranges exclude 0 and 1, where the
# expression constructors fold terms away and the trees change shape.
# name -> (n, template, coefficient ranges, autonomous, cyclic in every q)
FAMILIES = {
    "free": (1, "{m}*v0^2/2", {"m": (1.1, 1.6)}, True, True),
    "oscillator": (1, "({m}*v0^2 - {k}*q0^2)/2", {"m": (1.1, 1.6), "k": (0.5, 0.9)}, True, False),
    "pendulum": (1, "{m}*v0^2/2 + {k}*cos(q0)", {"m": (1.1, 1.6), "k": (0.5, 0.9)}, True, False),
    "quartic": (
        1, "{m}*v0^2/2 - {k}*q0^4/4 + {c}*q0",
        {"m": (1.1, 1.6), "k": (0.5, 0.9), "c": (0.2, 0.6)}, True, False,
    ),
    "driven": (
        1, "{m}*v0^2/2 - {k}*q0^2/2 + {c}*theta*q0/2",
        {"m": (1.1, 1.6), "k": (0.5, 0.9), "c": (0.2, 0.6)}, False, False,
    ),
    "coupled": (
        2, "({m0}*v0^2 + {m1}*v1^2)/2 - {k}*(q0 - q1)^2/2",
        {"m0": (1.1, 1.6), "m1": (1.1, 1.6), "k": (0.5, 0.9)}, True, False,
    ),
    # bvp_shoot only: the coupled family with a cos(q0) nonlinearity
    "coupled_cos": (
        2, "({m0}*v0^2 + {m1}*v1^2)/2 + {k}*cos(q0) - {c}*(q0 - q1)^2/2",
        {"m0": (1.1, 1.6), "m1": (1.1, 1.6), "k": (0.5, 0.9), "c": (0.2, 0.6)}, True, False,
    ),
    # bvp_shoot only: quartic without the linear drive
    "quartic_bvp": (1, "{m}*v0^2/2 - {k}*q0^4/4", {"m": (1.1, 1.6), "k": (0.5, 0.9)}, True, False),
}

# The corpus generators (tau, xi) of the acceptance theorem corpus.
GENERATORS = {
    1: [("1", ["0"]), ("0", ["1"]), ("theta/2", ["q0/2"]), ("sin(theta)", ["cos(q0)"])],
    2: [
        ("1", ["0", "0"]),
        ("0", ["1", "1"]),
        ("theta/2", ["q0/2", "q1/2"]),
        ("sin(theta)", ["cos(q0)", "q1^2/4"]),
    ],
}
TIME_TRANSLATION, SPACE_TRANSLATION, SCALING, TRIGONOMETRIC = range(4)

# ivp_corpus: (family, scenario count); exactly a quarter are 2-dof coupled.
IVP_CORPUS_MIX = (
    ("free", 4), ("oscillator", 4), ("pendulum", 4),
    ("quartic", 3), ("driven", 3), ("coupled", 6),
)
# bvp_shoot: (family, count, range of qb[0]); a third 2-dof with cos(q0),
# the rest nonlinear 1-dof.  The ranges keep the Newton iteration count of
# each family the same for every seed, far from the 1e-9 tolerance: the
# 2-dof scenarios miss by ~1e-5 after one iteration and below 1e-10 after
# two; the 1-dof ones miss by 1e-8..1e-5 after two and below 1e-11 after
# three.  Alpha stays in BVP_ALPHA because near alpha = 1 the drag
# vanishes and shooting would converge one iteration early on some seeds.
BVP_SHOOT_MIX = (("coupled_cos", 3, (0.2, 0.4)), ("pendulum", 3, (1.6, 2.4)),
                 ("quartic_bvp", 3, (0.9, 1.3)))
BVP_ALPHA = (0.25, 0.75)
# sweep_narrow: (family, generator, alpha count) of the ten narrow sweeps.
# The two costliest, the K = 8 oscillator sweeps, have the same shape, so
# the tail percentile falls inside one group of like samples.
SWEEP_NARROW_MIX = (
    ("free", SPACE_TRANSLATION, 2), ("oscillator", TIME_TRANSLATION, 3),
    ("pendulum", SCALING, 4), ("quartic", TIME_TRANSLATION, 5),
    ("driven", SPACE_TRANSLATION, 6), ("free", TIME_TRANSLATION, 7), ("oscillator", SCALING, 8),
    ("pendulum", TRIGONOMETRIC, 3), ("quartic", SPACE_TRANSLATION, 5), ("oscillator", SCALING, 8),
)

# Seconds one pass takes at the reference speed, worker start and output
# checks included; sizes the fixed number of passes of a run.
PASS_SECONDS = {"ivp_corpus": 4.7, "bvp_shoot": 9.5, "sweep_narrow": 2.8}


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _charges(family: str) -> list[str]:
    """Charge kinds whose preconditions hold for the family."""
    _, _, _, autonomous, cyclic = FAMILIES[family]
    return ["noether"] + (["energy"] if autonomous else []) + (["momentum"] if cyclic else [])


class _Plan:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: dict[str, dict] = {}
        self.commands: list[list[str]] = []
        self.lagrangians: set[str] = set()

    def lagrangian(self, family: str) -> str:
        _, template, ranges, _, _ = FAMILIES[family]
        while True:
            text = template.format(**{k: _draw(self.rng, *r) for k, r in ranges.items()})
            if text not in self.lagrangians:
                self.lagrangians.add(text)
                return text

    def initial_values(self, n: int) -> dict:
        q0 = [_draw(self.rng, 0.2, 0.6)] + [_draw(self.rng, -0.4, 0.0) for _ in range(n - 1)]
        v0 = [_draw(self.rng, 0.3, 0.7)] + [_draw(self.rng, 0.0, 0.3) for _ in range(n - 1)]
        return {"type": "ivp", "q0": q0, "v0": v0}

    def add(self, family: str, generator: int, alpha, mode: dict, steps: int,
            commands: tuple[str, ...]) -> None:
        n = FAMILIES[family][0]
        name = f"{self.workload}_{len(self.files):02d}_{family}"
        path = f"scenarios/{name}.json"
        tau, xi = GENERATORS[n][generator]
        self.files[path] = {
            "name": name,
            "n": n,
            "lagrangian": self.lagrangian(family),
            "alpha": alpha,
            "observer_time": OBSERVER_TIME,
            "interval": INTERVAL,
            "mode": mode,
            "steps": steps,
            "generators": [{"tau": tau, "xi": xi, "gauge": "auto"}],
            "charges": _charges(family),
            "output_dir": "out",
        }
        for command in commands:
            self.commands.append([command, "--scenario", path])

    def alpha(self) -> float:
        return _draw(self.rng, 0.25, 0.9999)

    def sweep(self, count: int) -> dict:
        return {"from": _draw(self.rng, 0.25, 0.3), "to": _draw(self.rng, 0.95, 0.9999),
                "count": count}


def build_plan(workload: str, seed: int) -> dict:
    """Scenario files and CLI argument lists of one pass of a workload.

    Returns ``{"files": {path: scenario object}, "commands": [argv, ...]}``
    with paths relative to the directory the pass runs in.  The same
    workload and seed always give the same plan.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    b = _Plan(workload, seed)
    if workload == "ivp_corpus":
        for family, count in IVP_CORPUS_MIX:
            n = FAMILIES[family][0]
            for i in range(count):
                b.add(family, i % len(GENERATORS[n]), b.alpha(), b.initial_values(n),
                      2000, ("charge",))
    elif workload == "bvp_shoot":
        for family, count, qb_range in BVP_SHOOT_MIX:
            n = FAMILIES[family][0]
            for _ in range(count):
                qb = [_draw(b.rng, *qb_range)] + [_draw(b.rng, 0.2, 0.5) for _ in range(n - 1)]
                mode = {"type": "bvp", "qa": [0.0] * n, "qb": qb}
                b.add(family, TIME_TRANSLATION, _draw(b.rng, *BVP_ALPHA), mode, 1000,
                      ("solve", "charge"))
    else:
        for family, generator, count in SWEEP_NARROW_MIX:
            b.add(family, generator, b.sweep(count), b.initial_values(1), 1000, ("sweep",))
    return {"files": b.files, "commands": b.commands}
