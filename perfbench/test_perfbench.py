"""Tests of the benchmark's own parts: the seeded generator, the output
gate, the traced pass, the pass count, the tail percentile and the metric
names it promises."""

import json
import re

import pytest

import run
import tracer
from workloads import WORKLOADS, build_plan

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NUMBER = re.compile(r"\d+\.\d+")


def _shape(plan):
    """A plan with every drawn number blanked out."""
    return NUMBER.sub("#", json.dumps(plan, sort_keys=True))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plan_is_deterministic_for_a_seed(workload):
    assert build_plan(workload, 7) == build_plan(workload, 7)
    assert build_plan(workload, 7) != build_plan(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_draws_only_numbers(workload):
    assert _shape(build_plan(workload, 1)) == _shape(build_plan(workload, 2))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", range(5))
def test_no_lagrangian_repeats_within_a_pass(workload, seed):
    texts = [s["lagrangian"] for s in build_plan(workload, seed)["files"].values()]
    assert len(set(texts)) == len(texts)


def test_ivp_corpus_is_a_quarter_two_dof():
    scenarios = list(build_plan("ivp_corpus", 3)["files"].values())
    assert len(scenarios) == 24
    assert sum(s["n"] == 2 for s in scenarios) == 6


def _single_charge_plan(gauge):
    scenario = {
        "name": "osc", "n": 1, "lagrangian": "(1.3*v0^2 - 0.7*q0^2)/2",
        "alpha": 0.5, "observer_time": 2.0, "interval": [0.0, 1.0],
        "mode": {"type": "ivp", "q0": [0.4], "v0": [0.5]}, "steps": 200,
        "generators": [{"tau": "1", "xi": ["0"], "gauge": gauge}],
        "charges": ["noether"], "output_dir": "out",
    }
    path = "scenarios/osc.json"
    return {"files": {path: scenario}, "commands": [["charge", "--scenario", path]]}


def test_gate_counts_a_drifting_charge_as_failed(tmp_path):
    # Time translation with a zero gauge is not conserved at alpha < 1: the
    # CLI exits with 0, and only the drift check in the gate catches it.
    bad = run.run_pass(_single_charge_plan("0"), trace=False, work=tmp_path)
    (cmd,) = bad["commands"]
    assert cmd["exit_code"] == 0
    assert cmd["failure"] is not None and "relative drift" in cmd["failure"]

    good = run.run_pass(_single_charge_plan("auto"), trace=False, work=tmp_path)
    assert good["commands"][0]["failure"] is None


def test_traced_pass_counts_layers_and_keeps_outputs(tmp_path):
    plan = _single_charge_plan("auto")
    plain = run.run_pass(plan, trace=False, work=tmp_path)
    traced = run.run_pass(plan, trace=True, work=tmp_path)
    assert traced["outputs_sha256"] == plain["outputs_sha256"]
    layers = traced["layers"]
    assert layers["integrators.ivp_solves"] == 1
    assert layers["integrators.rk4_steps"] == 200
    assert layers["euler_lagrange.rhs_calls"] == 4 * 200
    assert layers["integrators.channel_evals"] == 4 * 200
    assert layers["charges.series_calls"] == 1
    assert layers["cli.csv_bytes"] > 0
    assert layers["linsolve.calls"] == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(1, 101)) == (90, 90, 10)
    assert run.tail_percentile(range(1, 1001)) == (99, 990, 10)
    assert run.tail_percentile(range(1, 13)) == (16, 2, 10)
    assert run.tail_percentile(range(1, 11)) is None
    assert run.tail_percentile([1.0] * 30) is None


def test_pass_count_is_fixed_and_enough_for_the_tail():
    assert run.pass_count("sweep_narrow", 10, 30, trace=False) == 10
    assert run.pass_count("sweep_narrow", 2, 1, trace=False) == 6
    assert run.pass_count("bvp_shoot", 18, 1, trace=False) == 3
    assert run.pass_count("bvp_shoot", 18, 1, trace=True) == 2


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_end_to_end_metrics_match_benchmark_json():
    results = [{"setup_s": 0.1, "raw_setup_s": 0.1, "wall_s": 1.0, "raw_wall_s": 1.0,
                "peak_rss_mb": 30.0,
                "commands": [{"seconds": 0.01 * i, "raw_seconds": 0.01 * i}
                             for i in range(1, 12)]}]
    metrics, _ = run.end_to_end(results)
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("end_to_end")


def test_per_layer_metrics_match_benchmark_json():
    hot = {name: 0 for name in tracer.HotCounters.__slots__}
    layers = tracer.layer_metrics({"spans": [], "hot": hot})
    results = [{"traced": False, "wall_s": 1.0},
               {"traced": True, "wall_s": 1.1, "speed_scale": 1.0, "layers": layers}]
    metrics, _ = run.per_layer(results)
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("per_layer")
