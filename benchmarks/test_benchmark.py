"""Tests of the benchmark itself: inputs, checks, metric names, tracing.

Tracing patches the ``expertq`` modules it wraps, so every traced
command here runs in a subprocess through ``launch.py``, as the
benchmark runs it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen_inputs
import run
from spans import SimProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _launch(tmp_path: Path, config: dict, command: str, *opts: str) -> tuple[int, dict]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "config.json").write_text(json.dumps(config))
    report = tmp_path / "report.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(report), *opts, "--",
            command, str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, env=ENV, cwd=ROOT, capture_output=True, timeout=120)
    return proc.returncode, json.loads(report.read_text())


SMALL_ROUTING = {
    "topics": 3,
    "lambda": 0.5,
    "pmf": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
    "experts": [
        {"id": 0, "T": [1, 2, None]},
        {"id": 1, "T": [None, 1.5, 2]},
        {"id": 2, "T": [2, None, 1]},
    ],
}


@pytest.mark.parametrize("workload", gen_inputs.WORKLOADS)
def test_inputs_are_byte_identical_for_a_seed(tmp_path, workload):
    a = gen_inputs.write(workload, 5, tmp_path / "a").parent
    b = gen_inputs.write(workload, 5, tmp_path / "b").parent
    c = gen_inputs.write(workload, 6, tmp_path / "c").parent
    for name in ("instance.json", "config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "instance.json").read_bytes() != (c / "instance.json").read_bytes()


def test_generator_never_imports_expertq():
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import gen_inputs; "
            "[gen_inputs.build(w, 1) for w in gen_inputs.WORKLOADS]; "
            "print('expertq' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_route_load_is_below_a_feasible_routing_capacity():
    instance, _ = gen_inputs.build("route-wide", 3)
    times = [[float("inf") if t is None else t for t in e["T"]] for e in instance["experts"]]
    import numpy as np

    bound = gen_inputs.routing_bound_load(np.array(times), np.array(instance["pmf"]))
    assert instance["lambda"] * bound == pytest.approx(gen_inputs.ROUTE_LOAD_FRACTION)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == set(run.WORKLOADS) == set(gen_inputs.WORKLOADS)
    names = [*e2e, *layers, *run.END_TO_END_PRINTED, *run.PER_LAYER_PRINTED, *run.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_sweep_check_accepts_a_bracket_and_rejects_a_miss():
    instance, config = gen_inputs.build("sweep-single", 2)
    star = gen_inputs.closed_form_capacity(instance)
    lambdas = config["lambdas"]
    good = {"lambda_lo": lambdas[2], "lambda_hi": lambdas[3], "analytic_lambda_star": star}
    assert run.check_output("sweep-single", instance, good) == []
    miss = dict(good, lambda_lo=lambdas[4], lambda_hi=lambdas[5])
    assert run.check_output("sweep-single", instance, miss)
    assert run.check_output("sweep-single", instance, dict(good, lambda_hi=None))


def test_route_and_verify_checks():
    assert run.check_output("route-wide", {}, {"verdict": "stable"}) == []
    assert run.check_output("route-wide", {}, {"verdict": "inconclusive"})
    assert run.check_output("verify-quad", {}, {"all_passed": True}) == []
    bad = {"all_passed": False, "checks": [{"name": "duality_gap", "passed": False}]}
    assert "duality_gap" in run.check_output("verify-quad", {}, bad)[0]


def _probe(n_experts: int = 2):
    import expertq as eq

    inst = eq.Instance(
        experts=tuple(eq.ExpertProfile.from_mean_times(i, [1.0, 2.0]) for i in range(n_experts)),
        arrivals=eq.ArrivalSpec(lam=0.3, pmf=[[0.5, 0.5]] * n_experts),
    )
    sched = eq.mismatch_baseline(inst)
    return SimProbe(eq.SimConfig(instance=inst, scheduler=sched, horizon=3, seed=0))


def _select(probe, expert: int, topic: int) -> int:
    """A select decision as the probe records it."""
    return expert * probe.n_topics + topic


def test_replay_counts_busy_expert_slots_after_arrivals():
    probe = _probe()
    # slot 0: two arrivals, both routed to expert 1; expert 1 serves topic 0
    # and completes (q = 1). slot 1: nothing arrives, expert 1 still busy
    # and fails on topic 1 (q = 0.5). slot 2: one arrival to expert 0.
    probe.arrival_counts = [2, 0, 1]
    probe.admits = [True, True, True]
    probe.routes = [1, 1, 0]
    probe.selects = [_select(probe, 1, 0), _select(probe, 1, 1), _select(probe, 0, 1),
                     _select(probe, 1, 1)]
    probe.services = [0.1, 0.9, 0.2, 0.3]
    busy, completions, problems = probe.replay()
    assert (busy, completions, problems) == (4, 3, [])


def test_replay_reports_an_engine_that_serves_the_wrong_expert():
    probe = _probe()
    probe.arrival_counts = [1, 0, 0]
    probe.admits, probe.routes = [True], [1]
    probe.selects, probe.services = [_select(probe, 0, 0)], [0.5]
    assert "expert 0 served where 1" in probe.replay()[2][0]
    probe.selects, probe.services = [_select(probe, 1, 0)] * 2, [0.5, 0.5]
    assert probe.replay()[2]


def test_traced_launch_cross_checks_pass_and_match_untraced_output(tmp_path):
    config = {"instance": SMALL_ROUTING, "scheduler": {"kind": "routing"},
              "horizon": 3000, "seed": 4}
    code, report = _launch(tmp_path / "t", config, "simulate", "--trace", "0")
    assert code == 0 and report["problems"] == []
    layers = report["layers"]
    assert layers["sim.slots"] == 3000
    assert layers["sched.route_calls"] == layers["rng.uniforms.routing"] > 0
    busy = layers["sim.busy_expert_slots"]
    assert layers["sched.select_calls"] == layers["rng.uniforms.service"] == busy > 0
    assert layers["lp.solve_calls"] == 1
    assert layers["import.scipy_optimize_s"] > 0
    names = {s["name"] for s in report["spans"]}
    assert {"cli.main", "sim.run", "capacity.multi_capacity_dual", "lp.solve_lp"} <= names
    code, plain = _launch(tmp_path / "u", config, "simulate", "--cut", "sim.run")
    assert code == 0 and plain["cut_ns"] > 0 and plain["sim_slots"] == 3000
    assert run.digest(tmp_path / "t" / "out") == run.digest(tmp_path / "u" / "out")


def test_sweep_cells_are_traced_through_the_analysis_binding(tmp_path):
    config = {
        "instance": {
            "topics": 2, "lambda": 0.3, "pmf": [[0.5, 0.5]], "experts": [{"id": 0, "T": [1, 2]}]
        },
        "scheduler": {"kind": "work_conserving", "tie_break": "uniform-random"},
        "lambdas": [0.3, 0.5, 0.8],
        "seeds": [1, 2],
        "horizon": 2000,
    }
    code, report = _launch(tmp_path, config, "sweep", "--trace", "0")
    assert code == 0 and report["problems"] == []
    assert report["layers"]["analysis.sweep_cells"] == 6
    assert report["layers"]["sim.slots"] == 12000


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "benchmarks/run.py", "--workload", "route-wide", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
