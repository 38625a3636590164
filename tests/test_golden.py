"""Golden per-seed trajectories for every scheduler kind and selection rule.

The fixture in ``golden/schedulers.json`` pins, for each case and seed, the
run summary, the final queue state, the Lyapunov series sum and the
analytic boundary. Refactors of the scheduler, the engine or the load
formula must reproduce it exactly. To regenerate it after a deliberate
change of behaviour, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from expertq.analysis import analytic_boundary
from expertq.capacity import LossPolicy, RoutingPolicy
from expertq.model import ArrivalSpec, ExpertProfile, Instance
from expertq.sched import (
    mismatch_baseline,
    offline_loss_scheduler,
    offline_routing_scheduler,
    work_conserving_single,
)
from expertq.sim import SimConfig, run

GOLDEN = Path(__file__).parent / "golden" / "schedulers.json"
HORIZON = 4000
SEEDS = (3, 11)


def single_instance():
    return Instance(
        experts=(ExpertProfile.from_success_probs(0, [1.0, 0.5, 0.25]),),
        arrivals=ArrivalSpec(lam=0.45, pmf=[[0.5, 0.3, 0.2]]),
    )


def multi_instance():
    q = [
        [0.9, 0.2, 0.0, 0.5],
        [0.3, 0.8, 0.4, 0.0],
        [0.0, 0.5, 0.7, 0.6],
    ]
    pmf = [
        [0.4, 0.3, 0.2, 0.1],
        [0.1, 0.2, 0.3, 0.4],
        [0.25, 0.25, 0.25, 0.25],
    ]
    return Instance(
        experts=tuple(ExpertProfile.from_success_probs(i, row) for i, row in enumerate(q)),
        arrivals=ArrivalSpec(lam=0.35, pmf=pmf),
    )


ROUTING = np.array(
    [
        [0.7, 0.2, 0.0, 0.5],
        [0.3, 0.5, 0.6, 0.0],
        [0.0, 0.3, 0.4, 0.5],
    ]
)
LOSS = LossPolicy(mu=[1.0, 0.6, 0.3], epsilon=0.2)
TIE_BREAKS = ("arbitrary", "uniform_random", "longest_queue")
SELECTIONS = ("request_weighted", "topic_uniform")


def build(case: str):
    kind, rule = case.split(":")
    if kind == "work_conserving":
        inst = single_instance()
        return inst, work_conserving_single(inst, tie_break=rule)
    if kind == "loss":
        inst = single_instance()
        return inst, offline_loss_scheduler(inst, LOSS, tie_break=rule)
    inst = multi_instance()
    if kind == "routing":
        return inst, offline_routing_scheduler(inst, RoutingPolicy(s=ROUTING), selection=rule)
    return inst, mismatch_baseline(inst, selection=rule)


CASES = [f"{k}:{r}" for k in ("work_conserving", "loss") for r in TIE_BREAKS] + [
    f"{k}:{r}" for k in ("routing", "baseline") for r in SELECTIONS
]


def snapshot(case: str, seed: int) -> dict:
    inst, sched = build(case)
    stats = run(
        SimConfig(
            instance=inst, scheduler=sched, horizon=HORIZON, seed=seed, record_lyapunov=True
        )
    )
    final = stats.final_state
    doc = {
        "summary": stats.summary(),
        "final_state": {
            "t": final.t,
            "q": final.q.tolist(),
            "cum_arrivals": final.cum_arrivals.tolist(),
            "cum_departures": final.cum_departures.tolist(),
            "cum_losses": final.cum_losses.tolist(),
        },
        "lyapunov_sum": float(stats.lyapunov_series.sum()),
        "busy_slots": int(stats.busy_series.sum()),
        "analytic_boundary": analytic_boundary(inst, sched),
    }
    # The stored form: floats survive the JSON round trip exactly.
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{case}@{seed}" for case in CASES for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_trajectory_matches_golden(golden, case, seed):
    assert snapshot(case, seed) == golden[f"{case}@{seed}"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    docs = {f"{case}@{seed}": snapshot(case, seed) for case in CASES for seed in SEEDS}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
