"""Golden per-seed trajectories for every scheduler kind and selection rule.

The fixture in ``golden/schedulers.json`` pins, for each case and seed, the
run summary, the final queue state, every expert's drift record (three
integers, see ``TraceStats.busy_moments``), the busy-slot count and the
analytic boundary.
``golden/steps.json`` pins, for the same cases and seeds, the events
:func:`expertq.sim.steps` reports over ``STEP_SLOTS`` slots (a sha256 of
their canonical JSON plus per-field counts) and the state it ends in.
Refactors of the scheduler, the engine or the load
formula must reproduce both exactly. To regenerate them after a
deliberate change of behaviour, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
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
from expertq.sim import SimConfig, run, steps

GOLDEN = Path(__file__).parent / "golden" / "schedulers.json"
GOLDEN_STEPS = Path(__file__).parent / "golden" / "steps.json"
HORIZON = 4000
STEP_SLOTS = 300
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


def wide_success():
    """16 experts x 30 topics; about one pair in seven is skill-less, and
    every topic has an expert that can answer it."""
    return [
        [0.0 if (3 * i + x) % 7 == 0 else (1 + (5 * i + 3 * x) % 10) / 10 for x in range(30)]
        for i in range(16)
    ]


def wide_instance():
    weights = np.array([[1 + (i + 2 * x) % 4 for x in range(30)] for i in range(16)], float)
    return Instance(
        experts=tuple(
            ExpertProfile.from_success_probs(i, row) for i, row in enumerate(wide_success())
        ),
        arrivals=ArrivalSpec(lam=0.4, pmf=weights / weights.sum(axis=1, keepdims=True)),
    )


def wide_routing():
    """Route each topic in proportion to skill, so every expert carries the
    same load, sum_x lam_x / sum_j q[j, x] (about 0.8 here)."""
    q = np.array(wide_success())
    return q / q.sum(axis=0)


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
    wide = kind.startswith("wide_")
    inst = wide_instance() if wide else multi_instance()
    if kind.endswith("routing"):
        policy = RoutingPolicy(s=wide_routing() if wide else ROUTING)
        return inst, offline_routing_scheduler(inst, policy, selection=rule)
    return inst, mismatch_baseline(inst, selection=rule)


CASES = [f"{k}:{r}" for k in ("work_conserving", "loss") for r in TIE_BREAKS] + [
    f"{k}:{r}"
    for k in ("routing", "baseline", "wide_routing", "wide_baseline")
    for r in SELECTIONS
]


def state_doc(state) -> dict:
    return {
        "t": state.t,
        "q": state.q.tolist(),
        "cum_arrivals": state.cum_arrivals.tolist(),
        "cum_departures": state.cum_departures.tolist(),
        "cum_losses": state.cum_losses.tolist(),
    }


def snapshot(case: str, seed: int) -> dict:
    inst, sched = build(case)
    stats = run(
        SimConfig(
            instance=inst, scheduler=sched, horizon=HORIZON, seed=seed, record_lyapunov=True
        )
    )
    doc = {
        "summary": stats.summary(),
        "final_state": state_doc(stats.final_state),
        "busy_moments": stats.busy_moments,
        "busy_slots": sum(count for count, _, _ in stats.busy_moments),
        "analytic_boundary": analytic_boundary(inst, sched),
    }
    # The stored form: floats survive the JSON round trip exactly.
    return json.loads(json.dumps(doc))


FIELDS = ("arrivals", "admitted", "enqueued", "losses", "assignments", "completions")


def step_snapshot(case: str, seed: int) -> dict:
    """``STEP_SLOTS`` steps from the empty system: the events' digest and
    per-field counts, and the final state."""
    inst, sched = build(case)
    slots = []
    for state, events in steps(
        SimConfig(instance=inst, scheduler=sched, horizon=STEP_SLOTS, seed=seed)
    ):
        # Tuples of pairs become lists of lists; assignments keep their
        # key order as (expert, topic or null) pairs.
        slots.append(
            [
                [list(pair) for pair in events.arrivals],
                [list(pair) for pair in events.admitted],
                [list(pair) for pair in events.enqueued],
                [list(pair) for pair in events.losses],
                [[i, x] for i, x in events.assignments.items()],
                [list(pair) for pair in events.completions],
            ]
        )
    canonical = json.dumps(slots, separators=(",", ":")).encode("utf-8")
    counts = {field: sum(len(slot[k]) for slot in slots) for k, field in enumerate(FIELDS)}
    counts["busy_assignments"] = sum(x is not None for slot in slots for _, x in slot[4])
    return {
        "events_sha256": hashlib.sha256(canonical).hexdigest(),
        "counts": counts,
        "final_state": state_doc(state),
    }


def keys():
    return sorted(f"{case}@{seed}" for case in CASES for seed in SEEDS)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_steps():
    return json.loads(GOLDEN_STEPS.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden, golden_steps):
    assert sorted(golden) == keys()
    assert sorted(golden_steps) == keys()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_trajectory_matches_golden(golden, case, seed):
    assert snapshot(case, seed) == golden[f"{case}@{seed}"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_step_events_match_golden(golden_steps, case, seed):
    assert step_snapshot(case, seed) == golden_steps[f"{case}@{seed}"]


def test_wide_instance_is_valid_and_skill_less_somewhere():
    inst, sched = build("wide_routing:request_weighted")  # an invalid Instance raises
    assert (inst.n_experts, inst.n_topics) == (16, 30)
    q = inst.success_matrix()
    assert (q == 0).any() and (q > 0).any(axis=0).all()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, make in ((GOLDEN, snapshot), (GOLDEN_STEPS, step_snapshot)):
        docs = {f"{case}@{seed}": make(case, seed) for case in CASES for seed in SEEDS}
        path.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
