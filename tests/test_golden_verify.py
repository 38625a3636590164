"""Golden results of ``analysis.verify`` on small single- and multi-expert cases.

The fixture in ``golden/verify.json`` pins, for each case and seed, every
check ``expertq verify`` reports: names, verdicts, measured values,
tolerances, simulated loads and the drift, routing-frequency and
service-success margins ``measured_worst_excess``. Every case runs the one
path ``verify`` takes for any expert count. Refactors of the capacity
routes, the misestimation check or the routing checks must reproduce it
exactly. To regenerate the fixture after a deliberate change of behaviour,
run ``PYTHONPATH=src python tests/test_golden_verify.py``.
"""

import json
from pathlib import Path

import pytest

from expertq.analysis import verify
from expertq.model import ArrivalSpec, ExpertProfile, Instance

GOLDEN = Path(__file__).parent / "golden" / "verify.json"
SEEDS = (3, 11)


def single_instance():
    return Instance(
        experts=(ExpertProfile.from_mean_times(0, [1, 2]),),
        arrivals=ArrivalSpec(lam=0.5, pmf=[[0.5, 0.5]]),
    )


def specialists_instance():
    third = [1 / 3, 1 / 3, 1 / 3]
    return Instance(
        experts=tuple(
            ExpertProfile.from_mean_times(i, [1 if x == i else None for x in range(3)])
            for i in range(3)
        ),
        arrivals=ArrivalSpec(lam=0.6, pmf=[third] * 3),
    )


def mixed_instance():
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


CONFIG = {"routing_check": {"horizon": 5_000}, "misestimation": {"gamma": 0.5, "horizon": 5_000}}
CASES = {
    "single": (single_instance, CONFIG),
    "specialists": (specialists_instance, CONFIG),
    "mixed": (mixed_instance, CONFIG),
}


def snapshot(case: str, seed: int) -> list[dict]:
    build, cfg = CASES[case]
    # The stored form: floats survive the JSON round trip exactly.
    return json.loads(json.dumps(verify(build(), cfg, seed)))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{case}@{seed}" for case in CASES for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_matches_golden(golden, case, seed):
    assert snapshot(case, seed) == golden[f"{case}@{seed}"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    docs = {f"{case}@{seed}": snapshot(case, seed) for case in CASES for seed in SEEDS}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
