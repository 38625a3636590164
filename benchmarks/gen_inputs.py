"""Seeded inputs for the benchmark workloads, written with numpy only.

The generator never imports ``expertq``, so a change to the program can
never change the inputs it is measured on. The same (workload, seed) pair
always writes byte-identical files.

    python3 benchmarks/gen_inputs.py route-wide 7 inputs/
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-single", "route-wide", "verify-quad")

# sweep-single: one expert, two topics; the load grid straddles the
# closed-form capacity at these multiples of it, SWEEP_STEP apart on each
# side, with no point near 1.0 where a finite run cannot decide stability.
SWEEP_MULTIPLES = (0.65, 0.75, 0.85, 1.15, 1.25, 1.35)
# Research times are scaled so that sum_x p(x) T(x) is this, which puts
# lambda* near 0.4 on every seed: the work per slot does not depend on the
# seed, while the split between the two topics does.
SWEEP_WORK = 2.5
SWEEP_STEP = 0.10
SWEEP_SEEDS = 2
SWEEP_HORIZON = 60_000

# route-wide: 32 experts x 50 topics, about half the pairs unanswerable,
# loaded at this fraction of a numpy-side feasible-routing capacity bound.
ROUTE_EXPERTS = 32
ROUTE_TOPICS = 50
ROUTE_LOAD_FRACTION = 0.9
ROUTE_HORIZON = 16_384

# verify-quad: 4 experts x 12 topics at a grid resolution that fits in
# memory (the CLI default 1e-3 needs ~5.4 GB at 4 experts).
QUAD_EXPERTS = 4
QUAD_TOPICS = 12
QUAD_LOAD_FRACTION = 0.5
QUAD_RESOLUTION = 0.004
QUAD_GEOMETRIC_TRIALS = 1_000_000
QUAD_ROUTING_HORIZON = 50_000


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag])))


def _times(rng, n: int, topics: int, lo: float, hi: float, answer_share: float):
    """Mean research times rounded to 1e-3; inf marks an unanswerable pair.
    Every topic gets at least one answering expert and every expert at
    least one topic, so the instance always has a positive capacity."""
    times = np.round(rng.uniform(lo, hi, size=(n, topics)), 3)
    answer = rng.random((n, topics)) < answer_share
    for x in np.nonzero(~answer.any(axis=0))[0]:
        answer[rng.integers(n), x] = True
    for i in np.nonzero(~answer.any(axis=1))[0]:
        answer[i, rng.integers(topics)] = True
    return np.where(answer, times, np.inf)


def _pmf(rng, n: int, topics: int) -> np.ndarray:
    rows = rng.dirichlet(np.ones(topics), size=n)
    return rows / rows.sum(axis=1, keepdims=True)


def routing_bound_load(times: np.ndarray, pmf: np.ndarray, rounds: int = 50) -> float:
    """Worst per-expert work per unit load under a feasible routing.

    Starts from splitting each topic in proportion to answering speed and
    shifts mass away from overloaded experts for a few rounds. Every
    iterate is a feasible routing, so its worst load bounds the optimum
    from above and a load below ``1 / bound`` is stable under the optimal
    (dual LP) routing as well.
    """
    answer = np.isfinite(times)
    work = pmf.sum(axis=0) * np.where(answer, times, 0.0)
    share = np.where(answer, 1.0 / np.where(answer, times, 1.0), 0.0)
    best = np.inf
    for _ in range(rounds):
        share = share / share.sum(axis=0, keepdims=True)
        loads = (share * work).sum(axis=1)
        best = min(best, float(loads.max()))
        share = share * (loads.mean() / loads)[:, None]
    return best


def _instance_doc(lam: float, pmf: np.ndarray, times: np.ndarray) -> dict:
    return {
        "topics": int(times.shape[1]),
        "lambda": float(lam),
        "pmf": [[float(v) for v in row] for row in pmf],
        "experts": [
            {"id": i, "T": [float(t) if np.isfinite(t) else None for t in row]}
            for i, row in enumerate(times)
        ],
    }


def closed_form_capacity(instance: dict) -> float:
    """Single-expert capacity 1 / sum_x p(x) T(x), recomputed from the file."""
    p = np.asarray(instance["pmf"][0], dtype=np.float64)
    t = np.asarray(instance["experts"][0]["T"], dtype=np.float64)
    return float(1.0 / np.sum(p * t))


def build(workload: str, seed: int) -> tuple[dict, dict]:
    """The (instance document, CLI config document) for one workload seed."""
    rng = _rng(workload, seed)
    if workload == "sweep-single":
        p = rng.uniform(0.2, 0.8)
        pmf = np.array([[p, 1.0 - p]])
        raw = rng.uniform(1.5, 3.5, size=(1, 2))
        times = np.round(raw * SWEEP_WORK / float(np.sum(pmf[0] * raw[0])), 3)
        star = 1.0 / float(np.sum(pmf[0] * times[0]))
        lambdas = [m * star for m in SWEEP_MULTIPLES]
        instance = _instance_doc(lambdas[0], pmf, times)
        run_seeds = rng.integers(0, 2**31, size=SWEEP_SEEDS)
        config = {
            "instance_path": "instance.json",
            "scheduler": {"kind": "work_conserving", "tie_break": "longest-queue"},
            "lambdas": lambdas,
            "seeds": [int(s) for s in run_seeds],
            "horizon": SWEEP_HORIZON,
            "sample_interval": 200,
            "workers": 1,
        }
    elif workload == "route-wide":
        times = _times(rng, ROUTE_EXPERTS, ROUTE_TOPICS, 1.0, 3.0, 0.5)
        pmf = _pmf(rng, ROUTE_EXPERTS, ROUTE_TOPICS)
        lam = ROUTE_LOAD_FRACTION / routing_bound_load(times, pmf)
        instance = _instance_doc(lam, pmf, times)
        config = {
            "instance_path": "instance.json",
            "scheduler": {"kind": "routing"},
            "horizon": ROUTE_HORIZON,
            "seed": int(rng.integers(0, 2**31)),
            "sample_interval": 100,
        }
    elif workload == "verify-quad":
        times = _times(rng, QUAD_EXPERTS, QUAD_TOPICS, 1.0, 4.0, 0.75)
        pmf = _pmf(rng, QUAD_EXPERTS, QUAD_TOPICS)
        lam = QUAD_LOAD_FRACTION / routing_bound_load(times, pmf)
        instance = _instance_doc(lam, pmf, times)
        config = {
            "instance_path": "instance.json",
            "resolution": QUAD_RESOLUTION,
            "geometric": {"trials": QUAD_GEOMETRIC_TRIALS},
            "routing_check": {"horizon": QUAD_ROUTING_HORIZON},
            "seed": int(rng.integers(0, 2**31)),
        }
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if not 0.0 < instance["lambda"] < 1.0:
        raise ValueError(f"{workload} seed {seed}: load {instance['lambda']} outside (0, 1)")
    return instance, config


def write(workload: str, seed: int, directory: Path) -> Path:
    """Write instance.json and config.json; return the config path."""
    instance, config = build(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in (("instance.json", instance), ("config.json", config)):
        (directory / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return directory / "config.json"


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: gen_inputs.py WORKLOAD SEED DIRECTORY")
    print(write(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
