"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one PASS line on success; a failure shows up as a normal
pytest failure for that criterion. Stable runs register their
empty-system slot fraction so the final test can check the
positive-recurrence shadow across the whole suite. Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from expertq.analysis import (
    capacity_boundary_sweep,
    classify_stability,
    drift_check,
    misestimation_check,
    with_load,
)
from expertq.capacity import (
    RoutingPolicy,
    loss_capacity,
    max_min_load,
    multi_capacity_dual,
    single_capacity,
)
from expertq.model import ArrivalSpec, ExpertProfile, Instance
from expertq.sched import (
    offline_loss_scheduler,
    offline_routing_scheduler,
    work_conserving_single,
)
from expertq.sim import SimConfig, run, steps
from oracles import duality_gap, multi_capacity_primal

LAMBDA_STAR = 2 / 3  # capacity of the reference instance below

# stable-by-design runs register (label, empty-system slot fraction) here;
# the final criterion checks them all
STABLE_RUNS: list[tuple[str, float]] = []


def reference_instance(lam):
    """Two topics, one expert: instant on topic 0, two slots on topic 1."""
    return Instance(
        experts=(ExpertProfile.from_success_probs(0, [1.0, 0.5]),),
        arrivals=ArrivalSpec(lam=lam, pmf=[[0.5, 0.5]]),
    )


def unanswerable_topic_instance(lam):
    """Topic 0 carries half the mass but the expert can never answer it."""
    return Instance(
        experts=(ExpertProfile.from_success_probs(0, [0.0, 0.5]),),
        arrivals=ArrivalSpec(lam=lam, pmf=[[0.5, 0.5]]),
    )


def specialists(n):
    return [
        ExpertProfile.from_success_probs(i, [1.0 if x == i else 0.0 for x in range(n)])
        for i in range(n)
    ]


def generalists(n):
    return [ExpertProfile.from_success_probs(i, [1.0 / n] * n) for i in range(n)]


def test_criterion_1_closed_form_capacity_and_boundary_sweep():
    started = time.monotonic()
    assert single_capacity([0.5, 0.5], [1.0, 0.5]).lambda_star == pytest.approx(
        LAMBDA_STAR, abs=1e-12
    )

    inst = reference_instance(0.5)
    sched = work_conserving_single(inst, tie_break="longest_queue")
    step_size = 0.05 * LAMBDA_STAR
    grid = [round(f * LAMBDA_STAR, 12) for f in (0.85, 0.90, 0.95, 1.00, 1.05, 1.10, 1.15)]
    result = capacity_boundary_sweep(
        inst, sched, grid, horizon=200_000, seeds=[0, 1, 2]
    )

    assert result.lambda_lo is not None and result.lambda_hi is not None
    assert result.lambda_lo - step_size <= LAMBDA_STAR <= result.lambda_hi + step_size

    # classifier monotonicity on the calibrated grid
    for cell in result.cells:
        if cell.lam <= 0.9 * LAMBDA_STAR:
            assert cell.verdict != "unstable", cell
        if cell.lam >= 1.1 * LAMBDA_STAR:
            assert cell.verdict != "stable", cell
        if cell.verdict == "stable" and cell.lam <= 0.95 * LAMBDA_STAR:
            STABLE_RUNS.append((f"sweep lam={cell.lam:.4f} seed={cell.seed}", cell.empty_fraction))

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 PASS: closed form 2/3 exact; sweep bracket "
        f"[{result.lambda_lo:.4f}, {result.lambda_hi:.4f}] contains 2/3 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_2_overload_is_unstable_with_linear_growth():
    started = time.monotonic()
    lam = 1.2 * LAMBDA_STAR
    excess = lam - LAMBDA_STAR
    inst = reference_instance(lam)
    sched = work_conserving_single(inst, tie_break="longest_queue")
    slopes = []
    for seed in (0, 1, 2):
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=100_000, seed=seed))
        verdict = classify_stability(stats)
        assert verdict.verdict == "unstable", (seed, verdict)
        assert 0.5 * excess <= verdict.growth_slope <= 1.5 * excess, (seed, verdict)
        slopes.append(verdict.growth_slope)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 2 PASS: unstable 3/3 seeds at 1.2*capacity, slopes "
        f"{[round(s, 4) for s in slopes]} within [{0.5 * excess:.4f}, "
        f"{1.5 * excess:.4f}] ({elapsed:.1f}s)"
    )


def test_criterion_3_loss_constrained_capacity():
    result = loss_capacity([0.5, 0.5], [0.0, 0.5], 0.5)
    assert result.lambda_star == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(result.certificate.mu, [0.0, 1.0], atol=1e-9)

    lam = 0.95
    inst = unanswerable_topic_instance(lam)
    sched = offline_loss_scheduler(inst, result.certificate)
    stats = run(SimConfig(instance=inst, scheduler=sched, horizon=200_000, seed=1))
    verdict = classify_stability(stats)
    assert verdict.verdict == "stable", verdict
    assert stats.loss_rate[0] <= 0.5 * 0.95 + 0.01
    STABLE_RUNS.append(("loss-constrained run", stats.empty_fraction))

    rng = np.random.default_rng(314159)
    for k in range(20):
        n_topics = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n_topics))
        q = rng.uniform(0.05, 1.0, size=n_topics)
        if k % 5 == 0:
            q[rng.integers(0, n_topics)] = 0.0
        zero_budget = loss_capacity(p, q, 0.0).lambda_star
        lossless = single_capacity(p, q).lambda_star
        assert zero_budget == pytest.approx(lossless, abs=1e-12), (k, p, q)

    print(
        f"\nACCEPTANCE 3 PASS: loss LP gives (1.0, mu=(0,1)); run stable with "
        f"loss rate {stats.loss_rate[0]:.4f} <= {0.5 * 0.95 + 0.01:.4f}; "
        f"zero-budget reduction exact on 20 random instances"
    )


def test_criterion_4_certified_misestimation_stays_stable():
    started = time.monotonic()
    inst = reference_instance(0.5)
    result = misestimation_check(inst, gamma=0.5, seeds=[0, 1, 2], horizon=100_000)
    assert result.all_stable, result
    for r in result.runs:
        stats = run(
            SimConfig(
                instance=with_load(inst, r.lam),
                scheduler=work_conserving_single(inst),
                horizon=50_000,
                seed=r.seed,
            )
        )
        STABLE_RUNS.append((f"misestimation seed={r.seed}", stats.empty_fraction))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 4 PASS: gamma=0.5 certified estimates stable 3/3 at "
        f"loads {[round(r.lam, 4) for r in result.runs]} ({elapsed:.1f}s)"
    )


def test_criterion_5_multi_expert_capacity_and_duality():
    for n in (2, 3, 4):
        resolution = 1e-3 if n <= 3 else 1e-2
        p = [1.0 / n] * n
        primal_same = multi_capacity_primal(p, generalists(n), resolution)
        dual_same = multi_capacity_dual(p, generalists(n))
        assert dual_same.lambda_star == pytest.approx(1.0, abs=1e-9)
        assert abs(primal_same.lambda_star - dual_same.lambda_star) <= 10 * resolution

        primal_div = multi_capacity_primal(p, specialists(n), resolution)
        dual_div = multi_capacity_dual(p, specialists(n))
        assert dual_div.lambda_star == pytest.approx(float(n), abs=1e-9)
        assert abs(primal_div.lambda_star - dual_div.lambda_star) <= 10 * resolution

    resolution = 1e-3
    rng = np.random.default_rng(20260810)
    worst = 0.0
    worst_certificate = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        n_topics = int(rng.integers(2, 5))
        q = rng.uniform(0.5, 1.0, size=(n, n_topics))
        p = rng.dirichlet(np.ones(n_topics))
        experts = [ExpertProfile.from_success_probs(i, q[i]) for i in range(n)]
        gap = duality_gap(p, experts, resolution)
        worst = max(worst, gap)
        assert gap <= 10 * resolution, (n, n_topics, gap)
        # The LP's own weights certify its capacity exactly.
        dual = multi_capacity_dual(p, experts)
        certified = 1.0 / max_min_load(p, experts, dual.certificate.alpha)
        worst_certificate = max(
            worst_certificate, abs(certified - dual.lambda_star) / dual.lambda_star
        )
        assert worst_certificate <= 1e-9, (n, n_topics, certified, dual.lambda_star)

    print(
        f"\nACCEPTANCE 5 PASS: generalists=1 and specialists=n for n in "
        f"{{2,3,4}} on both routes; worst duality gap over 25 random "
        f"instances {worst:.2e} <= 1e-2 against the grid, "
        f"{worst_certificate:.1e} <= 1e-9 relative against 1/max_min_load(alpha*)"
    )


def test_criterion_6_routing_frequencies_and_work_conservation():
    lam = 0.2
    inst = Instance(
        experts=tuple(generalists(3)),
        arrivals=ArrivalSpec(lam=lam, pmf=[[1 / 3] * 3] * 3),
    )
    s = np.array(
        [
            [0.5, 0.25, 0.25],
            [0.25, 0.5, 0.25],
            [0.25, 0.25, 0.5],
        ]
    )
    sched = offline_routing_scheduler(inst, RoutingPolicy(s=s))

    horizon = 180_000  # ~0.6 arrivals per slot -> comfortably over 1e5
    stats = run(SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=6))
    counts = stats.final_state.cum_arrivals  # (topic, destination)
    assert counts.sum() >= 100_000
    for x in range(3):
        total = counts[x].sum()
        for i in range(3):
            share = s[i, x]
            tolerance = 4.0 * math.sqrt(share * (1 - share) / total)
            assert abs(counts[x, i] / total - share) <= tolerance, (x, i)
    verdict = classify_stability(stats)
    assert verdict.verdict == "stable"
    STABLE_RUNS.append(("routing frequency run", stats.empty_fraction))

    own_before = np.zeros(inst.n_experts, dtype=np.int64)
    for state, events in steps(SimConfig(instance=inst, scheduler=sched, horizon=10_000, seed=7)):
        routed_in = Counter(dest for _, dest in events.enqueued)
        for i in range(inst.n_experts):
            has_work = int(own_before[i]) + routed_in[i] > 0
            idle = events.assignments[i] is None
            assert idle != has_work, (state.t, i)
        own_before = state.q.sum(axis=0)

    print(
        "\nACCEPTANCE 6 PASS: routing frequencies within 4 sigma over "
        f"{int(counts.sum())} arrivals; idle-iff-own-queues-empty held on "
        "all 10000 slots"
    )


def test_criterion_7_drift_and_geometric_service():
    # Service is geometric: each attempt completes with probability q, so
    # completions per attempt sit within 4 sigma of q on each run.
    margins, ratios = [], []
    for lam, delta in ((0.25, 0.5), (0.45, 0.1), (0.6, -0.2)):
        inst = Instance(
            experts=(ExpertProfile.from_success_probs(0, [0.5]),),
            arrivals=ArrivalSpec(lam=lam, pmf=[[1.0]]),
        )
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=100_000,
                seed=17,
                record_lyapunov=True,
            )
        )
        report = drift_check(stats)
        assert report.delta == pytest.approx(delta, abs=1e-12)
        assert report.busy_slots >= 10_000
        assert report.within(4.0), report
        margins.append(
            abs(report.empirical_drift - report.predicted_drift) / report.std_error
        )
        attempts = int(stats.final_state.cum_attempts[0, 0])
        done = int(stats.final_state.cum_departures[0, 0])
        assert attempts >= report.busy_slots  # plus slots whose work arrived in them
        assert abs(done / attempts - 0.5) <= 4.0 * math.sqrt(0.25 / attempts), (lam, done)
        ratios.append(done / attempts)

    print(
        f"\nACCEPTANCE 7 PASS: busy-slot drift within 4 SE for margins "
        f"{{0.5, 0.1, -0.2}} (worst {max(margins):.2f} SE); completions per "
        f"attempt {', '.join(f'{r:.4f}' for r in ratios)} within 4 sigma of q = 0.5"
    )


def test_criterion_8_positive_recurrence_shadow():
    if not STABLE_RUNS:
        pytest.skip("no stable runs registered; run the full acceptance module")
    for label, fraction in STABLE_RUNS:
        assert fraction > 0.01, (label, fraction)
    worst = min(STABLE_RUNS, key=lambda item: item[1])
    print(
        f"\nACCEPTANCE 8 PASS: empty-system fraction > 0.01 on all "
        f"{len(STABLE_RUNS)} stable runs (lowest {worst[1]:.4f} in "
        f"{worst[0]!r})"
    )
