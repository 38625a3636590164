import dataclasses
import math
import os

import numpy as np
import pytest

from expertq import analysis, capacity
from expertq.analysis import (
    analytic_boundary,
    capacity_boundary_sweep,
    classify_stability,
    drift_check,
    misestimation_check,
    policy_load,
    with_load,
)
from expertq.capacity import (
    LossPolicy,
    RoutingPolicy,
    degraded_capacity,
    multi_capacity_dual,
    single_capacity,
)
from expertq.model import ArrivalSpec, ExpertProfile, Instance, merged_pmf
from expertq.sched import (
    Scheduler,
    mismatch_baseline,
    offline_loss_scheduler,
    offline_routing_scheduler,
    work_conserving_single,
)
from expertq.sim import SimConfig, run


def single_expert_instance(lam, p, q):
    return Instance(
        experts=(ExpertProfile.from_success_probs(0, q),),
        arrivals=ArrivalSpec(lam=lam, pmf=[list(p)]),
    )


def drift_run(lam, horizon=100_000, seed=1):
    inst = single_expert_instance(lam, [1.0], [0.5])
    stats = run(
        SimConfig(
            instance=inst,
            scheduler=work_conserving_single(inst),
            horizon=horizon,
            seed=seed,
            record_lyapunov=True,
        )
    )
    return stats


class TestDriftCheck:
    @pytest.mark.parametrize("lam,delta", [(0.25, 0.5), (0.5, 0.0), (0.6, -0.2)])
    def test_busy_slot_drift_matches_margin(self, lam, delta):
        stats = drift_run(lam)
        report = drift_check(stats, [1.0], [0.5], lam)
        assert report.delta == pytest.approx(delta, abs=1e-12)
        assert report.predicted_drift == -report.delta
        assert report.busy_slots >= 10_000
        assert report.within(4.0)

    def test_overload_drift_is_positive(self):
        report = drift_check(drift_run(0.6), [1.0], [0.5], 0.6)
        assert report.empirical_drift > 0.15

    def test_requires_per_slot_trace(self):
        inst = single_expert_instance(0.4, [1.0], [0.5])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=1000,
                seed=1,
            )
        )
        with pytest.raises(ValueError, match="record_lyapunov"):
            drift_check(stats, [1.0], [0.5], 0.4)

    def test_rejects_unanswerable_mass(self):
        stats = drift_run(0.4)
        with pytest.raises(ValueError, match="zero success"):
            drift_check(stats, [0.5, 0.5], [0.5, 0.0], 0.4)

    def test_per_expert_drift_on_routed_system(self):
        # three specialists at half speed, identity routing: expert i sees
        # topic-i arrivals at the full per-expert rate, so each queue
        # behaves like a single-expert system with q = 1/2
        lam = 0.3
        experts = tuple(
            ExpertProfile.from_success_probs(
                i, [0.5 if x == i else 0.0 for x in range(3)]
            )
            for i in range(3)
        )
        inst = Instance(
            experts=experts, arrivals=ArrivalSpec(lam=lam, pmf=[[1 / 3] * 3] * 3)
        )
        policy = multi_capacity_dual(merged_pmf(inst), list(experts)).certificate
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=offline_routing_scheduler(inst, policy),
                horizon=60_000,
                seed=12,
                record_lyapunov=True,
            )
        )
        for i in range(3):
            own_mass = [1.0 if x == i else 0.0 for x in range(3)]
            report = drift_check(stats, own_mass, experts[i].success_prob, lam, expert=i)
            assert report.delta == pytest.approx(1.0 - 2 * lam, abs=1e-12)
            assert report.within(4.0), (i, report)


class TestClassifyStability:
    def test_no_traffic_is_stable_with_zero_slope(self):
        inst = single_expert_instance(0.0, [1.0], [1.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=5000,
                seed=0,
            )
        )
        verdict = classify_stability(stats, 0.0)
        assert verdict.verdict == "stable"
        assert verdict.growth_slope == 0.0

    def test_short_trace_is_inconclusive(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=50,
                seed=0,
                sample_interval=100,
            )
        )
        assert classify_stability(stats, 0.5).verdict == "inconclusive"

    def test_stable_and_unstable_examples(self):
        lam_star = 2 / 3
        inst = single_expert_instance(0.9 * lam_star, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst, tie_break="longest_queue")
        stable = run(SimConfig(instance=inst, scheduler=sched, horizon=60_000, seed=3))
        assert classify_stability(stable, 0.9 * lam_star).verdict == "stable"
        hot = with_load(inst, 1.2 * lam_star)
        unstable = run(SimConfig(instance=hot, scheduler=sched, horizon=60_000, seed=3))
        verdict = classify_stability(unstable, 1.2 * lam_star)
        assert verdict.verdict == "unstable"
        assert verdict.growth_slope > 0

    def test_threshold_override(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=20_000,
                seed=4,
            )
        )
        strict = classify_stability(stats, 0.5, slope_threshold=1e-12)
        assert strict.slope_threshold == 1e-12


class TestBoundarySweep:
    def test_brackets_single_expert_capacity(self):
        lam_star = 2 / 3
        inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst, tie_break="longest_queue")
        grid = [0.5, 0.6, lam_star, 0.75, 0.8]
        result = capacity_boundary_sweep(
            inst, sched, grid, horizon=40_000, seeds=[0, 1]
        )
        step = 0.1
        assert result.lambda_lo is not None and result.lambda_hi is not None
        assert result.lambda_lo - step <= lam_star <= result.lambda_hi + step
        assert len(result.cells) == len(grid) * 2

    def test_all_stable_grid_leaves_bracket_open(self):
        inst = single_expert_instance(0.2, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst)
        result = capacity_boundary_sweep(
            inst, sched, [0.1, 0.2, 0.3], horizon=20_000, seeds=[0]
        )
        assert result.lambda_hi is None
        assert result.lambda_lo == 0.3

    def test_multi_expert_boundary_from_left(self):
        experts = tuple(
            ExpertProfile.from_success_probs(
                i, [1.0 if x == i else 0.0 for x in range(3)]
            )
            for i in range(3)
        )
        inst = Instance(
            experts=experts, arrivals=ArrivalSpec(lam=0.5, pmf=[[1 / 3] * 3] * 3)
        )
        policy = multi_capacity_dual(merged_pmf(inst), list(experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        boundary = analytic_boundary(inst, sched)
        assert boundary == pytest.approx(1.0, abs=1e-9)
        result = capacity_boundary_sweep(
            inst, sched, [0.85, 0.9], horizon=30_000, seeds=[0, 1]
        )
        assert result.lambda_lo == 0.9 and result.lambda_hi is None

    def test_identical_experts_two_sided_boundary(self):
        # three identical generalists: system capacity 1, so per-expert
        # arrival rates 0.9/3 and 1.1/3 sit on opposite sides
        experts = tuple(
            ExpertProfile.from_success_probs(i, [1 / 3] * 3) for i in range(3)
        )
        inst = Instance(
            experts=experts, arrivals=ArrivalSpec(lam=0.3, pmf=[[1 / 3] * 3] * 3)
        )
        policy = multi_capacity_dual(merged_pmf(inst), list(experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        assert analytic_boundary(inst, sched) == pytest.approx(1 / 3, abs=1e-9)
        for system_load, expected in ((0.9, "stable"), (1.1, "unstable")):
            lam = system_load / 3
            stats = run(
                SimConfig(
                    instance=with_load(inst, lam),
                    scheduler=sched,
                    horizon=80_000,
                    seed=2,
                )
            )
            assert classify_stability(stats, lam).verdict == expected, system_load

    def test_unsorted_grid_rejected(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        with pytest.raises(ValueError):
            capacity_boundary_sweep(inst, sched, [0.5, 0.4], horizon=10, seeds=[0])

    def test_parallel_workers_match_serial(self):
        inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst)
        grid = [0.4, 0.8]
        serial = capacity_boundary_sweep(
            inst, sched, grid, horizon=10_000, seeds=[0, 1], workers=1
        )
        parallel = capacity_boundary_sweep(
            inst, sched, grid, horizon=10_000, seeds=[0, 1], workers=2
        )
        assert serial.cells == parallel.cells

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_workers_rejected(self, workers):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        with pytest.raises(ValueError, match="workers"):
            capacity_boundary_sweep(
                inst, sched, [0.4], horizon=10, seeds=[0], workers=workers
            )

    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [(64, 3, 3), (64, None, None), (64, 16, 4), (3, 16, 3), (2, 2, 2), (1, 16, None)],
    )
    def test_pool_size_is_clamped(self, monkeypatch, workers, cpus, expected):
        """The pool never exceeds the CPUs or the 4 cells; a pool of one
        runs the cells in this process."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        result = capacity_boundary_sweep(
            inst, sched, [0.3, 0.4], horizon=50, seeds=[0, 1], workers=workers
        )
        assert len(result.cells) == 4
        assert pools == ([] if expected is None else [expected])


class TestAnalyticBoundary:
    def test_single_expert(self):
        inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst)
        assert analytic_boundary(inst, sched) == pytest.approx(2 / 3, abs=1e-12)

    def test_loss_policy_folds_admissions(self):
        inst = single_expert_instance(0.5, [0.5, 0.5], [0.0, 0.5])
        sched = offline_loss_scheduler(inst, LossPolicy(mu=[0.0, 1.0], epsilon=0.5))
        assert analytic_boundary(inst, sched) == pytest.approx(1.0, abs=1e-12)

    def test_baseline_boundary(self):
        experts = (
            ExpertProfile.from_success_probs(0, [0.9, 0.1]),
            ExpertProfile.from_success_probs(1, [0.1, 0.9]),
        )
        inst = Instance(
            experts=experts, arrivals=ArrivalSpec(lam=0.1, pmf=[[0.5, 0.5]] * 2)
        )
        sched = mismatch_baseline(inst)
        assert analytic_boundary(inst, sched) == pytest.approx(0.1, abs=1e-12)


class TestPolicyLoad:
    def crossed_skill_instance(self):
        experts = (
            ExpertProfile.from_success_probs(0, [0.9, 0.1]),
            ExpertProfile.from_success_probs(1, [0.1, 0.9]),
        )
        return Instance(
            experts=experts, arrivals=ArrivalSpec(lam=0.1, pmf=[[0.5, 0.5]] * 2)
        )

    @pytest.mark.parametrize("tie_break", ["arbitrary", "uniform-random", "longest-queue"])
    def test_work_conserving_is_inverse_single_capacity(self, tie_break):
        inst = single_expert_instance(0.5, [0.5, 0.3, 0.2], [1.0, 0.5, 0.25])
        sched = work_conserving_single(inst, tie_break=tie_break)
        capacity = single_capacity([0.5, 0.3, 0.2], [1.0, 0.5, 0.25]).lambda_star
        assert policy_load(inst, sched) == 1.0 / capacity

    def test_loss_is_inverse_single_capacity_of_admitted_mass(self):
        p, q, mu = np.array([0.5, 0.3, 0.2]), [1.0, 0.5, 0.0], np.array([1.0, 0.6, 0.0])
        inst = single_expert_instance(0.5, p, q)
        sched = offline_loss_scheduler(inst, LossPolicy(mu=mu, epsilon=0.2))
        assert policy_load(inst, sched) == 1.0 / single_capacity(p * mu, q).lambda_star

    def test_dual_certificate_within_verify_bound(self):
        experts = tuple(
            ExpertProfile.from_success_probs(i, row)
            for i, row in enumerate([[0.9, 0.2, 0.0], [0.3, 0.8, 0.4], [0.0, 0.5, 0.7]])
        )
        inst = Instance(
            experts=experts,
            arrivals=ArrivalSpec(lam=0.2, pmf=[[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [1 / 3] * 3]),
        )
        policy = multi_capacity_dual(merged_pmf(inst), list(experts)).certificate
        load = policy_load(inst, offline_routing_scheduler(inst, policy))
        assert load <= policy.dual_mu * (1.0 + 1e-6) + 1e-9
        assert load == pytest.approx(policy.dual_mu, rel=1e-6)

    def test_crossed_skill_baseline(self):
        inst = self.crossed_skill_instance()
        assert policy_load(inst, mismatch_baseline(inst)) == pytest.approx(10.0, abs=1e-12)

    def test_mass_sent_where_it_cannot_be_answered(self):
        inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 0.0])
        sched = work_conserving_single(inst)
        assert policy_load(inst, sched) == math.inf
        assert analytic_boundary(inst, sched) == 0.0
        crossed = self.crossed_skill_instance()
        one_sided = Scheduler(
            "routing", crossed, None, [[1.0, 1.0], [0.0, 0.0]], "weighted"
        )
        assert policy_load(crossed, one_sided) == pytest.approx(1 / 0.9 + 10.0)
        to_nobody = Instance(
            experts=(
                ExpertProfile.from_success_probs(0, [1.0, 0.0]),
                ExpertProfile.from_success_probs(1, [1.0, 0.0]),
            ),
            arrivals=crossed.arrivals,
        )
        assert policy_load(to_nobody, one_sided) == math.inf
        assert analytic_boundary(to_nobody, one_sided) == 0.0

    def test_no_traffic_has_unbounded_boundary(self):
        inst = single_expert_instance(0.5, [1.0, 0.0], [1.0, 0.5])
        sched = offline_loss_scheduler(inst, LossPolicy(mu=[0.0, 1.0], epsilon=1.0))
        assert policy_load(inst, sched) == 0.0
        assert analytic_boundary(inst, sched) == math.inf


class TestMisestimation:
    def base_instance(self, lam=0.5):
        return single_expert_instance(lam, [0.5, 0.5], [1.0, 0.5])

    def test_exact_estimates_reduce_to_plain_stability(self):
        inst = self.base_instance()
        result = misestimation_check(
            inst,
            gamma=1.0,
            seeds=[0, 1],
            horizon=30_000,
            inflate=lambda t, g, rng: t.copy(),
        )
        assert result.all_stable
        for r in result.runs:
            assert r.estimated_capacity == pytest.approx(2 / 3, abs=1e-12)
            assert r.lam == pytest.approx(0.95 * 2 / 3, abs=1e-12)

    def test_conservative_overestimates_are_stable(self):
        inst = self.base_instance()
        result = misestimation_check(
            inst,
            gamma=0.5,
            seeds=[0, 1],
            horizon=30_000,
            inflate=lambda t, g, rng: 2.0 * t,
        )
        assert result.all_stable
        for r in result.runs:
            assert r.estimated_capacity == pytest.approx(1 / 3, abs=1e-12)

    def test_default_generator_within_bound_and_stable(self):
        result = misestimation_check(
            self.base_instance(), gamma=0.5, seeds=[0, 1, 2], horizon=30_000
        )
        assert result.all_stable
        for r in result.runs:
            assert r.lam <= 0.95 * (2 / 3) + 1e-12

    def test_load_is_a_fraction_of_the_degraded_capacity(self):
        result = misestimation_check(
            self.base_instance(),
            gamma=0.55,
            seeds=[0],
            horizon=1_000,
            inflate=lambda t, g, rng: t.copy(),
        )
        (r,) = result.runs
        # 0.95 * 0.55 * (2/3) rounds one ulp below 0.95 * (0.55 * (2/3))
        guaranteed = degraded_capacity([0.5, 0.5], [1.0, 0.5], 0.55)
        assert r.lam == analysis.LOAD_FRACTION * guaranteed
        assert r.estimated_capacity == single_capacity([0.5, 0.5], [1.0, 0.5]).lambda_star

    def test_bound_violations_rejected_before_simulation(self):
        with pytest.raises(ValueError, match="bound"):
            misestimation_check(
                self.base_instance(),
                gamma=0.5,
                seeds=[0],
                horizon=10,
                inflate=lambda t, g, rng: 0.4 * t,
            )

    def test_requires_single_expert(self):
        experts = tuple(
            ExpertProfile.from_success_probs(i, [1.0, 1.0]) for i in range(2)
        )
        inst = Instance(
            experts=experts, arrivals=ArrivalSpec(lam=0.5, pmf=[[0.5, 0.5]] * 2)
        )
        with pytest.raises(ValueError):
            misestimation_check(inst, gamma=0.5, seeds=[0])

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            misestimation_check(self.base_instance(), gamma=1.5, seeds=[0])


class TestVerify:
    def mixed_instance(self):
        experts = tuple(
            ExpertProfile.from_success_probs(i, row)
            for i, row in enumerate([[0.9, 0.2, 0.0], [0.3, 0.8, 0.4], [0.0, 0.5, 0.7]])
        )
        return Instance(
            experts=experts,
            arrivals=ArrivalSpec(lam=0.3, pmf=[[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [1 / 3] * 3]),
        )

    def config(self, horizon):
        return {
            "geometric": {"trials": 10_000},
            "routing_check": {"horizon": horizon},
        }

    def checks(self, horizon, seed=4):
        checks = analysis.verify(self.mixed_instance(), self.config(horizon), seed)
        return {c["name"]: c for c in checks}

    def test_passing_routing_run_reports_its_margin(self):
        check = self.checks(5_000)["routing_frequencies"]
        assert check["passed"] is True
        assert check["measured_worst_excess"] < 0.0

    def test_fractional_routing_reports_its_excess(self):
        # Every answerable pair gets a share strictly between 0 and 1; the
        # zero shares of skill-less pairs are left out of the maximum.
        inst = self.mixed_instance()
        s = np.array([[0.5, 0.2, 0.0], [0.5, 0.5, 0.6], [0.0, 0.3, 0.4]])
        cfg = self.config(5_000)
        cfg["routing_check"]["s"] = s.tolist()
        checks = {c["name"]: c for c in analysis.verify(inst, cfg, 4)}
        excess = checks["routing_frequencies"]["measured_worst_excess"]

        sched = offline_routing_scheduler(inst, RoutingPolicy(s=s))
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=5_000, seed=4))
        counts = stats.final_state.cum_arrivals
        expected = -math.inf
        for x in range(inst.n_topics):
            total = counts[x].sum()
            for i in np.nonzero((s[:, x] > 0) & (s[:, x] < 1))[0]:
                tol = 4.0 * math.sqrt(s[i, x] * (1 - s[i, x]) / total)
                expected = max(expected, abs(counts[x, i] / total - s[i, x]) - tol)
        assert checks["routing_frequencies"]["passed"] is True
        assert excess == expected
        assert excess < -1e-3  # far below the -4e-8 of a deterministic share

    def test_deterministic_routing_reports_null(self):
        # Specialists: every share is 0 or 1, so no pair has a margin to show.
        experts = tuple(
            ExpertProfile.from_success_probs(i, [1.0 if x == i else 0.0 for x in range(3)])
            for i in range(3)
        )
        inst = Instance(
            experts=experts, arrivals=ArrivalSpec(lam=0.6, pmf=[[1 / 3] * 3] * 3)
        )
        checks = {c["name"]: c for c in analysis.verify(inst, self.config(5_000), 4)}
        check = checks["routing_frequencies"]
        assert check["passed"] is True
        assert check["measured_worst_excess"] is None

    def test_no_topic_with_enough_arrivals_reports_null(self):
        check = self.checks(10)["routing_frequencies"]
        assert check["passed"] is True
        assert check["measured_worst_excess"] is None

    def test_routing_lp_is_solved_once(self, monkeypatch):
        calls = []

        def counted(lp):
            calls.append(lp)
            return solve(lp)

        solve = capacity.solve_lp
        monkeypatch.setattr(capacity, "solve_lp", counted)
        self.checks(10)
        assert len(calls) == 1

    def test_duality_gap_is_exact(self):
        check = self.checks(10)["duality_gap"]
        assert check["passed"] is True
        assert check["measured"] <= check["tolerance"]
        # 1e-9 of the system capacity, n = 3 times the per-door one.
        inst = self.mixed_instance()
        lam = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).lambda_star
        assert check["tolerance"] == 1e-9 * 3 * lam

    @pytest.mark.parametrize("perturb", ["alpha", "lambda_star"])
    def test_duality_gap_catches_a_perturbed_certificate(self, monkeypatch, perturb):
        # The check is not vacuous: weights that are not the LP's duals, or
        # a capacity that is not the LP's, open a gap far above 1e-9.
        exact = analysis.multi_capacity_dual

        def perturbed(p, experts):
            result = exact(p, experts)
            if perturb == "alpha":
                alpha = np.roll(result.certificate.alpha, 1)
                cert = dataclasses.replace(result.certificate, alpha=alpha)
                return dataclasses.replace(result, certificate=cert)
            return dataclasses.replace(result, lambda_star=result.lambda_star * (1 + 1e-6))

        monkeypatch.setattr(analysis, "multi_capacity_dual", perturbed)
        check = self.checks(10)["duality_gap"]
        assert check["passed"] is False
        assert check["measured"] > check["tolerance"]
