import csv
import dataclasses
import io
import json
import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expertq import analysis, capacity, cli, sched, sim
from expertq.analysis import (
    analytic_boundary,
    capacity_boundary_sweep,
    classify_stability,
    drift_check,
    misestimation_check,
    policy_load,
    simulate_report,
    sweep_report,
    with_load,
)
from expertq.capacity import (
    LossPolicy,
    RoutingPolicy,
    degraded_capacity,
    loss_capacity,
    multi_capacity_dual,
    single_capacity,
)
from expertq.model import ArrivalSpec, ExpertProfile, Instance, instance_from_dict, merged_pmf
from expertq.sched import (
    Scheduler,
    mismatch_baseline,
    offline_loss_scheduler,
    offline_routing_scheduler,
    work_conserving_single,
)
from expertq.sim import SimConfig, run, steps
from test_cli import CONFIGS, generalist_doc, invoke, shortened, write_json


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


def decimal_sqrt(r: Fraction) -> float:
    """sqrt(r) to 60 digits, then to the nearest float: the correctly
    rounded root unless it lies within 1e-59 of a midpoint."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(r.numerator) / Decimal(r.denominator)).sqrt())


class TestDriftCheck:
    @pytest.mark.parametrize("lam,delta", [(0.25, 0.5), (0.5, 0.0), (0.6, -0.2)])
    def test_busy_slot_drift_matches_margin(self, lam, delta):
        stats = drift_run(lam)
        report = drift_check(stats)
        assert report.delta == pytest.approx(delta, abs=1e-12)
        assert report.predicted_drift == -report.delta
        assert report.busy_slots >= 10_000
        assert report.within(4.0)

    def test_overload_drift_is_positive(self):
        report = drift_check(drift_run(0.6))
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
            drift_check(stats)

    def test_rejects_unanswerable_mass(self):
        inst = single_expert_instance(0.4, [0.5, 0.5], [0.5, 0.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=1000,
                seed=1,
                record_lyapunov=True,
            )
        )
        with pytest.raises(ValueError, match="zero success"):
            drift_check(stats)

    @pytest.mark.parametrize("seed", range(8))
    def test_mean_and_std_error_are_correctly_rounded(self, seed):
        # Rebuild every busy-slot step of L = sum_x (1.0/q_x) Q_x from steps()
        # states as an exact fraction of the float weights. Times like 2.71
        # make weights whose float sums round, so a mean of rounded levels'
        # differences can miss the correctly rounded value.
        inst = Instance(
            experts=(ExpertProfile.from_mean_times(0, [1.3, 2.71, 4.05]),),
            arrivals=ArrivalSpec(lam=0.35, pmf=[[0.5, 0.3, 0.2]]),
        )
        config = SimConfig(
            instance=inst,
            scheduler=work_conserving_single(inst),
            horizon=2_000,
            seed=seed,
            record_lyapunov=True,
        )
        report = drift_check(run(config))
        weights = [Fraction(1.0 / q) for q in inst.experts[0].success_prob.tolist()]
        state_q, changes = np.zeros((3, 1), dtype=np.int64), []
        for after, _ in steps(config):
            if state_q.any():
                changes.append(sum(map(operator.mul, weights, (after.q - state_q)[:, 0].tolist())))
            state_q = after.q
        mean = sum(changes) / len(changes)
        variance = sum((s - mean) ** 2 for s in changes) / (len(changes) - 1)
        assert report.busy_slots == len(changes)
        assert report.empirical_drift == float(mean)
        assert report.std_error == decimal_sqrt(variance / len(changes))

    @given(st.fractions(min_value=0, max_value=10**6))
    @example(Fraction(0))
    @example(Fraction(2))
    @example(Fraction(10**40 + 1, 10**20))
    def test_sqrt_is_correctly_rounded(self, r):
        assert analysis._sqrt(r) == decimal_sqrt(r)

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
            report = drift_check(stats, expert=i)
            assert report.delta == pytest.approx(1.0 - 2 * lam, abs=1e-12)
            assert report.within(4.0), (i, report)

    @pytest.mark.parametrize(
        "expert,message",
        [
            (-1, "expected a non-negative integer, got -1"),
            (True, "expected a non-negative integer, got true"),
            (2, r"expected an integer in \[0, 2\), got 2"),
            (1.0, r"expected an integer in \[0, 2\), got 1.0"),
            ("1", r"expected an integer in \[0, 2\), got '1'"),
        ],
        ids=["minus-one", "true", "n", "integral-float", "string"],
    )
    def test_expert_out_of_range_or_not_an_integer_is_named(self, expert, message):
        experts = tuple(ExpertProfile.from_mean_times(i, t) for i, t in enumerate([[1, 2], [2, 1]]))
        inst = Instance(experts=experts, arrivals=ArrivalSpec(lam=0.3, pmf=[[0.5, 0.5]] * 2))
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        config = SimConfig(
            inst, offline_routing_scheduler(inst, policy), 2_000, 1, record_lyapunov=True
        )
        stats = run(config)
        assert all(count >= 2 for count, _, _ in stats.busy_moments)
        with pytest.raises(ValueError, match=f"^expert: {message}$"):
            drift_check(stats, expert)
        assert drift_check(stats, np.int64(1)) == drift_check(stats, 1)


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
        verdict = classify_stability(stats)
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
        assert classify_stability(stats).verdict == "inconclusive"

    def test_stable_and_unstable_examples(self):
        lam_star = 2 / 3
        inst = single_expert_instance(0.9 * lam_star, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst, tie_break="longest_queue")
        stable = run(SimConfig(instance=inst, scheduler=sched, horizon=60_000, seed=3))
        assert classify_stability(stable).verdict == "stable"
        hot = with_load(inst, 1.2 * lam_star)
        unstable = run(SimConfig(instance=hot, scheduler=sched, horizon=60_000, seed=3))
        verdict = classify_stability(unstable)
        assert verdict.verdict == "unstable"
        assert verdict.growth_slope > 0

    def test_threshold_override(self):
        # A slope of 0.001: below the default 0.01 * lam = 0.005, and at
        # least ten times 1e-12.
        stats = with_series([5, 1_005], [0, 1])
        assert classify_stability(stats).verdict == "stable"
        assert classify_stability(stats, slope_threshold=1e-12).verdict == "unstable"

    def test_run_fields_come_from_the_run(self):
        inst = single_expert_instance(0.3, [0.5, 0.5], [1.0, 0.5])
        config = SimConfig(instance=inst, scheduler=work_conserving_single(inst), horizon=500, seed=9)
        stats = run(config)
        verdict = classify_stability(stats)
        assert (verdict.lam, verdict.seed) == (0.3, 9)
        assert verdict.empty_fraction == stats.empty_fraction
        assert verdict.final_quarter_mean == float(stats.mean_queue_final_quarter.sum())

    def test_threshold_is_keyword_only(self):
        # A positional load would otherwise be read as the threshold.
        inst = single_expert_instance(0.5, [1.0], [1.0])
        stats = run(
            SimConfig(instance=inst, scheduler=work_conserving_single(inst), horizon=10, seed=4)
        )
        with pytest.raises(TypeError):
            classify_stability(stats, 0.5)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -0.01])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        # A NaN threshold used to call every run inconclusive.
        inst = single_expert_instance(0.5, [1.0], [1.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=1000,
                seed=4,
            )
        )
        with pytest.raises(ValueError, match="^slope_threshold: expected a finite positive number"):
            classify_stability(stats, slope_threshold=threshold)


def with_series(times, totals):
    """A finished 10-slot run whose samples table is replaced by the rows
    (times, totals, 0, 0); times of at least 5 all fall in the fitted
    final half."""
    inst = single_expert_instance(0.5, [1.0], [1.0])
    config = SimConfig(instance=inst, scheduler=work_conserving_single(inst), horizon=10, seed=0)
    return dataclasses.replace(
        run(config),
        samples=np.array([(t, y, 0, 0) for t, y in zip(times, totals)], dtype=np.int64),
    )


def fraction_slope(times, totals):
    """The least-squares slope in exact rationals, about the means."""
    t_mean = Fraction(sum(times), len(times))
    y_mean = Fraction(sum(totals), len(totals))
    cov = sum((t - t_mean) * (y - y_mean) for t, y in zip(times, totals))
    return float(cov / sum((t - t_mean) ** 2 for t in times))


# Distinct sample times of at least 5, each with a total; up to 2**62, so
# the sums of products exceed 2**63.
integer_series = st.lists(
    st.tuples(st.integers(5, 2**62), st.integers(0, 2**62)),
    min_size=2,
    max_size=40,
    unique_by=lambda pair: pair[0],
)


class TestGrowthSlope:
    def test_final_half_starts_at_half_the_horizon(self):
        # At horizon 10 the fit takes t = 5 and 10 (slope 2), not t = 4 (its
        # total of 100 would turn the slope negative); a mask on the totals
        # would keep t = 4 and drop t = 5.
        verdict = classify_stability(with_series([4, 5, 10], [100, 0, 10]))
        assert verdict.growth_slope == 2.0

    @given(integer_series)
    @example([(2**62, 2**62), (2**62 - 1, 0), (5, 2**61)])
    @settings(max_examples=200, deadline=None)
    def test_equals_the_exact_least_squares_slope(self, pairs):
        times, totals = zip(*pairs)
        slope = classify_stability(with_series(times, totals)).growth_slope
        assert slope == fraction_slope(times, totals)

    def test_agrees_with_polyfit(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            size = int(rng.integers(2, 500))
            interval = int(rng.integers(1, 300))
            times = 5 + interval * np.arange(size)
            totals = np.cumsum(rng.integers(-3, 5, size=size)) + 10**6
            slope = classify_stability(with_series(times, totals)).growth_slope
            reference = np.polyfit(times, totals.astype(np.float64), 1)[0]
            assert slope == pytest.approx(reference, rel=1e-9)

    def test_constant_series_has_zero_slope(self):
        times = [5, 9, 13, 17]
        for level in (0, 7, 2**62):
            slope = classify_stability(with_series(times, [level] * 4)).growth_slope
            assert slope == 0.0 and math.copysign(1.0, slope) == 1.0

    def test_makes_no_least_squares_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("least-squares call")

        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        # np.polyfit keeps its own reference to lstsq.
        monkeypatch.setattr(np, "polyfit", forbidden)
        lam_star = 2 / 3
        inst = single_expert_instance(1.2 * lam_star, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst, tie_break="longest_queue")
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=20_000, seed=3))
        verdict = classify_stability(stats)
        assert verdict.verdict == "unstable"
        assert verdict.growth_slope > 0


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
            assert classify_stability(stats).verdict == expected, system_load

    def test_unsorted_grid_rejected(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        with pytest.raises(ValueError):
            capacity_boundary_sweep(inst, sched, [0.5, 0.4], horizon=10, seeds=[0])

    def test_grid_and_seeds_may_be_tuples_ranges_or_arrays(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        expected = capacity_boundary_sweep(inst, sched, [0.2, 0.4], horizon=1000, seeds=[0, 1])
        for grid, seeds in [((0.2, 0.4), range(2)), (np.array([0.2, 0.4]), np.arange(2))]:
            result = capacity_boundary_sweep(inst, sched, grid, horizon=1000, seeds=seeds)
            assert result == expected

    @pytest.mark.parametrize("grid, seeds", [([], [0]), ([0.4], [])])
    def test_empty_grid_or_seed_list_rejected(self, grid, seeds):
        # Either used to give a sweep with no cells that exited cleanly.
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        name = "seeds" if grid else "lambdas"
        with pytest.raises(ValueError, match=rf"^{name}: expected a non-empty .*, got \[\]$"):
            capacity_boundary_sweep(inst, sched, grid, horizon=10, seeds=seeds)


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

    def test_work_conserving_equals_single_capacity_exactly(self):
        # Both sum through capacity.service_load; a sequential and a
        # pairwise sum of 8 or more terms can differ in the last bits.
        rng = np.random.default_rng(7)
        for _ in range(600):
            n_topics = int(rng.integers(8, 40))
            p = rng.random(n_topics)
            p[rng.random(n_topics) < 0.2] = 0.0
            p[0] += 0.1
            p /= p.sum()
            q = rng.uniform(0.05, 1.0, n_topics)
            q[(p == 0) & (rng.random(n_topics) < 0.5)] = 0.0
            inst = single_expert_instance(0.5, p, q)
            boundary = analytic_boundary(inst, work_conserving_single(inst))
            assert boundary == single_capacity(p, q).lambda_star


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
        assert result.estimated_capacities == pytest.approx([2 / 3] * 2, abs=1e-12)
        for cell in result.cells:
            assert cell.lam == pytest.approx(0.95 * 2 / 3, abs=1e-12)

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
        assert result.estimated_capacities == pytest.approx([1 / 3] * 2, abs=1e-12)

    def test_default_generator_within_bound_and_stable(self):
        result = misestimation_check(
            self.base_instance(), gamma=0.5, seeds=[0, 1, 2], horizon=30_000
        )
        assert result.all_stable
        for cell in result.cells:
            assert cell.lam <= 0.95 * (2 / 3) + 1e-12

    def test_load_is_a_fraction_of_the_degraded_capacity(self):
        result = misestimation_check(
            self.base_instance(),
            gamma=0.55,
            seeds=[0],
            horizon=1_000,
            inflate=lambda t, g, rng: t.copy(),
        )
        (cell,) = result.cells
        # 0.95 * 0.55 * (2/3) rounds one ulp below 0.95 * (0.55 * (2/3))
        guaranteed = degraded_capacity([0.5, 0.5], [1.0, 0.5], 0.55)
        assert cell.lam == analysis.LOAD_FRACTION * guaranteed
        assert result.estimated_capacities == (
            single_capacity([0.5, 0.5], [1.0, 0.5]).lambda_star,
        )

    def test_estimates_below_one_slot_still_run(self):
        # gamma * T is 0.5 slots on topic 0: the estimate is a bare profile,
        # never an Instance, so it must not be held to T(x) >= 1.
        result = misestimation_check(
            self.base_instance(),
            gamma=0.5,
            seeds=[0],
            horizon=1_000,
            inflate=lambda t, g, rng: g * t,
        )
        (cell,) = result.cells
        assert result.estimated_capacities == pytest.approx([4 / 3], abs=1e-12)
        assert cell.lam == pytest.approx(0.95 * 0.5 * 4 / 3, abs=1e-12)

    def test_cells_are_the_sweep_cells_of_each_seed(self):
        inst = self.base_instance()
        seeds = [4, 1, 7]
        result = misestimation_check(
            inst, gamma=0.5, seeds=seeds, horizon=2_000, inflate=lambda t, g, rng: t.copy()
        )
        assert [cell.seed for cell in result.cells] == seeds
        # Exact estimates: each run routes by the instance's own certificate.
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        for cell, seed in zip(result.cells, seeds):
            loaded = with_load(inst, cell.lam)
            sched = offline_routing_scheduler(loaded, policy, selection="request_weighted")
            config = SimConfig(loaded, sched, horizon=2_000, seed=seed)
            assert cell == classify_stability(run(config))
        p, q = inst.arrivals.pmf[0], inst.experts[0].success_prob
        assert result.estimated_capacities == (single_capacity(p, q).lambda_star,) * 3

    def test_empty_seed_list_rejected(self):
        # No runs used to mean all_stable.
        message = r"^seeds: expected a non-empty list of non-negative integers, got \[\]$"
        with pytest.raises(ValueError, match=message):
            misestimation_check(self.base_instance(), gamma=0.5, seeds=[], horizon=10)

    def test_bound_violations_rejected_before_simulation(self):
        with pytest.raises(ValueError, match="bound"):
            misestimation_check(
                self.base_instance(),
                gamma=0.5,
                seeds=[0],
                horizon=10,
                inflate=lambda t, g, rng: 0.4 * t,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "times, first", [([[1.0, 2.0]], (0, 0)), ([[1.0, 2.0], [2.0, 1.0]], (0, 1))]
    )
    def test_nan_or_infinite_estimate_is_named_before_the_lp(
        self, monkeypatch, times, first, bad
    ):
        # NaN would read as "cannot answer", and inf makes the LP call a topic
        # unanswerable: both are refused at the first such pair.
        def forbidden(*args, **kwargs):
            raise AssertionError("reached the LP or a run")

        monkeypatch.setattr(analysis, "multi_capacity_dual", forbidden)
        monkeypatch.setattr(analysis, "run", forbidden)
        experts = tuple(ExpertProfile.from_mean_times(i, row) for i, row in enumerate(times))
        inst = Instance(experts, ArrivalSpec(lam=0.5, pmf=[[0.5, 0.5]] * len(times)))

        def inflate(t, g, rng):
            estimates = t.copy()
            estimates[0, len(times) - 1] = estimates[-1, 0] = bad
            return estimates

        expert, topic = first
        with pytest.raises(ValueError, match=f"bound at expert {expert}, topic {topic}: "):
            misestimation_check(inst, gamma=0.5, seeds=[0], horizon=10, inflate=inflate)

    def test_several_experts_run_under_the_routing_of_the_estimates(self, monkeypatch):
        # Estimates of 1/gamma times the truth: the LP on them gives gamma
        # times the true capacity, and each run routes by their certificate.
        inst, gamma = TestVerify().mixed_instance(), 0.5
        configs, simulate = [], analysis.run

        def recorded(config):
            configs.append(config)
            return simulate(config)

        monkeypatch.setattr(analysis, "run", recorded)
        result = misestimation_check(
            inst, gamma, seeds=[0, 1], horizon=20_000, inflate=lambda t, g, rng: t / g
        )
        assert result.all_stable
        times = [e.mean_time / gamma for e in inst.experts]
        estimates = [ExpertProfile.from_mean_times(i, row) for i, row in enumerate(times)]
        optimal = multi_capacity_dual(merged_pmf(inst), estimates)
        true_capacity = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).lambda_star
        assert optimal.lambda_star == pytest.approx(gamma * true_capacity, rel=1e-12)
        assert result.estimated_capacities == (optimal.lambda_star,) * 2
        for cell, config in zip(result.cells, configs):
            assert cell.lam == analysis.LOAD_FRACTION * (gamma * optimal.lambda_star)
            assert config.instance.arrivals.lam == cell.lam
            assert np.array_equal(config.scheduler.s, optimal.certificate.s)
            assert config.scheduler.rule == "weighted"

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(
            lambda w: sum(w) > 0.01
        ),
        times=st.lists(st.floats(1.0, 100.0), min_size=6, max_size=6),
        gamma=st.floats(0.01, 1.0),
    )
    def test_one_expert_load_is_that_of_the_degraded_capacity(self, weights, times, gamma):
        # For one expert the LP on the estimates reduces to the closed form.
        p = np.array(weights) / sum(weights)
        inst = Instance(
            experts=(ExpertProfile.from_mean_times(0, times[: len(p)]),),
            arrivals=ArrivalSpec(lam=0.1, pmf=[p]),
        )
        estimates = []

        def inflate(t, g, rng):
            estimates.append(analysis._default_inflate(t, g, rng))
            return estimates[-1]

        result = misestimation_check(inst, gamma, seeds=[3], horizon=1, inflate=inflate)
        q_hat = ExpertProfile.from_mean_times(0, estimates[0][0]).success_prob
        expected = analysis.LOAD_FRACTION * degraded_capacity(inst.arrivals.pmf[0], q_hat, gamma)
        assert result.cells[0].lam == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            misestimation_check(self.base_instance(), gamma=1.5, seeds=[0])

    def test_negative_seed_is_named_before_any_run(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the bad seed was rejected")

        monkeypatch.setattr(analysis, "run", forbidden)
        with pytest.raises(ValueError, match=r"^seeds: expected .*, got \[1, -2\]$"):
            misestimation_check(self.base_instance(), gamma=0.5, seeds=[1, -2], horizon=200_000)

    def test_horizon_past_the_sample_cap_is_named(self, monkeypatch):
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"reached {name}")

            return call

        monkeypatch.setattr(analysis, "run", forbidden("a run"))
        monkeypatch.setattr(analysis, "multi_capacity_dual", forbidden("the LP"))
        # Each run samples every SAMPLE_INTERVAL slots: the longest horizon
        # whose samples fit the cap.
        cap = (sim.MAX_SAMPLES - 1) * sim.SAMPLE_INTERVAL - 1
        interval, samples = sim.SAMPLE_INTERVAL, sim.MAX_SAMPLES + 1
        message = f"^horizon {cap + 1} at sample_interval {interval} keeps {samples} samples"
        with pytest.raises(ValueError, match=message):
            misestimation_check(self.base_instance(), gamma=0.5, seeds=[0], horizon=cap + 1)
        # At the cap the first seed's LP is reached.
        with pytest.raises(AssertionError, match="reached the LP"):
            misestimation_check(self.base_instance(), gamma=0.5, seeds=[0], horizon=cap)

    def test_every_run_is_built_before_the_first_runs(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the bad estimate was rejected")

        def inflate(t, g, rng):
            calls.append(g)
            return t.copy() if len(calls) == 1 else 0.4 * t

        calls = []
        monkeypatch.setattr(analysis, "run", forbidden)
        with pytest.raises(ValueError, match="bound"):
            misestimation_check(
                self.base_instance(), gamma=0.5, seeds=[0, 1], horizon=10, inflate=inflate
            )
        assert len(calls) == 2


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
        # A short misestimation check, which the other rows do not read.
        misestimation = {"horizon": 200, "seeds": [0]}
        return {"routing_check": {"horizon": horizon}, "misestimation": misestimation}

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
        # No topic reached 100 arrivals, so the row judged nothing: no evidence, no pass.
        check = self.checks(10)["routing_frequencies"]
        assert check["passed"] is False
        assert check["measured_worst_excess"] is None

    def test_routing_lp_is_solved_once(self, monkeypatch):
        # Once on the instance, then once on each misestimation seed's
        # estimates; every solve goes through multi_capacity_dual.
        solves, experts_seen = [], []
        solve, dual = capacity.solve_lp, analysis.multi_capacity_dual

        def counted(lp):
            solves.append(lp)
            return solve(lp)

        def recorded(p, experts):
            experts_seen.append(experts)
            return dual(p, experts)

        monkeypatch.setattr(capacity, "solve_lp", counted)
        monkeypatch.setattr(analysis, "multi_capacity_dual", recorded)
        inst = self.mixed_instance()
        cfg = {"routing_check": {"horizon": 10}, "misestimation": {"horizon": 10, "seeds": [0, 1]}}
        analysis.verify(inst, cfg, 4)
        own = [all(map(operator.is_, experts, inst.experts)) for experts in experts_seen]
        assert own == [True, False, False]
        assert len(solves) == 3

    def test_drift_run_samples_only_its_ends(self, monkeypatch):
        # drift_check reads only busy_moments, so the one recorded run, on one
        # expert too, keeps one sample at each end, not a series that grows
        # with the horizon.
        drift_runs = []
        simulate = analysis.run

        def recorded(config):
            stats = simulate(config)
            if config.record_lyapunov:
                drift_runs.append(stats)
            return stats

        monkeypatch.setattr(analysis, "run", recorded)
        cfg = {
            "routing_check": {"horizon": 3_000},
            "misestimation": {"horizon": 200, "seeds": [0]},
        }
        inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 0.5])
        checks = analysis.verify(inst, cfg, 4)
        assert "drift" in [c["name"] for c in checks]
        assert len(drift_runs) == 1
        assert drift_runs[0].samples[:, 0].tolist() == [0, 3_000]

    def test_routing_run_samples_only_its_ends(self, monkeypatch):
        # The routing rows read only the final counts.
        configs = []
        simulate = analysis.run

        def recorded(config):
            configs.append(config)
            return simulate(config)

        monkeypatch.setattr(analysis, "run", recorded)
        checks = self.checks(3_000)
        rows = ["routing_frequencies", "service_success", "misestimation_stability"]
        assert list(checks)[-3:] == rows
        # Then the misestimation run, at SimConfig's default interval.
        assert [(c.horizon, c.sample_interval) for c in configs] == [(3_000, 3_000), (200, 100)]

    @pytest.mark.parametrize("path", ["single", "routing"])
    def test_lp_is_the_first_heavy_call(self, monkeypatch, path):
        # Every field is read, and every bad one rejected, before the LP is
        # solved; set-up timings cut at the first of these calls rely on it.
        # The misestimation seed's estimate LP and run come last.
        calls = []
        for name in ("multi_capacity_dual", "max_min_load", "run"):

            def recorded(*args, _name=name, _fn=getattr(analysis, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(analysis, name, recorded)
        if path == "single":
            inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 0.5])
        else:
            inst = self.mixed_instance()
        analysis.verify(inst, self.config(10), 4)
        heavy = ["multi_capacity_dual", "max_min_load", "run", "multi_capacity_dual", "run"]
        assert calls == heavy

    def test_drift_row_leaves_out_an_expert_with_no_flow(self, monkeypatch):
        # Expert 2 answers only topic 2, which carries no mass: no request
        # reaches it, so it has no busy slot to judge and the row is that of
        # experts 0 and 1, as _binomial reports pairs.
        experts = tuple(
            ExpertProfile.from_success_probs(i, row)
            for i, row in enumerate([[0.9, 0.4, 0.0], [0.3, 0.8, 0.0], [0.0, 0.0, 1.0]])
        )
        pmf = [[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.5, 0.5, 0.0]]
        inst = Instance(experts=experts, arrivals=ArrivalSpec(lam=0.4, pmf=pmf))
        runs, simulate = [], analysis.run

        def recorded(config):
            runs.append(simulate(config))
            return runs[-1]

        monkeypatch.setattr(analysis, "run", recorded)
        cfg = {"routing_check": {"horizon": 20_000}, "misestimation": {"horizon": 20_000}}
        checks = {c["name"]: c for c in analysis.verify(inst, cfg, 4)}
        assert all(c["passed"] for c in checks.values()), checks
        stats = runs[0]
        assert stats.busy_moments[2][0] == 0
        reports = [drift_check(stats, i) for i in (0, 1)]
        worst = max(abs(r.empirical_drift - r.predicted_drift) - 4.0 * r.std_error for r in reports)
        assert checks["drift"]["measured_worst_excess"] == worst < 0.0

    def test_drift_row_fails_a_run_not_under_the_certificate(self, monkeypatch):
        # The recorded run routes by the anti-optimal baseline but reports the
        # certificate's config, so its drift is not the one the certificate
        # predicts, and the row catches it.
        simulate = analysis.run

        def mismatched(config):
            if not config.record_lyapunov:
                return simulate(config)
            baseline = dataclasses.replace(config, scheduler=mismatch_baseline(config.instance))
            return dataclasses.replace(simulate(baseline), config=config)

        monkeypatch.setattr(analysis, "run", mismatched)
        check = self.checks(5_000)["drift"]
        assert check["passed"] is False
        assert check["measured_worst_excess"] > 0.0

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


class TestServiceSuccess:
    """Completions per service attempt of each (topic, expert) pair against q."""

    def stats(self, inst, horizon=20_000, seed=3):
        sched = (
            work_conserving_single(inst)
            if inst.n_experts == 1
            else offline_routing_scheduler(
                inst, multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
            )
        )
        return run(SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=seed))

    def test_passes_and_reports_the_worst_randomized_pair(self):
        inst = single_expert_instance(0.6, [0.4, 0.3, 0.3], [0.5, 0.8, 1.0])
        stats = self.stats(inst)
        check = analysis._service(stats)
        state = stats.final_state
        expected = -math.inf
        for x, q in enumerate([0.5, 0.8]):
            a = int(state.cum_attempts[x, 0])
            assert a >= 100
            tol = 4.0 * math.sqrt(q * (1 - q) / a)
            expected = max(expected, abs(int(state.cum_departures[x, 0]) / a - q) - tol)
        assert check == {
            "name": "service_success",
            "passed": True,
            "measured_worst_excess": expected,
        }

    def test_fails_against_q_scaled_by_nine_tenths(self):
        inst = single_expert_instance(0.6, [0.5, 0.5], [0.5, 0.8])
        stats = self.stats(inst)
        scaled = single_expert_instance(0.6, [0.5, 0.5], [0.45, 0.72])
        judged = dataclasses.replace(
            stats, config=dataclasses.replace(stats.config, instance=scaled)
        )
        check = analysis._service(judged)
        assert check["passed"] is False
        assert check["measured_worst_excess"] > 0.0

    def test_certain_service_must_match_exactly(self):
        # Specialists serve with q = 1 only: nothing is randomized, and one
        # missing completion fails, as a/a is exactly 1 and has no floor.
        experts = tuple(
            ExpertProfile.from_success_probs(i, [1.0 if x == i else 0.0 for x in range(3)])
            for i in range(3)
        )
        inst = Instance(experts=experts, arrivals=ArrivalSpec(lam=0.6, pmf=[[1 / 3] * 3] * 3))
        stats = self.stats(inst, horizon=2_000)
        assert (stats.final_state.cum_attempts >= 100).sum() == 3
        check = analysis._service(stats)
        assert check["passed"] is True and check["measured_worst_excess"] is None
        state = stats.final_state
        short = dataclasses.replace(state, cum_departures=state.cum_departures - np.eye(3, dtype=int))
        assert analysis._service(dataclasses.replace(stats, final_state=short))["passed"] is False

    def test_pairs_below_one_hundred_attempts_are_left_out(self):
        inst = single_expert_instance(0.6, [0.5, 0.5], [0.5, 0.8])
        stats = self.stats(inst, horizon=50)
        assert stats.final_state.cum_attempts.max() < 100
        check = analysis._service(stats)
        # Every pair is left out, so the row judged nothing and fails.
        assert check["passed"] is False and check["measured_worst_excess"] is None

    @pytest.mark.parametrize("path", ["single", "routing"])
    def test_verify_checks_the_run_it_already_makes(self, monkeypatch, path):
        runs = []
        simulate = analysis.run

        def recorded(config):
            runs.append(simulate(config))
            return runs[-1]

        monkeypatch.setattr(analysis, "run", recorded)
        if path == "single":
            inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 0.5])
        else:
            inst = TestVerify().mixed_instance()
        checks = {c["name"]: c for c in analysis.verify(inst, TestVerify().config(3_000), 4)}
        checked = runs[0]  # the recorded routing run, for one expert too
        assert checks["service_success"] == analysis._service(checked)
        assert checks["service_success"]["passed"] is True
        assert checks["service_success"]["measured_worst_excess"] is not None


# Each library argument read by a config kind: (entry point, argument, integer?).
CHECKED_ARGUMENTS = [
    ("classify_stability", "slope_threshold", False),
    ("capacity_boundary_sweep", "lambdas", False),
    ("capacity_boundary_sweep", "seeds", True),
    ("capacity_boundary_sweep", "slope_threshold", False),
    ("misestimation_check", "horizon", True),
    ("misestimation_check", "gamma", False),
    ("misestimation_check", "seeds", True),
    ("LossPolicy", "epsilon", False),
    ("loss_capacity", "epsilon", False),
    ("degraded_capacity", "gamma", False),
    ("SimConfig", "horizon", True),
    ("SimConfig", "sample_interval", True),
    ("SimConfig", "seed", True),
]


@pytest.mark.parametrize(
    "entry, name, bad",
    [
        pytest.param(entry, name, bad, id=f"{entry}-{name}-{label}")
        for entry, name, integer in CHECKED_ARGUMENTS
        for label, bad in [("bool", True), ("nan", math.nan), ("non-integral", 1.5)]
        if integer or label != "non-integral"
    ],
)
def test_bad_library_argument_is_named_before_any_work(monkeypatch, entry, name, bad):
    # A bool used to run as 1 (or 1.0), and a non-integral seed to fail in numpy.
    inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 0.5])
    sched = work_conserving_single(inst)
    stats = run(SimConfig(inst, sched, horizon=10, seed=0))

    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the bad argument was refused")

    monkeypatch.setattr(analysis, "run", forbidden)
    monkeypatch.setattr(analysis, "multi_capacity_dual", forbidden)
    entries = {
        "classify_stability": (classify_stability, {"stats": stats}),
        "capacity_boundary_sweep": (
            capacity_boundary_sweep,
            {"inst": inst, "sched": sched, "lambdas": [0.3], "horizon": 10, "seeds": [0]},
        ),
        "misestimation_check": (
            misestimation_check,
            {"inst": inst, "gamma": 0.5, "seeds": [0], "horizon": 10},
        ),
        "LossPolicy": (LossPolicy, {"mu": [1.0, 1.0], "epsilon": 0.0}),
        "loss_capacity": (loss_capacity, {"p": [0.5, 0.5], "q": [1.0, 0.5], "epsilon": 0.0}),
        "degraded_capacity": (
            degraded_capacity,
            {"p": [0.5, 0.5], "q_hat": [1.0, 0.5], "gamma": 0.5},
        ),
        "SimConfig": (SimConfig, {"instance": inst, "scheduler": sched, "horizon": 10, "seed": 0}),
    }
    function, arguments = entries[entry]
    value = [bad] if name in ("lambdas", "seeds") else bad
    with pytest.raises(ValueError, match=f"^{name}: expected "):
        function(**{**arguments, name: value})


REPORTS = {"simulate": simulate_report, "sweep": sweep_report}


@pytest.mark.parametrize(
    "path", [p for p in CONFIGS if p.stem.split("_")[0] in REPORTS], ids=lambda p: p.name
)
def test_report_is_what_the_cli_writes(tmp_path, path):
    # The shipped config, shortened, through the CLI and through its report,
    # which takes the config's fields by their _COMMANDS names and defaults.
    command = path.stem.split("_")[0]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc = shortened({**doc, "instance_path": str(path.parent / doc["instance_path"])})
    out = tmp_path / "out"
    result = invoke([command, write_json(tmp_path / "cfg.json", doc), "--out", str(out)])
    assert result.exit_code == 0, result.output
    _, inst = cli._read_config(str(tmp_path / "cfg.json"))
    _, (csv_name, json_name), fields = cli._COMMANDS[command]
    table, document = REPORTS[command](inst, **{k: doc[k] for k in fields if k in doc})

    assert json.loads((out / json_name).read_text(encoding="utf-8")) == cli._jsonify(document)
    if command == "simulate":
        sim.write_trace_csv(table, tmp_path / csv_name)
        written = (tmp_path / csv_name).read_bytes()
    else:
        fh = io.StringIO(newline="")
        writer = csv.writer(fh)
        writer.writerow(["lambda", "seed", "verdict", "slope", "final_quarter_mean"])
        writer.writerows(
            [repr(c.lam), c.seed, c.verdict, repr(c.growth_slope), repr(c.final_quarter_mean)]
            for c in table.cells
        )
        written = fh.getvalue().encode("utf-8")
    assert written == (out / csv_name).read_bytes()


@pytest.mark.parametrize("command", sorted(REPORTS))
@pytest.mark.parametrize(
    "name, bad, message",
    [
        ("horizon", sim.MAX_SAMPLES - 1, "^horizon 4194303 at sample_interval 1 keeps 4194305"),
        ("horizon", True, "^horizon: expected a positive integer, got true$"),
        ("horizon", 0, "^horizon: expected a positive integer, got 0$"),
        ("sample_interval", 1.5, "^sample_interval: expected a positive integer, got 1.5$"),
    ],
    ids=["past-the-cap", "bool", "zero", "non-integral"],
)
def test_report_refuses_its_run_before_the_routing_lp(monkeypatch, command, name, bad, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran or solved before the run was refused")

    monkeypatch.setattr(analysis, "run", forbidden)
    # sched binds the LP solver when it is imported: the routing policy's LP.
    monkeypatch.setattr(sched, "multi_capacity_dual", forbidden)
    inst = instance_from_dict(generalist_doc())
    arguments = {"horizon": 100, "sample_interval": 1, name: bad}
    if command == "simulate":
        arguments["seed"] = 0
    else:
        arguments.update(seeds=[0], lambdas=[0.1])
    with pytest.raises(ValueError, match=message):
        REPORTS[command](inst, {"kind": "routing"}, **arguments)
