import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from expertq.analysis import classify_stability
from expertq.capacity import LossPolicy, RoutingPolicy, multi_capacity_dual
from expertq.model import ArrivalSpec, ExpertProfile, Instance, merged_pmf
from expertq.rng import RngStreams
from expertq.sched import (
    mismatch_baseline,
    offline_loss_scheduler,
    offline_routing_scheduler,
    work_conserving_single,
)
from expertq.sim import SimConfig, initial_state, run, step


def single_expert_instance(lam, p, q):
    return Instance(
        experts=(ExpertProfile.from_success_probs(0, q),),
        arrivals=ArrivalSpec(lam=lam, pmf=[list(p)]),
    )


def specialist_instance(lam=0.6, n=3):
    experts = tuple(
        ExpertProfile.from_success_probs(i, [1.0 if x == i else 0.0 for x in range(n)])
        for i in range(n)
    )
    return Instance(
        experts=experts, arrivals=ArrivalSpec(lam=lam, pmf=[[1.0 / n] * n] * n)
    )


def crossed_skill_instance(lam):
    # expert 0 is fast on topic 0, expert 1 fast on topic 1
    experts = (
        ExpertProfile.from_success_probs(0, [0.9, 0.1]),
        ExpertProfile.from_success_probs(1, [0.1, 0.9]),
    )
    return Instance(
        experts=experts, arrivals=ArrivalSpec(lam=lam, pmf=[[0.5, 0.5]] * 2)
    )


class TestWorkConservingSingle:
    def test_rejected_for_multiple_experts(self):
        with pytest.raises(ValueError):
            work_conserving_single(specialist_instance())

    def test_longest_queue_pick(self):
        inst = single_expert_instance(0.5, [1 / 3] * 3, [1.0] * 3)
        sched = work_conserving_single(inst, tie_break="longest-queue")
        streams = RngStreams.from_seed(0)
        assert sched.select(0, [3, 0, 2], 5, streams) == 0
        assert sched.select(0, [1, 4, 2], 7, streams) == 1

    def test_arbitrary_pick_is_first_nonempty(self):
        inst = single_expert_instance(0.5, [1 / 3] * 3, [1.0] * 3)
        sched = work_conserving_single(inst, tie_break="arbitrary")
        streams = RngStreams.from_seed(0)
        assert sched.select(0, [0, 0, 2], 2, streams) == 2
        assert sched.select(0, [0, 1, 2], 3, streams) == 1

    def test_uniform_random_pick_covers_nonempty_queues(self):
        inst = single_expert_instance(0.5, [1 / 3] * 3, [1.0] * 3)
        sched = work_conserving_single(inst, tie_break="uniform-random")
        streams = RngStreams.from_seed(4)
        counts = Counter(sched.select(0, [5, 0, 1], 6, streams) for _ in range(3000))
        assert set(counts) == {0, 2}
        # uniform over the two non-empty topics, not request-weighted
        assert abs(counts[0] / 3000 - 0.5) <= 4 * math.sqrt(0.25 / 3000)

    def test_unknown_tie_break_rejected(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        with pytest.raises(ValueError):
            work_conserving_single(inst, tie_break="fifo")

    @pytest.mark.parametrize(
        "tie_break", ["arbitrary", "uniform-random", "longest-queue"]
    )
    def test_stable_at_ninety_percent_of_capacity(self, tie_break):
        # capacity of this instance is 2/3
        lam = 0.9 * (2 / 3)
        inst = single_expert_instance(lam, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst, tie_break=tie_break)
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=60_000, seed=2))
        assert classify_stability(stats).verdict == "stable"

    def test_never_idle_with_work(self):
        inst = single_expert_instance(0.8, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst)
        streams = RngStreams.from_seed(5)
        state = initial_state(inst)
        for _ in range(2000):
            before_total = int(state.q.sum())
            state, events = step(state, inst, sched, streams)
            queued_at_selection = before_total + len(events.enqueued)
            idle = events.assignments[0] is None
            assert idle == (queued_at_selection == 0)


class TestOfflineLossScheduler:
    def test_admit_everything_matches_work_conserving(self):
        inst = single_expert_instance(0.6, [0.5, 0.5], [1.0, 0.5])
        policy = LossPolicy(mu=[1.0, 1.0], epsilon=0.0)
        horizon = 20_000
        base = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=horizon,
                seed=11,
            )
        )
        lossy = run(
            SimConfig(
                instance=inst,
                scheduler=offline_loss_scheduler(inst, policy),
                horizon=horizon,
                seed=11,
            )
        )
        assert np.array_equal(base.final_state.q, lossy.final_state.q)
        assert np.array_equal(
            base.total_queue_series, lossy.total_queue_series
        )
        assert lossy.loss_rate[0] == 0.0

    def test_loss_rate_matches_drop_formula(self):
        # every topic-0 arrival dropped: loss rate -> lam * p0 * (1 - mu0)
        lam = 0.95
        inst = single_expert_instance(lam, [0.5, 0.5], [0.0, 0.5])
        policy = LossPolicy(mu=[0.0, 1.0], epsilon=0.5)
        horizon = 100_000
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=offline_loss_scheduler(inst, policy),
                horizon=horizon,
                seed=13,
            )
        )
        expected = lam * 0.5
        tolerance = 4.0 * math.sqrt(expected * (1 - expected) / horizon)
        assert abs(stats.loss_rate[0] - expected) <= tolerance
        assert classify_stability(stats).verdict == "stable"

    def test_admission_independent_of_queue_state(self):
        # bucket arrivals by whether the system was empty at the slot
        # start; admission frequency must match mu in both buckets
        lam = 0.8
        mu = [0.3, 0.8]
        inst = single_expert_instance(lam, [0.5, 0.5], [0.6, 0.6])
        sched = offline_loss_scheduler(inst, LossPolicy(mu=mu, epsilon=1.0))
        streams = RngStreams.from_seed(17)
        state = initial_state(inst)
        admitted = {True: Counter(), False: Counter()}
        seen = {True: Counter(), False: Counter()}
        for _ in range(30_000):
            empty = int(state.q.sum()) == 0
            state, events = step(state, inst, sched, streams)
            for x, _ in events.arrivals:
                seen[empty][x] += 1
            for x, _ in events.admitted:
                admitted[empty][x] += 1
        for bucket in (True, False):
            for x in (0, 1):
                total = seen[bucket][x]
                assert total > 500
                rate = admitted[bucket][x] / total
                tolerance = 4.0 * math.sqrt(mu[x] * (1 - mu[x]) / total)
                assert abs(rate - mu[x]) <= tolerance

    def test_dimension_mismatch_rejected(self):
        inst = single_expert_instance(0.5, [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            offline_loss_scheduler(inst, LossPolicy(mu=[1.0], epsilon=0.0))

    def test_multi_expert_rejected(self):
        with pytest.raises(ValueError):
            offline_loss_scheduler(
                specialist_instance(), LossPolicy(mu=[1.0] * 3, epsilon=0.0)
            )


class TestOfflineRoutingScheduler:
    def test_specialists_route_deterministically(self):
        inst = specialist_instance(lam=0.5)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        streams = RngStreams.from_seed(19)
        state = initial_state(inst)
        for _ in range(500):
            state, events = step(state, inst, sched, streams)
            for x, dest in events.enqueued:
                assert dest == x

    def test_routing_frequencies_match_matrix(self):
        inst = Instance(
            experts=tuple(
                ExpertProfile.from_success_probs(i, [0.8, 0.8, 0.8]) for i in range(3)
            ),
            arrivals=ArrivalSpec(lam=0.4, pmf=[[1 / 3] * 3] * 3),
        )
        s = np.array(
            [
                [0.5, 0.25, 0.25],
                [0.25, 0.5, 0.25],
                [0.25, 0.25, 0.5],
            ]
        )
        sched = offline_routing_scheduler(inst, RoutingPolicy(s=s))
        horizon = 20_000
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=21))
        counts = stats.final_state.cum_arrivals  # destination counts per topic
        for x in range(3):
            total = counts[x].sum()
            assert total > 5000
            for i in range(3):
                share = s[i, x]
                tolerance = 4.0 * math.sqrt(share * (1 - share) / total)
                assert abs(counts[x, i] / total - share) <= tolerance

    def test_work_conserving_per_expert(self):
        inst = specialist_instance(lam=0.7)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        streams = RngStreams.from_seed(23)
        state = initial_state(inst)
        for _ in range(2000):
            before = state.q.sum(axis=0)
            state, events = step(state, inst, sched, streams)
            enq = Counter(dest for _, dest in events.enqueued)
            for i in range(inst.n_experts):
                own_work = int(before[i]) + enq[i]
                idle = events.assignments[i] is None
                assert idle == (own_work == 0)

    def test_invalid_matrix_rejected(self):
        inst = specialist_instance()
        bad_sum = RoutingPolicy(s=np.full((3, 3), 0.2))
        with pytest.raises(ValueError, match="routing"):
            offline_routing_scheduler(inst, bad_sum)
        crossing = RoutingPolicy(s=np.full((3, 3), 1 / 3))
        with pytest.raises(ValueError, match="zero success"):
            offline_routing_scheduler(inst, crossing)
        with pytest.raises(ValueError):
            offline_routing_scheduler(inst, RoutingPolicy(s=None))

    def test_request_weighted_selection_statistics(self):
        inst = specialist_instance(lam=0.5)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy, selection="request_weighted")
        streams = RngStreams.from_seed(29)
        draws = Counter(sched.select(0, [3, 1, 0], 4, streams) for _ in range(4000))
        share = draws[0] / 4000
        assert abs(share - 0.75) <= 4 * math.sqrt(0.75 * 0.25 / 4000)

    def test_request_weighted_selection_ends_at_last_nonempty_queue(self):
        # The largest uniform below 1 still picks a queue: fl(u * total) <
        # total for every integer total below 2**53.
        sched = mismatch_baseline(specialist_instance(), selection="request_weighted")
        u = float(np.nextafter(1.0, 0.0))
        streams = SimpleNamespace(selection=SimpleNamespace(next=lambda: u))
        for total in range(1, 4097):
            assert sched.select(0, [total - 1, 0, 1, 0], total, streams) == 2
            assert sched.select(0, [0, total, 0, 0], total, streams) == 1

    def test_topic_uniform_selection_statistics(self):
        inst = specialist_instance(lam=0.5)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy, selection="topic_uniform")
        streams = RngStreams.from_seed(31)
        draws = Counter(sched.select(0, [3, 1, 0], 4, streams) for _ in range(4000))
        share = draws[0] / 4000
        assert abs(share - 0.5) <= 4 * math.sqrt(0.25 / 4000)


class TestMismatchBaseline:
    def test_routes_to_slowest_able_expert(self):
        inst = crossed_skill_instance(0.1)
        sched = mismatch_baseline(inst)
        assert np.argmax(sched.s, axis=0).tolist() == [1, 0]

    def test_specialists_degenerate_to_optimal(self):
        # with one able expert per topic the "worst" choice is the only
        # choice; the control collapses to the optimal routing
        inst = specialist_instance()
        sched = mismatch_baseline(inst)
        assert np.argmax(sched.s, axis=0).tolist() == [0, 1, 2]

    def test_unstable_where_optimal_routing_is_stable(self):
        # baseline capacity is 0.1 here; drive at 1.2x that, well under
        # the optimal policy's 0.9
        lam = 0.12
        inst = crossed_skill_instance(lam)
        baseline_stats = run(
            SimConfig(
                instance=inst,
                scheduler=mismatch_baseline(inst),
                horizon=80_000,
                seed=37,
            )
        )
        assert classify_stability(baseline_stats).verdict == "unstable"
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        routed_stats = run(
            SimConfig(
                instance=inst,
                scheduler=offline_routing_scheduler(inst, policy),
                horizon=80_000,
                seed=37,
            )
        )
        assert classify_stability(routed_stats).verdict == "stable"
