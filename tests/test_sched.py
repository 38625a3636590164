import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expertq.analysis import classify_stability
from expertq.capacity import LossPolicy, RoutingPolicy, multi_capacity_dual
from expertq.model import ArrivalSpec, ExpertProfile, Instance, merged_pmf
from expertq.rng import RngStreams
from expertq.sched import (
    Scheduler,
    mismatch_baseline,
    offline_loss_scheduler,
    offline_routing_scheduler,
    work_conserving_single,
)
from expertq.sim import SimConfig, run, steps
from oracles import longest_scan, route_scan, weighted_scan


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
        before_total = 0
        for state, events in steps(SimConfig(instance=inst, scheduler=sched, horizon=2000, seed=5)):
            queued_at_selection = before_total + len(events.enqueued)
            idle = events.assignments[0] is None
            assert idle == (queued_at_selection == 0)
            before_total = int(state.q.sum())


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
        assert np.array_equal(base.samples, lossy.samples)
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
        admitted = {True: Counter(), False: Counter()}
        seen = {True: Counter(), False: Counter()}
        empty = True
        config = SimConfig(instance=inst, scheduler=sched, horizon=30_000, seed=17)
        for state, events in steps(config):
            for x, _ in events.arrivals:
                seen[empty][x] += 1
            for x, _ in events.admitted:
                admitted[empty][x] += 1
            empty = int(state.q.sum()) == 0
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
        for _, events in steps(SimConfig(instance=inst, scheduler=sched, horizon=500, seed=19)):
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
        before = np.zeros(inst.n_experts, dtype=np.int64)
        config = SimConfig(instance=inst, scheduler=sched, horizon=2000, seed=23)
        for state, events in steps(config):
            enq = Counter(dest for _, dest in events.enqueued)
            for i in range(inst.n_experts):
                own_work = int(before[i]) + enq[i]
                idle = events.assignments[i] is None
                assert idle == (own_work == 0)
            before = state.q.sum(axis=0)

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

    def test_draw_past_a_short_column_stays_with_a_skilled_expert(self):
        # The column sums to 1 - 5e-8, within tolerance; a draw at or above
        # that total goes to expert 1, the last with positive weight, and
        # never to the skill-less expert 2, where it would wait forever.
        inst = Instance(
            experts=tuple(
                ExpertProfile.from_success_probs(i, [q]) for i, q in enumerate([0.5, 0.5, 0.0])
            ),
            arrivals=ArrivalSpec(lam=0.3, pmf=[[1.0]] * 3),
        )
        sched = offline_routing_scheduler(inst, RoutingPolicy(s=[[0.5], [0.49999995], [0.0]]))
        for u in (0.99999995, 0.999999999, float(np.nextafter(1.0, 0.0))):
            streams = SimpleNamespace(routing=SimpleNamespace(next=lambda u=u: u))
            assert sched.route(0, 0, streams) == 1

    def test_skill_less_expert_needs_exactly_zero_weight(self):
        # A weight within POLICY_TOL of zero would still send requests to an
        # expert that can never finish them.
        inst = Instance(
            experts=tuple(
                ExpertProfile.from_success_probs(i, [q]) for i, q in enumerate([0.5, 0.0, 0.5])
            ),
            arrivals=ArrivalSpec(lam=0.3, pmf=[[1.0]] * 3),
        )
        policy = RoutingPolicy(s=[[0.5], [5e-8], [0.49999995]])
        with pytest.raises(ValueError, match="routed to expert 1 with zero success"):
            offline_routing_scheduler(inst, policy)

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


def fixed_draw(purpose, u):
    """Streams whose ``purpose`` stream yields ``u`` on every draw."""
    return SimpleNamespace(**{purpose: SimpleNamespace(next=lambda: u)})


def around(value):
    """``value`` and the doubles one ulp either side of it."""
    return (float(np.nextafter(value, -np.inf)), value, float(np.nextafter(value, np.inf)))


def unit_draws(edges):
    """Every draw in [0, 1) at, or one ulp either side of, an edge."""
    draws = {0.0, float(np.nextafter(1.0, 0.0))}
    draws.update(u for edge in edges for u in around(float(edge)))
    return sorted(u for u in draws if 0.0 <= u < 1.0)


# A routing weight: a run of exact zeros, a tolerated tiny negative entry,
# or a positive share normalised below.
WEIGHTS = st.one_of(st.just(0.0), st.just(-1e-13), st.floats(1e-9, 1.0))
# Queue counts: short ones tie and run to zero often, long ones test that
# the prefix sums stay exact.
COUNTS = st.one_of(st.integers(0, 3), st.integers(0, 2**40))


class TestBisectionMatchesScan:
    """route and select bisect on prefix sums; tests/oracles.py holds the
    per-element scans they must agree with."""

    @staticmethod
    def router(weights):
        positive = sum(w for w in weights if w > 0)
        column = [w / positive if w > 0 else w for w in weights] if positive else weights
        inst = SimpleNamespace(n_experts=len(column), n_topics=1)
        return column, Scheduler("routing", inst, None, np.array(column)[:, None], "first")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WEIGHTS, min_size=1, max_size=8))
    @example([0.5, 0.5])
    @example([0.25, 0.0, 0.0, 0.75, 0.0, 0.0])
    @example([0.5, -1e-13, 0.5, -1e-13])
    def test_route_matches_scan_below_the_column_total(self, weights):
        column, sched = self.router(weights)
        cumsum = np.cumsum(column)
        total = float(cumsum.max())
        for u in unit_draws(cumsum):
            if u < total:
                assert sched.route(0, 0, fixed_draw("routing", u)) == route_scan(column, u)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WEIGHTS, min_size=1, max_size=8))
    @example([0.5, 0.49999995, 0.0])
    @example([0.0, -1e-13, 0.0])
    def test_route_past_the_column_total_goes_to_last_weighted_expert(self, weights):
        column, sched = self.router(weights)
        total = float(np.cumsum(column).max())
        weighted = [i for i, w in enumerate(column) if w > 0]
        last = weighted[-1] if weighted else len(column) - 1
        for u in unit_draws([total]):
            if u >= total:
                assert sched.route(0, 0, fixed_draw("routing", u)) == last

    @staticmethod
    def selector(rule, row):
        inst = SimpleNamespace(n_experts=1, n_topics=len(row))
        return Scheduler("work_conserving", inst, None, None, rule)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(COUNTS, min_size=1, max_size=12).filter(any))
    @example([0, 0, 5, 0, 0])
    @example([2**40, 0, 2**40 - 1, 1])
    def test_weighted_matches_scan(self, row):
        total = sum(row)
        sched = self.selector("weighted", row)
        for u in unit_draws([p / total for p in np.cumsum(row).tolist()]):
            expected = weighted_scan(row, u * total)
            assert sched.select(0, row, total, fixed_draw("selection", u)) == expected

    def test_weighted_target_on_a_prefix_sum_takes_the_next_queue(self):
        # total 8: u = p / 8 is exact, so u * total equals the prefix sum p.
        row = [1, 0, 0, 3, 0, 4]
        sched = self.selector("weighted", row)
        picks = [sched.select(0, row, 8, fixed_draw("selection", p / 8)) for p in (0, 1, 4)]
        assert picks == [weighted_scan(row, p) for p in (0, 1, 4)] == [0, 3, 5]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(COUNTS, min_size=1, max_size=12).filter(any))
    @example([3, 1, 3, 0])
    @example([0, 2, 0, 2, 2])
    def test_longest_matches_scan(self, row):
        sched = self.selector("longest", row)
        assert sched.select(0, row, sum(row), fixed_draw("selection", 0.5)) == longest_scan(row)
