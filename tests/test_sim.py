import math
import tracemalloc

import numpy as np
import pytest

from expertq import sim
from expertq.capacity import RoutingPolicy, multi_capacity_dual
from expertq.model import ArrivalSpec, ExpertProfile, Instance, merged_pmf
from expertq.rng import RngStreams
from expertq.sched import offline_routing_scheduler, work_conserving_single
from expertq.sim import (
    QueueState,
    SimConfig,
    geometric_service_check,
    initial_state,
    run,
    step,
    write_trace_csv,
)


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
    pmf = [[1.0 / n] * n for _ in range(n)]
    return Instance(experts=experts, arrivals=ArrivalSpec(lam=lam, pmf=pmf))


class TestStep:
    def test_no_traffic_only_advances_clock(self):
        inst = single_expert_instance(0.0, [1.0], [1.0])
        sched = work_conserving_single(inst)
        streams = RngStreams.from_seed(0)
        state, events = step(initial_state(inst), inst, sched, streams)
        assert state.t == 1
        assert state.q.sum() == 0
        assert events.arrivals == () and events.completions == ()
        assert events.assignments == {0: None}

    def test_certain_service_departs_queued_request(self):
        inst = single_expert_instance(1e-9, [1.0], [1.0])
        sched = work_conserving_single(inst)
        streams = RngStreams.from_seed(1)
        one = np.array([[1]], dtype=np.int64)
        zero = np.zeros((1, 1), dtype=np.int64)
        state = QueueState(
            q=one, t=0, cum_arrivals=one, cum_departures=zero, cum_losses=zero
        )
        after, events = step(state, inst, sched, streams)
        assert events.assignments == {0: 0}
        assert events.completions == ((0, 0),)
        assert after.cum_departures[0, 0] == 1
        assert after.q[0, 0] == 0

    def test_completion_fraction_matches_service_probability(self):
        # saturated single expert, q = 1/2: over ~1e6 served slots the
        # completion fraction lands within the binomial band around 0.5
        inst = single_expert_instance(0.9, [1.0], [0.5])
        sched = work_conserving_single(inst)
        horizon = 1_050_000
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=7))
        served_slots = horizon - round(stats.empty_fraction * horizon)
        assert served_slots > 1_000_000
        fraction = stats.final_state.cum_departures.sum() / served_slots
        assert abs(fraction - 0.5) <= 0.002

    def test_matches_run_trajectory_exactly(self):
        inst = specialist_instance(lam=0.5)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        horizon = 300
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=9))
        streams = RngStreams.from_seed(9)
        state = initial_state(inst)
        for _ in range(horizon):
            state, _ = step(state, inst, sched, streams)
        final = stats.final_state
        assert np.array_equal(state.q, final.q)
        assert np.array_equal(state.cum_arrivals, final.cum_arrivals)
        assert np.array_equal(state.cum_departures, final.cum_departures)
        assert np.array_equal(state.cum_losses, final.cum_losses)


class TestFlowConservation:
    def test_every_slot_balances(self):
        inst = specialist_instance(lam=0.7)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        streams = RngStreams.from_seed(33)
        state = initial_state(inst)
        for _ in range(2000):
            before = state.q
            state, events = step(state, inst, sched, streams)
            delta = np.zeros_like(before)
            for x, j in events.enqueued:
                delta[x, j] += 1
            for x, i in events.completions:
                delta[x, i] -= 1
            assert np.array_equal(state.q, before + delta)
            assert state.q.min() >= 0
            # admissions are a subset of arrivals, served pairs of assignments
            arrivals = list(events.arrivals)
            for pair in events.admitted:
                arrivals.remove(pair)
            for x, i in events.completions:
                assert events.assignments[i] == x
        final = state
        assert np.array_equal(final.cum_arrivals - final.cum_departures, final.q)

    def test_arrival_rate_matches_bernoulli_probabilities(self):
        inst = single_expert_instance(0.6, [0.7, 0.3], [1.0, 1.0])
        sched = work_conserving_single(inst)
        horizon = 100_000
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=3))
        counts = stats.final_state.cum_arrivals[:, 0]
        for x, p_x in enumerate([0.7, 0.3]):
            prob = 0.6 * p_x
            tolerance = 4.0 * math.sqrt(prob * (1 - prob) / horizon)
            assert abs(counts[x] / horizon - prob) <= tolerance


class TestRun:
    def test_single_slot_no_traffic(self):
        inst = single_expert_instance(0.0, [1.0], [1.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=1,
                seed=0,
            )
        )
        assert stats.mean_queue.tolist() == [0.0]
        assert stats.loss_rate.tolist() == [0.0]
        assert stats.throughput == 0.0
        assert stats.empty_fraction == 1.0

    def test_stable_throughput_tracks_arrival_rate(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=100_000,
                seed=5,
            )
        )
        assert abs(stats.throughput - 0.5) <= 0.01
        assert stats.mean_queue[0] < 3.0

    def test_overload_grows_linearly(self):
        inst = single_expert_instance(0.99, [1.0], [0.5])
        horizon = 100_000
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=horizon,
                seed=6,
            )
        )
        final_total = stats.total_queue_series[-1]
        assert final_total >= 0.3 * (0.99 - 0.5) * horizon

    def test_seed_determinism(self):
        inst = specialist_instance(lam=0.5)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        config = SimConfig(instance=inst, scheduler=sched, horizon=5000, seed=123)
        a = run(config)
        b = run(config)
        assert np.array_equal(a.total_queue_series, b.total_queue_series)
        assert np.array_equal(a.final_state.q, b.final_state.q)
        assert a.throughput == b.throughput

    def test_invalid_configs_rejected_before_slot_zero(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        with pytest.raises(ValueError):
            run(SimConfig(instance=inst, scheduler=sched, horizon=0, seed=0))
        with pytest.raises(ValueError):
            run(
                SimConfig(
                    instance=inst,
                    scheduler=sched,
                    horizon=10,
                    seed=0,
                    sample_interval=0,
                )
            )
        other = single_expert_instance(0.5, [0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            run(SimConfig(instance=other, scheduler=sched, horizon=10, seed=0))
        bad = single_expert_instance(1.2, [1.0], [1.0])
        with pytest.raises(ValueError, match="lambda"):
            run(
                SimConfig(
                    instance=bad,
                    scheduler=work_conserving_single(bad),
                    horizon=10,
                    seed=0,
                )
            )

    def test_time_average_is_exact(self):
        # replay the trajectory step by step and recompute the average
        inst = single_expert_instance(0.6, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst)
        horizon = 400
        stats = run(SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=8))
        streams = RngStreams.from_seed(8)
        state = initial_state(inst)
        total = 0
        for _ in range(horizon):
            state, _ = step(state, inst, sched, streams)
            total += int(state.q.sum())
        assert stats.mean_queue[0] == pytest.approx(total / horizon, abs=1e-12)

    def test_lyapunov_recording_shapes(self):
        inst = single_expert_instance(0.4, [1.0], [0.5])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=500,
                seed=2,
                record_lyapunov=True,
            )
        )
        assert stats.lyapunov_series.shape == (501, 1)
        assert stats.busy_series.shape == (500, 1)
        plain = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=500,
                seed=2,
            )
        )
        assert plain.lyapunov_series is None

    def test_sampling_grid(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=1000,
                seed=0,
                sample_interval=250,
            )
        )
        assert stats.sample_times.tolist() == [0, 250, 500, 750, 1000]


def generalist_instance(lam, n, n_topics, q=0.5):
    experts = tuple(
        ExpertProfile.from_success_probs(i, [q] * n_topics) for i in range(n)
    )
    pmf = [[1.0 / n_topics] * n_topics for _ in range(n)]
    return Instance(experts=experts, arrivals=ArrivalSpec(lam=lam, pmf=pmf))


def uniform_routing(inst):
    s = np.full((inst.n_experts, inst.n_topics), 1.0 / inst.n_experts)
    return offline_routing_scheduler(inst, RoutingPolicy(s=s))


class TestArrivalBlocks:
    """The arrival draw is split into blocks by bytes; the split must not
    change a single draw."""

    @staticmethod
    def outcome(stats):
        state = stats.final_state
        return (
            stats.summary(),
            [
                arr.tolist()
                for arr in (
                    state.q,
                    state.cum_arrivals,
                    state.cum_departures,
                    state.cum_losses,
                    stats.sample_times,
                    stats.total_queue_series,
                    stats.cum_loss_series,
                    stats.cum_departure_series,
                    stats.lyapunov_series,
                    stats.busy_series,
                )
            ],
        )

    @pytest.mark.parametrize("kind", ["single", "routing"])
    def test_block_size_does_not_change_the_trajectory(self, monkeypatch, kind):
        if kind == "single":
            inst = single_expert_instance(0.7, [0.5, 0.3, 0.2], [1.0, 0.5, 0.25])
            sched = work_conserving_single(inst, tie_break="uniform-random")
        else:
            inst = generalist_instance(0.3, 3, 4)
            sched = uniform_routing(inst)
        config = SimConfig(
            instance=inst,
            scheduler=sched,
            horizon=1000,
            seed=11,
            sample_interval=7,
            record_lyapunov=True,
        )
        reference = self.outcome(run(config))
        row_bytes = 8 * inst.n_experts * inst.n_topics
        for budget in (1, 3 * row_bytes):
            monkeypatch.setattr(sim, "ARRIVAL_BLOCK_BYTES", budget)
            assert self.outcome(run(config)) == reference

    def test_wide_run_peak_memory_is_bounded(self):
        # 32 experts x 50 topics: an arrival block of 2000 slots held 28.8 MB
        # of uniforms and hit mask; blocks of 256 KiB keep the whole run small.
        inst = generalist_instance(0.3, 32, 50)
        config = SimConfig(
            instance=inst, scheduler=uniform_routing(inst), horizon=2000, seed=1
        )
        tracemalloc.start()
        try:
            stats = run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.throughput > 0
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestGeometricService:
    def test_certain_success_is_exact(self):
        rng = np.random.default_rng(0)
        assert geometric_service_check(1.0, 1000, rng) == 1.0

    @pytest.mark.parametrize("q_val", [0.5, 0.1])
    def test_mean_matches_inverse_probability(self, q_val):
        rng = np.random.default_rng(14)
        trials = 1_000_000
        mean = geometric_service_check(q_val, trials, rng)
        tolerance = 4.0 * math.sqrt(1.0 - q_val) / q_val / math.sqrt(trials)
        assert abs(mean - 1.0 / q_val) <= tolerance

    def test_invalid_probability(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                geometric_service_check(bad, 10, rng)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_must_be_positive(self, trials):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            geometric_service_check(0.5, trials, rng)

    @staticmethod
    def one_shot(q_val, trials, rng):
        # Each round's uniforms in one draw: the unblocked reference.
        alive, slots_used = trials, 0
        while alive:
            slots_used += alive
            alive = int(np.count_nonzero(rng.random(alive) >= q_val))
        return slots_used / trials

    @pytest.mark.parametrize("q_val", [0.5, 0.1])
    def test_blocks_match_one_shot_draws(self, q_val):
        # The first rounds span four blocks, the last ones part of one.
        trials = 3 * sim.GEOMETRIC_BLOCK + 17
        blocked = np.random.default_rng(21)
        reference = np.random.default_rng(21)
        mean = geometric_service_check(q_val, trials, blocked)
        assert mean == self.one_shot(q_val, trials, reference)
        assert blocked.random() == reference.random()

    def test_peak_memory_is_bounded(self):
        # 4 M trials: one draw per round held 36 MB of uniforms and mask.
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            mean = geometric_service_check(0.5, 4_000_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(mean - 2.0) < 0.01
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        stats = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=300,
                seed=1,
                sample_interval=100,
            )
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(stats, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,total_queue,cum_loss,cum_departures"
        assert len(lines) == 1 + len(stats.sample_times)
