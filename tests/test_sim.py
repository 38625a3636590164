import csv
import dataclasses
import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertq import rng, sim
from expertq.capacity import LossPolicy, RoutingPolicy, multi_capacity_dual
from expertq.model import ArrivalSpec, ExpertProfile, Instance, merged_pmf
from expertq.rng import RngStreams, UniformBuffer
from expertq.sched import (
    SELECTION_MODES,
    TIE_BREAKS,
    mismatch_baseline,
    offline_loss_scheduler,
    offline_routing_scheduler,
    work_conserving_single,
)
from expertq.sim import SimConfig, run, steps, write_trace_csv
from oracles import drift_record
from test_golden import CASES, build


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
        config = SimConfig(instance=inst, scheduler=sched, horizon=3, seed=0)
        replay = list(steps(config))
        assert [state.t for state, _ in replay] == [1, 2, 3]
        for state, events in replay:
            assert state.q.sum() == 0
            assert events.arrivals == () and events.completions == ()
            assert events.assignments == {0: None}

    def test_certain_service_departs_queued_request(self):
        # Every request is served in its arrival slot and departs at once.
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        config = SimConfig(instance=inst, scheduler=sched, horizon=200, seed=1)
        served = 0
        for state, events in steps(config):
            assert state.q[0, 0] == 0
            if events.arrivals:
                assert events.enqueued == ((0, 0),)
                assert events.assignments == {0: 0}
                assert events.completions == ((0, 0),)
                served += 1
            else:
                assert events.assignments == {0: None} and events.completions == ()
        assert served > 50
        assert state.cum_departures[0, 0] == state.cum_arrivals[0, 0] == served

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

    @pytest.mark.parametrize("case", CASES)
    def test_matches_run_trajectory_exactly(self, case):
        inst, sched = build(case)
        horizon = 300
        config = SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=9)
        stats = run(config)
        for state, _ in steps(config):
            pass
        final = stats.final_state
        assert state.t == final.t == horizon
        assert np.array_equal(state.q, final.q)
        assert np.array_equal(state.cum_arrivals, final.cum_arrivals)
        assert np.array_equal(state.cum_departures, final.cum_departures)
        assert np.array_equal(state.cum_losses, final.cum_losses)
        assert np.array_equal(state.cum_attempts, final.cum_attempts)

    @pytest.mark.parametrize("case", CASES)
    def test_leaves_the_scheduler_unchanged(self, case):
        inst, sched = build(case)
        before = pickle.dumps(vars(sched))
        for _ in steps(SimConfig(instance=inst, scheduler=sched, horizon=50, seed=5)):
            pass
        assert pickle.dumps(vars(sched)) == before
        assert not {"admit", "route", "select"} & vars(sched).keys()

    @pytest.mark.parametrize("case", ["work_conserving:longest_queue", "routing:request_weighted"])
    def test_attempts_tally_the_assignments(self, case):
        inst, sched = build(case)
        config = SimConfig(instance=inst, scheduler=sched, horizon=400, seed=6)
        tally = np.zeros((inst.n_topics, inst.n_experts), dtype=np.int64)
        for state, events in steps(config):
            for i, x in events.assignments.items():
                if x is not None:
                    tally[x, i] += 1
            assert np.array_equal(state.cum_attempts, tally)
        assert tally.sum() > 100 and (tally > 0).sum() > 1
        assert np.array_equal(run(config).final_state.cum_attempts, tally)

    def test_one_replay_builds_one_engine(self, monkeypatch):
        built = []

        class CountingEngine(sim._Engine):
            def __init__(self, *args) -> None:
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(sim, "_Engine", CountingEngine)
        inst, sched = build("routing:request_weighted")
        config = SimConfig(instance=inst, scheduler=sched, horizon=300, seed=2)
        assert sum(1 for _ in steps(config)) == 300
        assert len(built) == 1


def short_run_config(name, horizon):
    """One expert work-conserving, one expert with a loss scheduler
    (mu < 1), or three routed experts of which the third gets no route and
    idles every slot. Seed 170 leaves work queued at the ends of slots 0
    and 1 in all three, and the loss scheduler rejects one of the first
    three arrivals."""
    if name == "work_conserving":
        inst = single_expert_instance(0.6, [0.5, 0.5], [1.0, 0.5])
        sched = work_conserving_single(inst)
    elif name == "loss":
        inst = single_expert_instance(0.8, [0.5, 0.5], [1.0, 0.5])
        sched = offline_loss_scheduler(inst, LossPolicy(mu=[1.0, 0.4], epsilon=0.0))
    else:
        experts = tuple(ExpertProfile.from_success_probs(i, [0.7, 0.6]) for i in range(3))
        inst = Instance(experts=experts, arrivals=ArrivalSpec(lam=0.3, pmf=[[0.5, 0.5]] * 3))
        policy = RoutingPolicy(s=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        sched = offline_routing_scheduler(inst, policy)
    return SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=170)


class TestFlowConservation:
    def test_every_slot_balances(self):
        inst = specialist_instance(lam=0.7)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        before = np.zeros((inst.n_topics, inst.n_experts), dtype=np.int64)
        config = SimConfig(instance=inst, scheduler=sched, horizon=2000, seed=33)
        for state, events in steps(config):
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
            before = state.q
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
        final_total = stats.samples[-1, 1]
        assert final_total >= 0.3 * (0.99 - 0.5) * horizon

    def test_seed_determinism(self):
        inst = specialist_instance(lam=0.5)
        policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
        sched = offline_routing_scheduler(inst, policy)
        config = SimConfig(instance=inst, scheduler=sched, horizon=5000, seed=123)
        a = run(config)
        b = run(config)
        assert a.config is config
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.final_state.q, b.final_state.q)
        assert a.throughput == b.throughput

    def test_invalid_configs_rejected_before_slot_zero(self):
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        with pytest.raises(ValueError):
            SimConfig(instance=inst, scheduler=sched, horizon=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(
                instance=inst,
                scheduler=sched,
                horizon=10,
                seed=0,
                sample_interval=0,
            )
        other = single_expert_instance(0.5, [0.5, 0.5], [1.0, 1.0])
        message = "scheduler built for 1 experts x 1 topics, instance has 1 x 2"
        with pytest.raises(ValueError, match=message):
            SimConfig(instance=other, scheduler=sched, horizon=10, seed=0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            SimConfig(instance=inst, scheduler=sched, horizon=10, seed=-1)
        # An invalid instance cannot reach a SimConfig: it fails when built.
        with pytest.raises(ValueError, match="lambda"):
            single_expert_instance(1.2, [1.0], [1.0])

    @pytest.mark.parametrize("interval", [1, 1000])
    def test_sample_count_is_capped(self, interval):
        # horizon // sample_interval + 2 samples at most, 32 bytes each.
        inst = single_expert_instance(0.5, [1.0], [1.0])
        sched = work_conserving_single(inst)
        at_cap = (sim.MAX_SAMPLES - 2) * interval + interval - 1
        config = SimConfig(inst, sched, at_cap, 0, sample_interval=interval)
        assert config.horizon // interval + 2 == sim.MAX_SAMPLES
        message = f"horizon {at_cap + 1} at sample_interval {interval} keeps {sim.MAX_SAMPLES + 1}"
        with pytest.raises(ValueError, match=message):
            SimConfig(inst, sched, at_cap + 1, 0, sample_interval=interval)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 5, 400])
    @pytest.mark.parametrize("name", ["work_conserving", "loss", "routing"])
    def test_time_average_is_exact(self, name, horizon):
        # Replay the trajectory slot by slot and recompute every statistic.
        # Horizons 1-3 start the final quarter at slot 0.
        config = short_run_config(name, horizon)
        stats = run(config)
        states = [state for state, _ in steps(config)]
        ends = [state.q.sum(axis=0).tolist() for state in states]  # slot-end totals
        starts = [[0] * len(ends[0])] + ends[:-1]  # every run starts empty
        quarter = max(1, horizon // 4)
        losses = [state.cum_losses.sum(axis=0) for state in states]
        before_quarter = losses[-quarter - 1] if quarter < horizon else 0
        assert stats.mean_queue.tolist() == [sum(col) / horizon for col in zip(*ends)]
        assert stats.mean_queue_final_quarter.tolist() == [
            sum(col) / quarter for col in zip(*ends[-quarter:])
        ]
        assert stats.loss_rate.tolist() == (losses[-1] / horizon).tolist()
        assert stats.loss_rate_final_quarter.tolist() == (
            (losses[-1] - before_quarter) / quarter
        ).tolist()
        assert stats.throughput == int(states[-1].cum_departures.sum()) / horizon
        assert stats.empty_fraction == sum(not any(row) for row in starts) / horizon
        assert stats.empty_fraction_per_expert.tolist() == [
            sum(not v for v in col) / horizon for col in zip(*starts)
        ]

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
        # Three Python ints per expert whatever the horizon and topics.
        ((count, first, second),) = stats.busy_moments
        assert all(type(v) is int for v in (count, first, second))
        assert 0 < count < 500
        # One topic at q = 1/2: W = 2 * 2**52, so each dL is a multiple of W.
        assert first % 2**53 == 0 and second % 2**106 == 0 and second > 0
        plain = run(
            SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=500,
                seed=2,
            )
        )
        assert plain.busy_moments is None

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
        assert stats.samples[:, 0].tolist() == [0, 250, 500, 750, 1000]


def _mass(draw, n: int) -> list[float]:
    """n non-negative weights, not all 0, normalised to sum to 1."""
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] += 1
    return [w / sum(weights) for w in weights]


@st.composite
def recorded_configs(draw) -> SimConfig:
    """A small random instance under any scheduler kind and rule; every
    topic is answerable by some expert, and routing sends each topic only
    to experts that can answer it."""
    kind = draw(st.sampled_from(["work_conserving", "loss", "routing", "baseline"]))
    n = 1 if kind in ("work_conserving", "loss") else draw(st.integers(1, 3))
    n_topics = draw(st.integers(1, 3))
    prob = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 1.0))
    q = [draw(st.lists(prob, min_size=n_topics, max_size=n_topics)) for _ in range(n)]
    for x in range(n_topics):
        if not any(row[x] for row in q):
            q[x % n][x] = 0.5
    experts = tuple(ExpertProfile.from_success_probs(i, row) for i, row in enumerate(q))
    lam = draw(st.floats(0.2, 0.95))
    inst = Instance(experts, ArrivalSpec(lam=lam, pmf=[_mass(draw, n_topics) for _ in range(n)]))
    if kind in ("work_conserving", "loss"):
        tie_break = draw(st.sampled_from(sorted(TIE_BREAKS)))
        if kind == "work_conserving":
            sched = work_conserving_single(inst, tie_break)
        else:
            mu = draw(st.lists(st.floats(0.0, 1.0), min_size=n_topics, max_size=n_topics))
            sched = offline_loss_scheduler(inst, LossPolicy(mu=mu, epsilon=0.0), tie_break)
    else:
        selection = draw(st.sampled_from(sorted(SELECTION_MODES)))
        if kind == "baseline":
            sched = mismatch_baseline(inst, selection)
        else:
            s = np.zeros((n, n_topics))
            for x in range(n_topics):
                answering = [i for i in range(n) if q[i][x] > 0]
                s[answering, x] = _mass(draw, len(answering))
            sched = offline_routing_scheduler(inst, RoutingPolicy(s=s), selection)
    horizon = draw(st.integers(1, 150))
    interval = draw(st.integers(1, 50))
    return SimConfig(inst, sched, horizon, draw(st.integers(0, 2**20)), interval)


class TestDriftRecord:
    @settings(max_examples=80, deadline=None)
    @given(config=recorded_configs())
    def test_matches_the_replayed_states_and_changes_nothing_else(self, config):
        plain = run(config)
        recorded = run(dataclasses.replace(config, record_lyapunov=True))
        assert plain.busy_moments is None
        assert recorded.busy_moments == drift_record(config)
        # Recording draws nothing: every other field is the plain run's.
        for field in dataclasses.fields(sim.QueueState):
            a, b = (getattr(s.final_state, field.name) for s in (recorded, plain))
            np.testing.assert_array_equal(a, b)
        skip = {"config", "busy_moments", "final_state"}
        for field in dataclasses.fields(sim.TraceStats):
            if field.name not in skip:
                a, b = getattr(recorded, field.name), getattr(plain, field.name)
                np.testing.assert_array_equal(a, b)


def generalist_instance(lam, n, n_topics, q=0.5):
    experts = tuple(
        ExpertProfile.from_success_probs(i, [q] * n_topics) for i in range(n)
    )
    pmf = [[1.0 / n_topics] * n_topics for _ in range(n)]
    return Instance(experts=experts, arrivals=ArrivalSpec(lam=lam, pmf=pmf))


def uniform_routing(inst):
    s = np.full((inst.n_experts, inst.n_topics), 1.0 / inst.n_experts)
    return offline_routing_scheduler(inst, RoutingPolicy(s=s))


class CountingGenerator:
    """Forwards ``random`` to a generator and records each draw's size."""

    def __init__(self, gen) -> None:
        self.gen = gen
        self.sizes: list = []

    def random(self, size=None):
        self.sizes.append(size)
        return self.gen.random(size)


class CountingBuffer(UniformBuffer):
    """A ``UniformBuffer`` over a ``CountingGenerator``, kept as ``counter``."""

    __slots__ = ("counter",)

    def __init__(self, gen) -> None:
        self.counter = CountingGenerator(gen)
        super().__init__(self.counter)


class TestArrivalBlocks:
    """Every pre-drawn block is sized by ``rng.DRAW_BLOCK_BYTES``; the split
    must not change a single draw."""

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
                    stats.samples,
                )
            ],
            stats.busy_moments,
        )

    @staticmethod
    def counting_streams(monkeypatch):
        """Make every RngStreams count its draws; returns the streams made."""
        made = []
        from_seed = RngStreams.from_seed

        def counted(seed):
            streams = from_seed(seed)
            streams.arrivals = CountingGenerator(streams.arrivals)
            made.append(streams)
            return streams

        # A buffer's refills hold its generator, so it is wrapped first.
        monkeypatch.setattr(rng, "UniformBuffer", CountingBuffer)
        monkeypatch.setattr(RngStreams, "from_seed", staticmethod(counted))
        return made

    @pytest.mark.parametrize("kind", ["single", "routing"])
    def test_block_size_does_not_change_the_trajectory(self, monkeypatch, kind):
        # The routing case selects request-weighted, so its routing,
        # selection and service streams all draw; the single case draws for
        # uniform-random selection and service.
        if kind == "single":
            inst = single_expert_instance(0.7, [0.5, 0.3, 0.2], [1.0, 0.5, 0.25])
            sched = work_conserving_single(inst, tie_break="uniform-random")
            streams_used = ("selection", "service")
        else:
            inst = generalist_instance(0.3, 3, 4)
            sched = uniform_routing(inst)
            streams_used = ("routing", "selection", "service")
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
        made = self.counting_streams(monkeypatch)
        # Budgets of one uniform per refill and one slot per arrival block,
        # of three uniforms per refill, and of three slots per arrival block.
        for budget in (1, 24, 3 * row_bytes):
            monkeypatch.setattr(rng, "DRAW_BLOCK_BYTES", budget)
            assert self.outcome(run(config)) == reference
            streams = made[-1]
            refill = max(1, budget // 8)
            for name in streams_used:
                sizes = getattr(streams, name).counter.sizes
                assert len(sizes) > 10 and set(sizes) == {refill}, name
            assert streams.admission.counter.sizes == []
            slots = max(1, budget // row_bytes)
            blocks = [size[0] for size in streams.arrivals.sizes]
            assert sum(blocks) == config.horizon
            assert set(blocks[:-1]) == {slots}

    def test_wide_run_peak_memory_is_bounded(self):
        # 32 experts x 50 topics: an arrival block of 2000 slots held 28.8 MB
        # of uniforms and hit mask; blocks of rng.DRAW_BLOCK_BYTES keep the
        # whole run small.
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

    def test_single_expert_sweep_cell_peak_memory_is_bounded(self):
        # A sweep-single cell above capacity: 60 000 slots at 1 x 2. Blocks of
        # 256 KiB of arrival uniforms and 8192-uniform refills peaked at
        # 1.68 MiB; the 32 KiB draw budget peaks at 0.41 MiB.
        inst = single_expert_instance(0.54, [0.6, 0.4], [0.5, 1 / 3.25])
        config = SimConfig(
            instance=inst,
            scheduler=work_conserving_single(inst, tie_break="longest-queue"),
            horizon=60_000,
            seed=3,
        )
        # A short run first, so one-time allocations are not counted.
        run(SimConfig(instance=inst, scheduler=config.scheduler, horizon=10, seed=3))
        tracemalloc.start()
        try:
            stats = run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.final_state.q.sum() > 0
        assert peak < 0.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_sampled_series_take_32_bytes_a_sample(self):
        # Four int64s a sample plus the array's growth room stay under 50
        # bytes; numpy reads them in place. A tuple per sample took 191.
        inst = single_expert_instance(0.5, [1.0], [1.0])
        config = SimConfig(inst, work_conserving_single(inst), 50_000, 2, sample_interval=1)
        run(SimConfig(inst, config.scheduler, 10, 2))  # one-time allocations
        tracemalloc.start()
        try:
            stats = run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.samples[:, 0].tolist() == list(range(50_001))
        assert stats.samples.nbytes == 32 * 50_001
        assert peak < 50 * 50_001, f"{peak / 50_001:.0f} bytes a sample"

    def test_drift_record_does_not_grow_with_the_topics(self):
        # The record is three integers per expert, so 4,000 topics add only
        # the engine's per-topic lists, not a (T + 1)^2 matrix (257 MB).
        def peak(topics):
            inst = single_expert_instance(0.3, [1 / topics] * topics, [0.5] * topics)
            config = SimConfig(
                instance=inst,
                scheduler=work_conserving_single(inst),
                horizon=500,
                seed=5,
                sample_interval=500,
                record_lyapunov=True,
            )
            tracemalloc.start()
            try:
                stats = run(config)
                return tracemalloc.get_traced_memory()[1], stats.empty_fraction
            finally:
                tracemalloc.stop()

        peak(10)  # one-time allocations
        (narrow, _), (wide, empty_fraction) = peak(10), peak(4_000)
        assert empty_fraction < 0.9  # the record saw work
        assert wide - narrow < 2 * 10**6, f"{narrow / 1e6:.2f} MB vs {wide / 1e6:.2f} MB"

    def test_drift_record_does_not_grow_with_the_horizon(self):
        # A record_lyapunov run keeps fixed-size busy-slot moments; a per-slot
        # record of 9 bytes a slot would add 3.6 MB at 400 000 slots. Sampling
        # only the first and the final state keeps the sampled series out.
        inst = single_expert_instance(0.3, [0.6, 0.4], [0.5, 1 / 3.25])
        sched = work_conserving_single(inst)

        def peak(horizon):
            config = SimConfig(
                instance=inst,
                scheduler=sched,
                horizon=horizon,
                seed=5,
                sample_interval=horizon,
                record_lyapunov=True,
            )
            tracemalloc.start()
            try:
                run(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # one-time allocations
        short, long = peak(4_000), peak(400_000)
        assert long - short < 10**6, f"{short / 1e6:.2f} MB vs {long / 1e6:.2f} MB"


class TestUniformBuffer:
    @pytest.mark.parametrize("budget", [None, 24])
    def test_next_replays_the_native_sequence(self, monkeypatch, budget):
        # Across several refills, one value at a time, the buffer returns
        # exactly what one draw of the whole length returns.
        if budget is not None:
            monkeypatch.setattr(rng, "DRAW_BLOCK_BYTES", budget)
        count = 3 * rng.block_rows() + 5
        buffer = UniformBuffer(np.random.default_rng(8))
        reference = np.random.default_rng(8).random(count).tolist()
        assert [buffer.next() for _ in range(count)] == reference

    def test_is_freed_without_the_cycle_collector(self):
        # Refills that held the buffer would form a reference cycle, and each
        # run's last block of 4096 floats would outlive it until a gc pass.
        gc.collect()
        buffer = UniformBuffer(np.random.default_rng(8))
        buffer.next()
        del buffer
        assert gc.collect() == 0


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
        assert len(lines) == 1 + len(stats.samples)

    def test_rows_are_written_one_at_a_time(self, tmp_path):
        # A whole-table tolist() of 2**18 rows takes about 56 MB.
        inst = single_expert_instance(0.5, [1.0], [1.0])
        stats = run(SimConfig(inst, work_conserving_single(inst), horizon=10, seed=1))
        samples = np.arange(4 * 2**18, dtype=np.int64).reshape(-1, 4)
        stats = dataclasses.replace(stats, samples=samples)
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            write_trace_csv(stats, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        with open(path, newline="") as fh:
            rows = [[int(v) for v in row] for row in list(csv.reader(fh))[1:]]
        assert rows == samples.tolist()
