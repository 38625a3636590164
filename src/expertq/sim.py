"""Discrete-time stochastic simulation of the expert queueing dynamics.

Each slot: (1) a topic-x request arrives at expert i with probability
``lam * p_i(x)``, independently across pairs and slots; (2) the scheduler
admits or rejects each arrival (rejections are counted at the door and
never enqueued) and routes admitted requests to a destination queue;
(3) every expert with non-empty queues serves exactly one queued request,
chosen by the scheduler; (4) the served request departs with the expert's
per-slot success probability for its topic, otherwise it returns to its
queue with no memory of the attempt. Arrivals are enqueued before service
selection, so a request can be served in its arrival slot.

Queues are unbounded counters per (topic, expert); instability shows up
as unbounded growth, never as overflow. A run is a pure function of its
config: identical seeds replay identical trajectories.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Instance, validate_instance
from .rng import RngStreams
from .sched import Scheduler

__all__ = [
    "SimConfig",
    "QueueState",
    "SlotEvents",
    "TraceStats",
    "initial_state",
    "step",
    "run",
    "geometric_service_check",
    "write_trace_csv",
]

# Bytes of float64 uniforms drawn for arrivals at once: 16384 slots at
# 1 expert x 2 topics, 20 slots at 32 x 50. Splitting the draws into
# blocks does not change them.
ARRIVAL_BLOCK_BYTES = 1 << 18
# Uniforms the geometric service check draws at once (512 KiB of float64).
GEOMETRIC_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs: instance, policy, horizon, seed.

    ``sample_interval`` spaces the recorded time series; exact time
    averages are accumulated every slot regardless. ``record_lyapunov``
    additionally stores per-slot service-weighted queue sums and busy
    flags per expert, which drift checks require.
    """

    instance: Instance
    scheduler: Scheduler
    horizon: int
    seed: int
    sample_interval: int = 100
    record_lyapunov: bool = False


@dataclass(frozen=True)
class QueueState:
    """Snapshot of all virtual queues plus flow counters.

    ``q[x, i]`` is the number of topic-x requests pending at expert i.
    ``cum_arrivals`` counts enqueues by destination queue, so per (x, i):
    cum_arrivals - cum_departures == q - q_at_reset. ``cum_losses`` counts
    door rejections at the expert where the request arrived.
    """

    q: np.ndarray
    t: int
    cum_arrivals: np.ndarray
    cum_departures: np.ndarray
    cum_losses: np.ndarray


@dataclass(frozen=True)
class SlotEvents:
    """Everything that happened in one slot, for auditing.

    ``arrivals``/``admitted``/``losses`` hold (topic, door_expert) pairs;
    ``enqueued`` holds (topic, destination_expert) pairs aligned with
    ``admitted``; ``assignments`` maps each expert to the topic served
    this slot or None; ``completions`` holds (topic, expert) departures.
    """

    arrivals: tuple
    admitted: tuple
    enqueued: tuple
    losses: tuple
    assignments: dict
    completions: tuple


@dataclass(frozen=True)
class TraceStats:
    """Metrics collected over one run.

    ``mean_queue`` and ``loss_rate`` are exact full-horizon time averages
    per expert; the ``*_final_quarter`` variants average the last quarter
    only, as a finite-run stand-in for the long-run limit. The sampled
    series record totals at slot starts every ``sample_interval`` slots
    plus the final state.
    """

    horizon: int
    sample_interval: int
    sample_times: np.ndarray
    total_queue_series: np.ndarray
    cum_loss_series: np.ndarray
    cum_departure_series: np.ndarray
    mean_queue: np.ndarray
    mean_queue_final_quarter: np.ndarray
    loss_rate: np.ndarray
    loss_rate_final_quarter: np.ndarray
    throughput: float
    empty_fraction: float
    empty_fraction_per_expert: np.ndarray
    lyapunov_series: np.ndarray | None
    busy_series: np.ndarray | None
    final_state: QueueState

    def summary(self) -> dict:
        return {
            "horizon": self.horizon,
            "mean_queue": self.mean_queue.tolist(),
            "mean_queue_final_quarter": self.mean_queue_final_quarter.tolist(),
            "loss_rate": self.loss_rate.tolist(),
            "loss_rate_final_quarter": self.loss_rate_final_quarter.tolist(),
            "throughput": self.throughput,
            "empty_fraction": self.empty_fraction,
            "empty_fraction_per_expert": self.empty_fraction_per_expert.tolist(),
        }


class _Engine:
    """Mutable run state, expert-major plain-Python lists for speed."""

    def __init__(
        self,
        inst: Instance,
        sched: Scheduler,
        streams: RngStreams,
        state: QueueState | None = None,
    ) -> None:
        self.sched = sched
        self.streams = streams
        self.n = inst.n_experts
        self.n_topics = inst.n_topics
        self.probs = np.ascontiguousarray(inst.arrivals.lam * inst.arrivals.pmf)
        self.qprob = [[float(v) for v in e.success_prob] for e in inst.experts]
        if state is None:
            self.t = 0
            self.queues = [[0] * self.n_topics for _ in range(self.n)]
            self.cum_arr = [[0] * self.n_topics for _ in range(self.n)]
            self.cum_dep = [[0] * self.n_topics for _ in range(self.n)]
            self.cum_loss = [[0] * self.n_topics for _ in range(self.n)]
        else:
            self.t = state.t
            self.queues = state.q.T.astype(np.int64).tolist()
            self.cum_arr = state.cum_arrivals.T.astype(np.int64).tolist()
            self.cum_dep = state.cum_departures.T.astype(np.int64).tolist()
            self.cum_loss = state.cum_losses.T.astype(np.int64).tolist()
        self.totals = [sum(row) for row in self.queues]
        self.losses_total = sum(sum(row) for row in self.cum_loss)
        self.deps_total = sum(sum(row) for row in self.cum_dep)

    def snapshot(self) -> QueueState:
        def pack(rows):
            arr = np.array(rows, dtype=np.int64).T
            arr.setflags(write=False)
            return arr

        return QueueState(
            q=pack(self.queues),
            t=self.t,
            cum_arrivals=pack(self.cum_arr),
            cum_departures=pack(self.cum_dep),
            cum_losses=pack(self.cum_loss),
        )

    def advance(self, slot_arrivals, events_out=None) -> None:
        """Play out one slot given its (door_expert, topic) arrival list."""
        sched = self.sched
        streams = self.streams
        queues = self.queues
        totals = self.totals
        collect = events_out is not None
        if collect:
            ev_arr, ev_adm, ev_enq, ev_loss, ev_cmp = [], [], [], [], []
            ev_asg: dict = {}
        for i, x in slot_arrivals:
            if collect:
                ev_arr.append((x, i))
            if sched.admit(x, i, streams):
                j = sched.route(x, i, streams)
                queues[j][x] += 1
                totals[j] += 1
                self.cum_arr[j][x] += 1
                if collect:
                    ev_adm.append((x, i))
                    ev_enq.append((x, j))
            else:
                self.cum_loss[i][x] += 1
                self.losses_total += 1
                if collect:
                    ev_loss.append((x, i))
        service = self.streams.service
        for i in range(self.n):
            if totals[i] == 0:
                if collect:
                    ev_asg[i] = None
                continue
            x = sched.select(i, queues[i], totals[i], streams)
            if collect:
                ev_asg[i] = x
            if service.next() < self.qprob[i][x]:
                queues[i][x] -= 1
                totals[i] -= 1
                self.cum_dep[i][x] += 1
                self.deps_total += 1
                if collect:
                    ev_cmp.append((x, i))
        self.t += 1
        if collect:
            events_out.append(
                SlotEvents(
                    arrivals=tuple(ev_arr),
                    admitted=tuple(ev_adm),
                    enqueued=tuple(ev_enq),
                    losses=tuple(ev_loss),
                    assignments=ev_asg,
                    completions=tuple(ev_cmp),
                )
            )


def initial_state(inst: Instance) -> QueueState:
    """The empty system at t = 0."""
    zeros = np.zeros((inst.n_topics, inst.n_experts), dtype=np.int64)
    zeros.setflags(write=False)
    return QueueState(
        q=zeros, t=0, cum_arrivals=zeros, cum_departures=zeros, cum_losses=zeros
    )


def step(
    state: QueueState, inst: Instance, sched: Scheduler, streams: RngStreams
) -> tuple[QueueState, SlotEvents]:
    """Advance one slot and report everything that happened.

    Consumes the streams in exactly the same order as :func:`run`, so a
    sequence of steps from the same seed replays the same trajectory.
    """
    sched.compatible_with(inst)
    engine = _Engine(inst, sched, streams, state=state)
    u = streams.arrivals.random((1, inst.n_experts, inst.n_topics))
    exp_idx, top_idx = np.nonzero(u[0] < engine.probs)
    events: list[SlotEvents] = []
    engine.advance(list(zip(exp_idx.tolist(), top_idx.tolist())), events_out=events)
    return engine.snapshot(), events[0]


def run(config: SimConfig) -> TraceStats:
    """Simulate the configured horizon and collect metrics.

    Raises ValueError before slot 0 on an invalid instance, an
    incompatible scheduler, or nonsensical horizon/sampling settings.
    """
    inst = config.instance
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    if config.horizon < 1:
        raise ValueError("horizon must be at least 1")
    if config.sample_interval < 1:
        raise ValueError("sample_interval must be at least 1")
    config.scheduler.compatible_with(inst)

    streams = RngStreams.from_seed(config.seed)
    engine = _Engine(inst, config.scheduler, streams)
    n = engine.n
    horizon = config.horizon
    interval = config.sample_interval

    quarter_len = max(1, horizon // 4)
    quarter_start = horizon - quarter_len
    queue_sum = [0] * n
    queue_sum_quarter = [0] * n
    loss_at_quarter = [0] * n
    empty_slots = 0
    empty_per_expert = [0] * n
    sample_times: list[int] = []
    sample_queue: list[int] = []
    sample_loss: list[int] = []
    sample_dep: list[int] = []

    record = config.record_lyapunov
    if record:
        weights = [
            [(1.0 / qv if qv > 0.0 else 0.0) for qv in row] for row in engine.qprob
        ]

        def lyapunov_row() -> list[float]:
            return [
                sum(wrow[x] * row[x] for x in range(n_topics) if row[x])
                for row, wrow in zip(engine.queues, weights)
            ]

        lyap = np.empty((horizon + 1, n), dtype=np.float64)
        busy = np.empty((horizon, n), dtype=bool)

    arrivals_gen = streams.arrivals
    probs = engine.probs
    n_topics = engine.n_topics
    block_rows = max(1, ARRIVAL_BLOCK_BYTES // (8 * n * n_topics))
    done = 0
    while done < horizon:
        block = min(block_rows, horizon - done)
        hits = arrivals_gen.random((block, n, n_topics)) < probs[None, :, :]
        slot_idx, exp_idx, top_idx = np.nonzero(hits)
        slot_l = slot_idx.tolist()
        exp_l = exp_idx.tolist()
        top_l = top_idx.tolist()
        ptr = 0
        n_hits = len(slot_l)
        for s in range(block):
            t_abs = done + s
            totals = engine.totals
            if t_abs % interval == 0:
                sample_times.append(t_abs)
                sample_queue.append(sum(totals))
                sample_loss.append(engine.losses_total)
                sample_dep.append(engine.deps_total)
            if t_abs == quarter_start:
                loss_at_quarter = [sum(row) for row in engine.cum_loss]
            system_empty = True
            for i in range(n):
                if totals[i] == 0:
                    empty_per_expert[i] += 1
                else:
                    system_empty = False
            if system_empty:
                empty_slots += 1
            if record:
                lyap[t_abs] = lyapunov_row()
                busy[t_abs] = [v > 0 for v in totals]
            slot_arrivals = []
            while ptr < n_hits and slot_l[ptr] == s:
                slot_arrivals.append((exp_l[ptr], top_l[ptr]))
                ptr += 1
            engine.advance(slot_arrivals)
            totals = engine.totals
            for i in range(n):
                queue_sum[i] += totals[i]
            if t_abs >= quarter_start:
                for i in range(n):
                    queue_sum_quarter[i] += totals[i]
        done += block

    sample_times.append(horizon)
    sample_queue.append(sum(engine.totals))
    sample_loss.append(engine.losses_total)
    sample_dep.append(engine.deps_total)
    if record:
        lyap[horizon] = lyapunov_row()

    loss_per_expert = np.array([sum(row) for row in engine.cum_loss], dtype=np.float64)
    loss_quarter = loss_per_expert - np.array(loss_at_quarter, dtype=np.float64)

    return TraceStats(
        horizon=horizon,
        sample_interval=interval,
        sample_times=np.array(sample_times, dtype=np.int64),
        total_queue_series=np.array(sample_queue, dtype=np.int64),
        cum_loss_series=np.array(sample_loss, dtype=np.int64),
        cum_departure_series=np.array(sample_dep, dtype=np.int64),
        mean_queue=np.array(queue_sum, dtype=np.float64) / horizon,
        mean_queue_final_quarter=np.array(queue_sum_quarter, dtype=np.float64)
        / quarter_len,
        loss_rate=loss_per_expert / horizon,
        loss_rate_final_quarter=loss_quarter / quarter_len,
        throughput=engine.deps_total / horizon,
        empty_fraction=empty_slots / horizon,
        empty_fraction_per_expert=np.array(empty_per_expert, dtype=np.float64)
        / horizon,
        lyapunov_series=lyap if record else None,
        busy_series=busy if record else None,
        final_state=engine.snapshot(),
    )


def geometric_service_check(
    q_val: float, trials: int, rng: np.random.Generator
) -> float:
    """Empirical mean slots-to-completion under per-slot success draws.

    Runs ``trials`` independent requests, each retried slot by slot until
    its uniform draw lands below ``q_val``; returns the average number of
    slots consumed. Should match 1/q within a few standard errors of the
    geometric distribution. Each round draws its uniforms in blocks of
    ``GEOMETRIC_BLOCK``, which does not change them, so memory does not
    grow with ``trials``.
    """
    if not (0.0 < q_val <= 1.0):
        raise ValueError("per-slot success probability must lie in (0, 1]")
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    alive = trials
    slots_used = 0
    max_rounds = int(200.0 / q_val) + 200
    for _ in range(max_rounds):
        if alive == 0:
            break
        slots_used += alive
        failures = 0
        for start in range(0, alive, GEOMETRIC_BLOCK):
            draws = rng.random(min(GEOMETRIC_BLOCK, alive - start))
            failures += int(np.count_nonzero(draws >= q_val))
        alive = failures
    if alive:
        raise RuntimeError("service check failed to terminate; q too small")
    return slots_used / trials


def write_trace_csv(stats: TraceStats, path: str | Path) -> None:
    """Sampled series as CSV with columns t, total_queue, cum_loss,
    cum_departures."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "total_queue", "cum_loss", "cum_departures"])
        for row in zip(
            stats.sample_times,
            stats.total_queue_series,
            stats.cum_loss_series,
            stats.cum_departure_series,
        ):
            writer.writerow([int(v) for v in row])
