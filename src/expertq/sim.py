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
config: identical seeds replay identical trajectories, and :func:`steps`
replays the trajectory of :func:`run` slot by slot, with every event.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Instance
from .rng import RngStreams, block_rows
from .sched import Scheduler

__all__ = [
    "SimConfig",
    "QueueState",
    "SlotEvents",
    "TraceStats",
    "steps",
    "run",
    "write_trace_csv",
]


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs: instance, policy, horizon, seed.

    ``sample_interval`` spaces the recorded time series; exact time
    averages are accumulated every slot regardless. ``record_lyapunov``
    additionally keeps, per expert, the integer moments of the queue
    changes over busy slots that drift checks need. The instance checked
    itself when it was built; this raises ValueError on a scheduler built
    for another shape, a negative seed, or a horizon or sample interval
    below 1.
    """

    instance: Instance
    scheduler: Scheduler
    horizon: int
    seed: int
    sample_interval: int = 100
    record_lyapunov: bool = False

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.sample_interval < 1:
            raise ValueError("sample_interval must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        inst, sched = self.instance, self.scheduler
        if (inst.n_experts, inst.n_topics) != (sched.n_experts, sched.n_topics):
            raise ValueError(
                f"scheduler built for {sched.n_experts} experts x "
                f"{sched.n_topics} topics, instance has {inst.n_experts} x "
                f"{inst.n_topics}"
            )


@dataclass(frozen=True)
class QueueState:
    """Snapshot of all virtual queues plus flow counters.

    ``q[x, i]`` is the number of topic-x requests pending at expert i.
    ``cum_arrivals`` counts enqueues by destination queue; every run starts
    empty, so the engine derives it as q + cum_departures per (x, i).
    ``cum_losses`` counts door rejections at the expert where they arrived.
    ``cum_attempts`` counts service attempts, one per busy expert-slot, at
    the (topic, expert) served.
    """

    q: np.ndarray
    t: int
    cum_arrivals: np.ndarray
    cum_departures: np.ndarray
    cum_losses: np.ndarray
    cum_attempts: np.ndarray


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
    """Metrics collected over one run of ``config``.

    ``mean_queue`` and ``loss_rate`` are exact full-horizon time averages
    per expert; the ``*_final_quarter`` variants average the last quarter
    only, as a finite-run stand-in for the long-run limit. The sampled
    series record totals at slot starts every ``sample_interval`` slots
    plus the final state. With ``record_lyapunov``, ``busy_moments[i]``
    sums e e^T, e = (1, d_1, ..., d_T), over the slots that start with work
    at expert i, d_x being queue x's change: the count N at [0, 0], S1_x at
    [0, x] and S2_xy at [x, y]. Its size does not depend on the horizon.
    """

    config: SimConfig
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
    busy_moments: np.ndarray | None
    final_state: QueueState

    def summary(self) -> dict:
        return {
            "horizon": self.config.horizon,
            "mean_queue": self.mean_queue.tolist(),
            "mean_queue_final_quarter": self.mean_queue_final_quarter.tolist(),
            "loss_rate": self.loss_rate.tolist(),
            "loss_rate_final_quarter": self.loss_rate_final_quarter.tolist(),
            "throughput": self.throughput,
            "empty_fraction": self.empty_fraction,
            "empty_fraction_per_expert": self.empty_fraction_per_expert.tolist(),
        }


class _Engine:
    """Mutable run state from the empty system at t = 0, expert-major
    plain-Python lists for speed."""

    def __init__(self, inst: Instance, sched: Scheduler, streams: RngStreams) -> None:
        self.sched = sched
        self.streams = streams
        self.n = n = inst.n_experts
        self.n_topics = n_topics = inst.n_topics
        self.probs = np.ascontiguousarray(inst.arrivals.lam * inst.arrivals.pmf)
        self.qprob = [[float(v) for v in e.success_prob] for e in inst.experts]
        self.t = 0
        self.queues = [[0] * n_topics for _ in range(n)]
        self.cum_dep = [[0] * n_topics for _ in range(n)]
        self.cum_loss = [[0] * n_topics for _ in range(n)]
        self.cum_att = [[0] * n_topics for _ in range(n)]
        self.totals = [0] * n
        self.losses_total = 0
        self.deps_total = 0

    def snapshot(self) -> QueueState:
        def pack(rows):
            arr = np.array(rows, dtype=np.int64).T
            arr.setflags(write=False)
            return arr

        q, cum_dep = pack(self.queues), pack(self.cum_dep)
        cum_arr = q + cum_dep
        cum_arr.setflags(write=False)
        return QueueState(
            q=q,
            t=self.t,
            cum_arrivals=cum_arr,
            cum_departures=cum_dep,
            cum_losses=pack(self.cum_loss),
            cum_attempts=pack(self.cum_att),
        )

    def advance(self, slot_arrivals) -> None:
        """Play out one slot given its (door_expert, topic) arrival list."""
        sched = self.sched
        streams = self.streams
        queues = self.queues
        totals = self.totals
        for i, x in slot_arrivals:
            if sched.admit(x, i, streams):
                j = sched.route(x, i, streams)
                queues[j][x] += 1
                totals[j] += 1
            else:
                self.cum_loss[i][x] += 1
                self.losses_total += 1
        service = self.streams.service
        cum_att = self.cum_att
        for i in range(self.n):
            if totals[i] == 0:
                continue
            x = sched.select(i, queues[i], totals[i], streams)
            cum_att[i][x] += 1
            if service.next() < self.qprob[i][x]:
                queues[i][x] -= 1
                totals[i] -= 1
                self.cum_dep[i][x] += 1
                self.deps_total += 1
        self.t += 1

    def arrivals(self, horizon: int) -> Iterator[list[tuple[int, int]]]:
        """The (door_expert, topic) arrival list of each of ``horizon`` slots,
        in expert-major order. Each block of uniforms, (slots, experts,
        topics), fills ``rng.DRAW_BLOCK_BYTES``: 2048 slots at 1 expert x 2
        topics, 85 at 4 x 12, 2 at 32 x 50. Only its hits' flat index lists
        are kept, and walked one slot at a time."""
        n, n_topics = self.n, self.n_topics
        rows = block_rows(8 * n * n_topics)
        for done in range(0, horizon, rows):
            block = min(rows, horizon - done)
            u = self.streams.arrivals.random((block, n, n_topics))
            slot_l, exp_l, top_l = [idx.tolist() for idx in np.nonzero(u < self.probs)]
            del u
            ptr, n_hits = 0, len(slot_l)
            for s in range(block):
                slot_arrivals = []
                while ptr < n_hits and slot_l[ptr] == s:
                    slot_arrivals.append((exp_l[ptr], top_l[ptr]))
                    ptr += 1
                yield slot_arrivals


class _Recorder:
    """Forwards one slot's decisions to a scheduler and records them."""

    def __init__(self, sched: Scheduler, n_experts: int) -> None:
        self.sched = sched
        self.arrivals: list[tuple[int, int]] = []
        self.admitted: list[tuple[int, int]] = []
        self.enqueued: list[tuple[int, int]] = []
        self.losses: list[tuple[int, int]] = []
        self.assignments: dict = dict.fromkeys(range(n_experts))

    def admit(self, topic: int, door_expert: int, streams: RngStreams) -> bool:
        self.arrivals.append((topic, door_expert))
        admitted = self.sched.admit(topic, door_expert, streams)
        (self.admitted if admitted else self.losses).append((topic, door_expert))
        return admitted

    def route(self, topic: int, door_expert: int, streams: RngStreams) -> int:
        dest = self.sched.route(topic, door_expert, streams)
        self.enqueued.append((topic, dest))
        return dest

    def select(self, expert: int, queue_row: list[int], total: int, streams) -> int:
        topic = self.sched.select(expert, queue_row, total, streams)
        self.assignments[expert] = topic
        return topic


def steps(config: SimConfig) -> Iterator[tuple[QueueState, SlotEvents]]:
    """Replay ``run(config)`` slot by slot: the state after each of
    ``config.horizon`` slots and everything that happened in it.

    One engine plays the whole horizon on the streams of ``config.seed``,
    so the trajectory is exactly that of :func:`run`. Each slot's decisions
    pass through a fresh recorder; the scheduler itself is left unchanged.
    """
    sched = config.scheduler
    engine = _Engine(config.instance, sched, RngStreams.from_seed(config.seed))
    before = engine.snapshot()
    for slot_arrivals in engine.arrivals(config.horizon):
        recorder = engine.sched = _Recorder(sched, engine.n)
        engine.advance(slot_arrivals)
        after = engine.snapshot()
        # Each expert completes at most one request per slot, so the nonzero
        # entries list the completions in expert order.
        done_exp, done_top = np.nonzero((after.cum_departures - before.cum_departures).T)
        yield after, SlotEvents(
            arrivals=tuple(recorder.arrivals),
            admitted=tuple(recorder.admitted),
            enqueued=tuple(recorder.enqueued),
            losses=tuple(recorder.losses),
            assignments=recorder.assignments,
            completions=tuple(zip(done_top.tolist(), done_exp.tolist())),
        )
        before = after


def run(config: SimConfig) -> TraceStats:
    """Simulate the configured horizon and collect metrics."""
    engine = _Engine(config.instance, config.scheduler, RngStreams.from_seed(config.seed))
    n = engine.n
    horizon = config.horizon
    interval = config.sample_interval

    quarter_len = max(1, horizon // 4)
    quarter_start = horizon - quarter_len
    queue_sum = [0] * n
    queue_at_quarter = [0] * n
    loss_at_quarter = [0] * n
    empty_slots = 0
    empty_per_expert = [0] * n
    sample_times: list[int] = []
    sample_queue: list[int] = []
    sample_loss: list[int] = []
    sample_dep: list[int] = []

    n_topics = engine.n_topics
    record = config.record_lyapunov
    # Per expert, the sum over busy slots of e e^T with e = (1, d_1..d_T).
    width = n_topics + 1
    moments = [[[0] * width for _ in range(width)] for _ in range(n)] if record else None
    busy = ()
    for t_abs, slot_arrivals in enumerate(engine.arrivals(horizon)):
        totals = engine.totals
        if t_abs % interval == 0:
            sample_times.append(t_abs)
            sample_queue.append(sum(totals))
            sample_loss.append(engine.losses_total)
            sample_dep.append(engine.deps_total)
        # Slot-start totals here and the final ones after the loop: run
        # starts empty, so queue_sum is the sum of the slot-end totals.
        for i, total in enumerate(totals):
            if total:
                queue_sum[i] += total
            else:
                empty_per_expert[i] += 1
        if not any(totals):
            empty_slots += 1
        if t_abs == quarter_start:
            queue_at_quarter = list(queue_sum)
            loss_at_quarter = [sum(row) for row in engine.cum_loss]
        if record:
            # Busy experts' live queue rows, slot-start copies and moments.
            busy = [(r, r[:], m) for r, m, v in zip(engine.queues, moments, totals) if v]
        engine.advance(slot_arrivals)
        for row, before, m in busy:
            if row == before:  # nothing changed: e = (1, 0, ..., 0)
                m[0][0] += 1
                continue
            e = [(0, 1)]
            e += [(x, a - b) for x, (a, b) in enumerate(zip(row, before), 1) if a != b]
            for a, da in e:
                for b, db in e:
                    m[a][b] += da * db

    for i, total in enumerate(engine.totals):
        queue_sum[i] += total
    sample_times.append(horizon)
    sample_queue.append(sum(engine.totals))
    sample_loss.append(engine.losses_total)
    sample_dep.append(engine.deps_total)

    loss_per_expert = np.array([sum(row) for row in engine.cum_loss], dtype=np.float64)
    loss_quarter = loss_per_expert - np.array(loss_at_quarter, dtype=np.float64)

    return TraceStats(
        config=config,
        sample_times=np.array(sample_times, dtype=np.int64),
        total_queue_series=np.array(sample_queue, dtype=np.int64),
        cum_loss_series=np.array(sample_loss, dtype=np.int64),
        cum_departure_series=np.array(sample_dep, dtype=np.int64),
        mean_queue=np.array(queue_sum, dtype=np.float64) / horizon,
        mean_queue_final_quarter=np.array(
            [a - b for a, b in zip(queue_sum, queue_at_quarter)], dtype=np.float64
        )
        / quarter_len,
        loss_rate=loss_per_expert / horizon,
        loss_rate_final_quarter=loss_quarter / quarter_len,
        throughput=engine.deps_total / horizon,
        empty_fraction=empty_slots / horizon,
        empty_fraction_per_expert=np.array(empty_per_expert, dtype=np.float64)
        / horizon,
        busy_moments=np.array(moments, dtype=np.int64) if record else None,
        final_state=engine.snapshot(),
    )


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


# Not API: the benchmark launcher still looks this name up to mark where
# verify-quad's set-up ends.
geometric_service_check = run
