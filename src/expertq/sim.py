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
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .model import Instance, checked
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


# The samples table holds 32 bytes a sample: 128 MiB at the cap.
MAX_SAMPLES = 2**22
# Slots between samples unless a run says otherwise.
SAMPLE_INTERVAL = 100


def check_sample_count(horizon: int, sample_interval: int) -> None:
    """Raise ValueError if a run of ``horizon`` slots sampled every
    ``sample_interval`` would keep more than ``MAX_SAMPLES`` samples."""
    samples = horizon // sample_interval + 2
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"horizon {horizon} at sample_interval {sample_interval} keeps "
            f"{samples} samples, over the cap of {MAX_SAMPLES}; raise sample_interval"
        )


@dataclass(frozen=True)
class SimConfig:
    """Everything one run needs: instance, policy, horizon, seed.

    ``sample_interval`` spaces the recorded samples; exact time averages
    are accumulated every slot regardless. The samples table keeps at most
    ``horizon // sample_interval + 2`` samples, which may not exceed
    ``MAX_SAMPLES``. ``record_lyapunov`` additionally keeps, per expert, the
    three integers over busy slots that drift checks need. The instance
    checked itself when it was built; this raises ValueError on a horizon or
    sample interval that is not a positive integer, a seed that is not a
    non-negative one (``bool`` is neither), too many samples, or a scheduler
    built for another shape. Integral floats are kept as ints.
    """

    instance: Instance
    scheduler: Scheduler
    horizon: int
    seed: int
    sample_interval: int = SAMPLE_INTERVAL
    record_lyapunov: bool = False

    def __post_init__(self) -> None:
        for name, kind in (("horizon", "count"), ("sample_interval", "count"), ("seed", "seed")):
            object.__setattr__(self, name, checked(getattr(self, name), kind, name))
        check_sample_count(self.horizon, self.sample_interval)
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
    """Everything that happened in one slot, for auditing, as :func:`steps`
    reads it from the engine's counters and destination list.

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

    Exact time averages per expert: ``mean_queue`` of the slot-end queue
    totals, ``loss_rate`` of door rejections; the ``*_final_quarter``
    variants average the last ``max(1, horizon // 4)`` slots only, as a
    finite-run stand-in for the long-run limit. The empty fractions count
    the slots that start empty; every run starts empty. ``samples`` is an
    int64 table of shape (k, 4), the rows ``trace.csv`` writes: (t,
    total_queue, cum_loss, cum_departures) at slot starts every
    ``sample_interval`` slots, then at the final state. With
    ``record_lyapunov``, ``busy_moments[i]`` is (N, sum dL, sum dL^2) over
    the N slots that start with work at expert i, where dL = sum_x W_x d_x,
    d_x is queue x's change over the slot and W_x = fl(1/q_x) * 2**52 (0
    where q_x = 0). Every double >= 1 is a multiple of 2**-52, so each W_x,
    and the record, is an exact integer; three per expert, whatever the
    horizon and the number of topics. The engine keeps it as it plays each
    enqueue (dL += W) and completion (dL -= W), copying no queue row.
    """

    config: SimConfig
    samples: np.ndarray
    mean_queue: np.ndarray
    mean_queue_final_quarter: np.ndarray
    loss_rate: np.ndarray
    loss_rate_final_quarter: np.ndarray
    throughput: float
    empty_fraction: float
    empty_fraction_per_expert: np.ndarray
    busy_moments: tuple[tuple[int, int, int], ...] | None
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
    """Mutable run state from the empty system at t = 0 on ``seed``'s streams,
    expert-major plain-Python lists for speed; with ``record``, also the drift
    record (``moments``), kept as each enqueue (+W) and completion (-W) plays.
    Its counters, and the destinations ``advance`` lists when asked, are all
    :func:`steps` needs to tell each slot's events."""

    def __init__(self, inst: Instance, sched: Scheduler, seed: int, record=False) -> None:
        self.sched = sched
        self.streams = RngStreams.from_seed(seed)
        self.n = n = inst.n_experts
        self.n_topics = n_topics = inst.n_topics
        self.probs = np.ascontiguousarray(inst.arrivals.lam * inst.arrivals.pmf)
        self.qprob = qprob = [[float(v) for v in e.success_prob] for e in inst.experts]
        self.weights = self.moments = None  # per expert, W and (N, sum dL, sum dL^2)
        if record:
            self.weights = [[int(Fraction(1.0 / v) * 2**52) if v else 0 for v in q] for q in qprob]
            self.moments = [[0, 0, 0] for _ in range(n)]
        self.t = 0
        self.queues = [[0] * n_topics for _ in range(n)]
        self.cum_dep = [[0] * n_topics for _ in range(n)]
        self.cum_loss = [[0] * n_topics for _ in range(n)]
        self.cum_att = [[0] * n_topics for _ in range(n)]
        self.totals = [0] * n
        # Per expert, the sum of slot-end totals and the slot ends that left
        # it empty; then the slot ends that left every expert empty.
        self.area, self.idle, self.idle_slots = [0] * n, [0] * n, 0
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

    def advance(self, slot_arrivals, dests: list[int] | None) -> None:
        """Play out one slot given its (door_expert, topic) arrival list,
        appending each admitted arrival's destination to ``dests`` unless None."""
        sched, streams, queues = self.sched, self.streams, self.queues
        totals = self.totals
        if weights := self.weights:  # the experts busy at slot start, and each one's dL
            busy, step = [i for i, v in enumerate(totals) if v], [0] * self.n
        for i, x in slot_arrivals:
            if sched.admit(x, i, streams):
                j = sched.route(x, i, streams)
                queues[j][x] += 1
                totals[j] += 1
                if weights:
                    step[j] += weights[j][x]
                if dests is not None:
                    dests.append(j)
            else:
                self.cum_loss[i][x] += 1
                self.losses_total += 1
        service = streams.service
        cum_att, area, idle = self.cum_att, self.area, self.idle
        empty = 0
        for i in range(self.n):
            total = totals[i]
            if total:
                x = sched.select(i, queues[i], total, streams)
                cum_att[i][x] += 1
                if service.next() < self.qprob[i][x]:
                    queues[i][x] -= 1
                    totals[i] = total = total - 1
                    self.cum_dep[i][x] += 1
                    self.deps_total += 1
                    if weights:
                        step[i] -= weights[i][x]
            area[i] += total
            if not total:
                idle[i] += 1
                empty += 1
        self.idle_slots += empty == self.n
        self.t += 1
        if weights:
            for i in busy:
                m, d = self.moments[i], step[i]
                m[0], m[1], m[2] = m[0] + 1, m[1] + d, m[2] + d * d

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


def steps(config: SimConfig) -> Iterator[tuple[QueueState, SlotEvents]]:
    """Replay ``run(config)`` slot by slot: the state after each of
    ``config.horizon`` slots and everything that happened in it.

    One engine plays the whole horizon on the streams of ``config.seed``,
    so the trajectory is exactly that of :func:`run`. Each slot's events are
    the change in the engine's counters over it, with the destinations
    ``advance`` lists; no scheduler method is wrapped or replaced.
    """
    engine = _Engine(config.instance, config.scheduler, config.seed)
    before = engine.snapshot()
    for slot_arrivals in engine.arrivals(config.horizon):
        dests: list[int] = []
        engine.advance(slot_arrivals, dests)
        after = engine.snapshot()
        # A (topic, door) pair arrives at most once a slot, and a busy expert
        # makes one attempt and at most one completion: each change is one event.
        lost = (after.cum_losses - before.cum_losses).tolist()
        arrivals = [(x, i) for i, x in slot_arrivals]
        admitted = [(x, i) for x, i in arrivals if not lost[x][i]]
        assignments = dict.fromkeys(range(engine.n))
        tried_exp, tried_top = np.nonzero((after.cum_attempts - before.cum_attempts).T)
        assignments.update(zip(tried_exp.tolist(), tried_top.tolist()))
        done_exp, done_top = np.nonzero((after.cum_departures - before.cum_departures).T)
        yield after, SlotEvents(
            arrivals=tuple(arrivals),
            admitted=tuple(admitted),
            enqueued=tuple((x, j) for (x, _), j in zip(admitted, dests)),
            losses=tuple((x, i) for x, i in arrivals if lost[x][i]),
            assignments=assignments,
            completions=tuple(zip(done_top.tolist(), done_exp.tolist())),
        )
        before = after


def run(config: SimConfig) -> TraceStats:
    """Simulate the configured horizon and collect metrics."""
    engine = _Engine(config.instance, config.scheduler, config.seed, config.record_lyapunov)
    horizon = config.horizon
    interval = config.sample_interval

    quarter_len = max(1, horizon // 4)
    quarter_start = horizon - quarter_len  # in [0, horizon), so the loop reaches it
    samples = array("q")  # (t, queue, cum loss, cum departures) per sample, flat

    for t_abs, slot_arrivals in enumerate(engine.arrivals(horizon)):
        if t_abs % interval == 0:
            samples.extend((t_abs, sum(engine.totals), engine.losses_total, engine.deps_total))
        if t_abs == quarter_start:
            area_at_quarter = list(engine.area)
            loss_at_quarter = [sum(row) for row in engine.cum_loss]
        engine.advance(slot_arrivals, None)

    totals = engine.totals
    samples.extend((horizon, sum(totals), engine.losses_total, engine.deps_total))

    loss_per_expert = np.array([sum(row) for row in engine.cum_loss], dtype=np.float64)
    loss_quarter = loss_per_expert - np.array(loss_at_quarter, dtype=np.float64)

    return TraceStats(
        config=config,
        samples=np.frombuffer(samples, dtype=np.int64).reshape(-1, 4),
        mean_queue=np.array(engine.area, dtype=np.float64) / horizon,
        mean_queue_final_quarter=np.array(
            [a - b for a, b in zip(engine.area, area_at_quarter)], dtype=np.float64
        )
        / quarter_len,
        loss_rate=loss_per_expert / horizon,
        loss_rate_final_quarter=loss_quarter / quarter_len,
        throughput=engine.deps_total / horizon,
        # Slot 0 starts empty and slot t as slot t - 1 ended, so the slots that
        # start empty are slot 0 and those after an empty end but the last.
        empty_fraction=(1 + engine.idle_slots - (not any(totals))) / horizon,
        empty_fraction_per_expert=np.array(
            [1 + idle - (not total) for idle, total in zip(engine.idle, totals)], dtype=np.float64
        )
        / horizon,
        busy_moments=tuple(map(tuple, engine.moments)) if engine.moments else None,
        final_state=engine.snapshot(),
    )


def write_trace_csv(stats: TraceStats, path: str | Path) -> None:
    """``stats.samples`` as CSV under its column names, one row at a time:
    a whole-table ``tolist()`` would take 224 bytes a sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "total_queue", "cum_loss", "cum_departures"])
        writer.writerows(row.tolist() for row in stats.samples)


# Not API: the benchmark launcher still looks this name up to mark where
# verify-quad's set-up ends.
geometric_service_check = run
