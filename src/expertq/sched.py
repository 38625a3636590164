"""Scheduling policies: admission, routing, and per-slot service selection.

A scheduler is the stationary randomized policy of the model held as data:
admission probabilities ``mu[x]``, a routing matrix ``s[i, x]`` and a
selection rule. All randomness comes from the per-run streams handed in at
each decision, so scheduler objects can be shared freely across concurrent
runs. Policies are memoryless: decisions may read current queue lengths and
the fixed tables, never per-request history. :func:`build_scheduler`
reads one from a config's ``scheduler`` object.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .capacity import LossPolicy, RoutingPolicy, loss_capacity, multi_capacity_dual
from .capacity import routing_policy_violations
from .model import Instance, config_block, config_field, merged_pmf
from .rng import RngStreams

__all__ = [
    "CertificateError",
    "Scheduler",
    "build_scheduler",
    "work_conserving_single",
    "offline_loss_scheduler",
    "offline_routing_scheduler",
    "mismatch_baseline",
]

# The names each constructor accepts and the selection rule each names;
# uniform_random and topic_uniform name the same rule.
TIE_BREAKS = {"arbitrary": "first", "uniform_random": "uniform", "longest_queue": "longest"}
SELECTION_MODES = {"request_weighted": "weighted", "topic_uniform": "uniform"}
RULES = ("first", "longest", "uniform", "weighted")
# The scheduler config fields that give those names, and what each name is called.
_NAME_FIELDS = {
    "tie_break": (TIE_BREAKS, "tie break"),
    "selection": (SELECTION_MODES, "selection mode"),
}
# Per scheduler kind, the (_KINDS kind, default) of each field it takes besides "kind".
_TIE_BREAK, _SELECTION = ("string", "arbitrary"), ("string", "request_weighted")
SCHEDULER_FIELDS = {
    "work_conserving": {"tie_break": _TIE_BREAK},
    "loss": {"tie_break": _TIE_BREAK, "mu": ("fractions", None), "epsilon": ("budget", None)},
    "routing": {"s": ("rows", None), "selection": _SELECTION},
    "baseline": {"selection": _SELECTION},
}


class CertificateError(Exception):
    """A scheduler needs a certificate that is neither given nor computable."""


def _rule(name: str, allowed: dict[str, str], what: str) -> str:
    norm = name.replace("-", "_") if isinstance(name, str) else None
    if norm not in allowed:
        raise ValueError(f"unknown {what} {name!r}; expected one of {tuple(allowed)}")
    return allowed[norm]


class Scheduler:
    """A stationary randomized policy ``(mu, s, rule)``.

    ``mu[x]`` is the probability of admitting a topic-x arrival, or None
    to admit every arrival without a draw. Column x of ``s``, of shape
    (n_experts, n_topics), is the distribution of an admitted topic-x
    arrival's destination expert, or ``s`` is None to keep every request
    at its door expert without a draw. A route goes to the first expert
    whose cumulative weight exceeds the draw u, or else to the last expert
    with positive weight (n - 1 if none has any), so a skill-less expert
    must have weight exactly 0 in any column some expert can answer.
    ``rule`` picks the topic an expert serves: the ``first`` non-empty
    queue, the ``longest`` queue (the first one on ties), a ``uniform``
    draw over the non-empty queues, or a draw ``weighted`` by queue
    length. ``kind`` names the constructor that built the policy.

    ``admit`` and ``route`` run once per arrival; ``select`` runs once per
    expert per slot and is only called with a non-empty queue row, so it
    can never pick an empty queue.
    """

    def __init__(self, kind: str, inst: Instance, mu, s, rule: str) -> None:
        if rule not in RULES:
            raise ValueError(f"unknown selection rule {rule!r}; expected one of {RULES}")
        self.kind = kind
        self.n_experts = inst.n_experts
        self.n_topics = inst.n_topics
        self.mu = None if mu is None else np.asarray(mu, dtype=np.float64)
        self.s = None if s is None else np.asarray(s, dtype=np.float64)
        self.rule = rule
        self._admit_prob = None if mu is None else self.mu.tolist()
        self._cumulative = None
        if s is not None:
            # Running maxima keep each column sorted for bisection; edges are
            # infinite from where a positive total is reached, else at n - 1.
            edges = np.maximum.accumulate(np.cumsum(self.s, axis=0), axis=0)
            edges[(edges == edges[-1]) & (edges[-1] > 0)] = np.inf
            edges[-1] = np.inf
            self._cumulative = edges.T.tolist()

    def admit(self, topic: int, door_expert: int, streams: RngStreams) -> bool:
        prob = self._admit_prob
        return prob is None or streams.admission.next() < prob[topic]

    def route(self, topic: int, door_expert: int, streams: RngStreams) -> int:
        cumulative = self._cumulative
        if cumulative is None:
            return door_expert
        return bisect_right(cumulative[topic], streams.routing.next())

    def select(
        self, expert: int, queue_row: list[int], total: int, streams: RngStreams
    ) -> int:
        rule = self.rule
        if rule == "weighted":
            # Integer prefix sums are exact, and fl(u * total) < total for a
            # double u < 1 and an integer 1 <= total < 2**53.
            target = streams.selection.next() * total
            return bisect_right(list(accumulate(queue_row)), target)
        if rule == "longest":
            return queue_row.index(max(queue_row))
        if rule == "first":
            return next(x for x, count in enumerate(queue_row) if count)
        nonempty = [x for x, count in enumerate(queue_row) if count]
        return nonempty[int(streams.selection.next() * len(nonempty))]


def work_conserving_single(inst: Instance, tie_break: str = "arbitrary") -> Scheduler:
    """Single-expert scheduler that admits everything and never idles while
    any topic queue is non-empty. Any tie break keeps the same capacity."""
    if inst.n_experts != 1:
        raise ValueError("work-conserving single-expert scheduler needs exactly 1 expert")
    rule = _rule(tie_break, TIE_BREAKS, "tie break")
    return Scheduler("work_conserving", inst, None, None, rule)


def offline_loss_scheduler(
    inst: Instance, policy: LossPolicy, tie_break: str = "arbitrary"
) -> Scheduler:
    """Single-expert scheduler with randomized admission per topic.

    The admission draw is independent of queue state; rejected arrivals
    count as losses at the door and are never enqueued.
    """
    if inst.n_experts != 1:
        raise ValueError("loss scheduler needs exactly 1 expert")
    if policy.mu.shape[0] != inst.n_topics:
        raise ValueError(
            f"admission policy covers {policy.mu.shape[0]} topics, "
            f"instance has {inst.n_topics}"
        )
    rule = _rule(tie_break, TIE_BREAKS, "tie break")
    return Scheduler("loss", inst, policy.mu, None, rule)


def offline_routing_scheduler(
    inst: Instance, policy: RoutingPolicy, selection: str = "request_weighted"
) -> Scheduler:
    """Coordinated-expert scheduler driven by a fixed routing matrix.

    Each admitted topic-x arrival is sent to an expert drawn from column x
    of the routing matrix, wherever it arrived. Each expert then serves a
    request drawn from her own queues (request-weighted by default, so a
    longer topic queue is proportionally likelier; ``topic_uniform`` picks
    uniformly among her non-empty topics instead) and idles only when all
    her own queues are empty.
    """
    if policy.s is None:
        raise ValueError("routing scheduler needs a routing matrix")
    problems = routing_policy_violations(policy, inst.success_matrix())
    if problems:
        raise ValueError("invalid routing policy: " + "; ".join(problems))
    rule = _rule(selection, SELECTION_MODES, "selection mode")
    return Scheduler("routing", inst, None, policy.s, rule)


def mismatch_baseline(inst: Instance, selection: str = "request_weighted") -> Scheduler:
    """Anti-optimal deterministic routing used as a negative control.

    Every topic goes to the expert with the smallest positive success
    probability for it (the worst per-request service ratio among experts
    that can answer at all). Topics nobody can answer fall back to expert
    0; they pile up wherever they land. The routing matrix is one-hot, so
    each route still takes one draw from the routing stream.
    """
    qmat = inst.success_matrix()
    slowest = np.argmin(np.where(qmat > 0, qmat, np.inf), axis=0)
    s = np.zeros_like(qmat)
    s[slowest, np.arange(inst.n_topics)] = 1.0
    rule = _rule(selection, SELECTION_MODES, "selection mode")
    return Scheduler("baseline", inst, None, s, rule)


def build_scheduler(inst: Instance, spec: dict) -> Scheduler:
    """The scheduler a config's ``scheduler`` object names by ``kind``,
    with only the fields ``SCHEDULER_FIELDS`` lists for that kind. A loss
    policy takes ``mu`` or computes it from ``epsilon``, not both; a
    routing policy missing ``s`` is computed by the load-balancing LP.
    Raises ValueError naming a malformed or unused field, and
    CertificateError when the policy can be neither read nor computed."""
    root = {"scheduler": spec}  # so that errors name 'scheduler.<field>'
    kind = config_field(root, "scheduler.kind", "string")
    fields = SCHEDULER_FIELDS.get(kind)
    if fields is None:
        raise ValueError(f"config field 'scheduler.kind': unknown kind {kind!r}")
    _, *values = config_block(root, "scheduler", {"kind": ("string",), **fields}, f"kind {kind!r}")
    if kind == "loss" and values[1] is not None and values[2] is not None:
        message = "kind 'loss' takes 'mu' or 'epsilon', not both"
        raise ValueError(f"config field 'scheduler.epsilon': {message}")
    for key, value in zip(fields, values):  # the checks that need the names or the instance
        try:
            if key in _NAME_FIELDS:
                _rule(value, *_NAME_FIELDS[key])
            elif key == "mu" and value is not None and len(value) != inst.n_topics:
                detail = f"{len(value)} topics, instance has {inst.n_topics}"
                raise ValueError(f"admission policy covers {detail}")
        except ValueError as exc:
            raise ValueError(f"config field 'scheduler.{key}': {exc}") from exc
    try:
        if kind == "work_conserving":
            return work_conserving_single(inst, *values)
        if kind == "baseline":
            return mismatch_baseline(inst, *values)
        if kind == "loss":
            tie_break, mu, epsilon = values
            if mu is not None:
                policy = LossPolicy(mu, 0.0)
            elif epsilon is None:
                message = "loss scheduler needs 'mu' or an 'epsilon' to compute it from"
                raise CertificateError(message)
            else:
                p, q = inst.arrivals.pmf[0], inst.experts[0].success_prob
                policy = loss_capacity(p, q, epsilon).certificate
            return offline_loss_scheduler(inst, policy, tie_break=tie_break)
        s, selection = values
        if s is not None:
            policy = RoutingPolicy(s=s)
        else:
            try:
                policy = multi_capacity_dual(merged_pmf(inst), list(inst.experts)).certificate
            except ValueError as exc:
                raise CertificateError(f"cannot compute a routing matrix: {exc}") from exc
        return offline_routing_scheduler(inst, policy, selection=selection)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad scheduler config: {exc}") from exc
