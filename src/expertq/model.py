"""Domain model for multi-topic expert request queues.

Topics are dense integer ids ``0 .. n_topics-1``; they carry no internal
structure. An expert is described by per-topic mean research times
``T(x) >= 1`` (``inf`` when the expert cannot answer that topic) or,
equivalently, per-slot success probabilities ``q(x) = 1/T(x)``. Requests
arrive Bernoulli per (topic, expert) pair with probability
``lam * p_i(x)`` each slot.

All model types are immutable after construction and safe to share across
threads or processes. An :class:`Instance` checks every model invariant
when it is built and raises one ``ValueError`` listing each violation, so
every instance that exists is valid. Bare profiles and arrival specs are
not checked: capacity formulas take them on their own, estimates included.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ExpertProfile",
    "ArrivalSpec",
    "Instance",
    "merged_pmf",
    "instance_to_dict",
    "instance_from_dict",
    "load_instance",
    "save_instance",
]

PMF_TOL = 1e-9
CONSISTENCY_TOL = 1e-12


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ExpertProfile:
    """Per-topic skill of one expert.

    ``mean_time[x]`` is the expected number of slots to answer a topic-x
    request (at least 1, or ``inf`` for topics the expert cannot answer);
    ``success_prob[x] = 1/mean_time[x]`` is the per-slot completion
    probability while working on such a request.
    """

    expert_id: int
    mean_time: np.ndarray
    success_prob: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_time", _frozen_array(self.mean_time))
        object.__setattr__(self, "success_prob", _frozen_array(self.success_prob))

    @classmethod
    def from_mean_times(cls, expert_id: int, mean_times) -> "ExpertProfile":
        """Build a profile from mean research times; ``None`` means infinity."""
        t = np.array([np.inf if v is None else v for v in mean_times], dtype=np.float64)
        with np.errstate(divide="ignore"):
            q = np.where(np.isfinite(t) & (t > 0), 1.0 / t, 0.0)
        return cls(expert_id=expert_id, mean_time=t, success_prob=q)

    @classmethod
    def from_success_probs(cls, expert_id: int, success_probs) -> "ExpertProfile":
        """Build a profile from per-slot success probabilities in [0, 1]."""
        q = np.asarray(success_probs, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            t = np.where(q > 0, 1.0 / q, np.inf)
        return cls(expert_id=expert_id, mean_time=t, success_prob=q)

    @property
    def n_topics(self) -> int:
        return self.success_prob.shape[0]


@dataclass(frozen=True)
class ArrivalSpec:
    """Request load ``lam`` and one arrival p.m.f. per expert.

    ``pmf`` has shape (n_experts, n_topics); row i is expert i's topic
    distribution. Each row sums to 1. Zero entries are permitted even
    though typical workloads have mass everywhere; operations that divide
    by topic mass guard for this.
    """

    lam: float
    pmf: np.ndarray

    def __post_init__(self) -> None:
        pmf = np.atleast_2d(np.asarray(self.pmf, dtype=np.float64))
        object.__setattr__(self, "pmf", _frozen_array(pmf))
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def n_experts(self) -> int:
        return self.pmf.shape[0]

    @property
    def n_topics(self) -> int:
        return self.pmf.shape[1]


@dataclass(frozen=True)
class Instance:
    """A complete problem instance: experts plus the arrival process.

    Any expert may be handed any request (a complete coordination graph).
    The arrival spec defines the topic universe width; every expert
    profile must be indexed over the same universe. Raises ValueError
    ``invalid instance: ...`` naming every violated invariant.
    """

    experts: tuple[ExpertProfile, ...]
    arrivals: ArrivalSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "experts", tuple(self.experts))
        problems = _validate_instance(self)
        if problems:
            raise ValueError("invalid instance: " + "; ".join(problems))

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    @property
    def n_topics(self) -> int:
        return self.arrivals.n_topics

    def success_matrix(self) -> np.ndarray:
        """Stack success probabilities into shape (n_experts, n_topics)."""
        return np.vstack([e.success_prob for e in self.experts])


def _validate_instance(inst: Instance) -> list[str]:
    """Check every model invariant; return a description per violation,
    an empty list iff the instance is well formed. Pure: nothing is mutated.
    """
    violations: list[str] = []

    if inst.n_experts < 1:
        violations.append("instance: needs at least one expert")

    n_topics = inst.n_topics
    if inst.arrivals.n_experts != inst.n_experts:
        violations.append(
            f"arrivals.pmf: {inst.arrivals.n_experts} rows for "
            f"{inst.n_experts} experts"
        )

    lam = inst.arrivals.lam
    # The arrival model wants 0 < lam < 1; lam == 0 is accepted as a
    # degenerate no-traffic configuration used by diagnostics.
    if not (0.0 <= lam < 1.0):
        violations.append(f"arrivals.lambda: must lie in [0, 1), got {lam}")

    for i, row in enumerate(inst.arrivals.pmf):
        # NaN fails every comparison, so it is named here or nowhere.
        for x in np.nonzero(~(np.isfinite(row) & (row >= 0)))[0]:
            violations.append(
                f"arrivals.pmf[expert {i}][topic {x}]: mass must be finite and "
                f"non-negative, got {row[x]}"
            )
        total = float(row.sum())
        if abs(total - 1.0) > PMF_TOL:
            violations.append(
                f"arrivals.pmf[expert {i}]: sums to {total!r}, expected 1 within {PMF_TOL}"
            )

    # One mask per check in _ENTRY_CHECKS, over all experts; a wrong-width profile is a valid row.
    fits = [e.n_topics == n_topics == e.mean_time.shape[0] for e in inst.experts]
    valid = np.ones(n_topics)
    t = np.array([e.mean_time if ok else valid for e, ok in zip(inst.experts, fits)])
    q = np.array([e.success_prob if ok else valid for e, ok in zip(inst.experts, fits)])
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.abs(q * t - 1.0)
    nan, inf = np.isnan(t), t == np.inf
    rest, in_range = ~(nan | inf), (q >= 0.0) & (q <= 1.0)
    inconsistent = (t > 0) & (deviation > CONSISTENCY_TOL)
    checks = [nan, inf & (q != 0.0), rest & (t < 1.0), rest & ~in_range, rest & inconsistent]
    flags = np.stack(checks, axis=-1)
    for i, e in enumerate(inst.experts):
        if not fits[i]:
            violations.append(
                f"expert {e.expert_id}: profile over {e.n_topics} topics, "
                f"instance universe has {n_topics}"
            )
        for x, check in np.argwhere(flags[i]):
            entry = {"id": e.expert_id, "x": x, "t": t[i, x], "q": q[i, x], "d": deviation[i, x]}
            violations.append(_ENTRY_CHECKS[check].format(**entry))

    return violations


_ENTRY_CHECKS = (
    "expert {id}.mean_time[topic {x}]: must be a time or null (cannot answer), got nan",
    "expert {id}.success_prob[topic {x}]: must be 0 when mean_time is infinite, got {q}",
    "expert {id}.mean_time[topic {x}]: T(x) >= 1 required, got {t}",
    "expert {id}.success_prob[topic {x}]: outside [0, 1], got {q}",
    "expert {id}[topic {x}]: success_prob {q} and mean_time {t} inconsistent "
    "(q*T deviates from 1 by {d:.3g})",
)


def merged_pmf(inst: Instance) -> np.ndarray:
    """Entry-wise sum of the per-expert arrival p.m.f.s.

    Sums to n_experts, not to 1; downstream capacity formulas are
    scale-covariant and consume it either raw (per-expert load units) or
    divided by n (system load units).
    """
    return inst.arrivals.pmf.sum(axis=0)


def instance_to_dict(inst: Instance) -> dict:
    """Serialize to the canonical JSON document (``null`` encodes infinity)."""
    return {
        "topics": inst.n_topics,
        "lambda": inst.arrivals.lam,
        "pmf": [[float(v) for v in row] for row in inst.arrivals.pmf],
        "experts": [
            {
                "id": e.expert_id,
                "T": [None if np.isinf(t) else float(t) for t in e.mean_time],
            }
            for e in inst.experts
        ],
    }


def instance_from_dict(doc: dict) -> Instance:
    """Parse the canonical JSON document. Raises ValueError naming the
    first malformed field, or every violation of a well-typed but invalid
    instance."""
    n_topics = config_field(doc, "topics", "integer")
    lam = config_field(doc, "lambda", "number")
    pmf = config_field(doc, "pmf", "rows")
    experts = []
    for k, spec in enumerate(config_field(doc, "experts", "objects")):
        root = {f"experts[{k}]": spec}  # so that errors name 'experts[k].<field>'
        expert_id = config_field(root, f"experts[{k}].id", "integer")
        times = config_field(root, f"experts[{k}].T", "times")
        experts.append(ExpertProfile.from_mean_times(expert_id, times))

    for row in pmf:
        if len(row) != n_topics:
            raise ValueError(
                f"pmf row has {len(row)} entries, 'topics' declares {n_topics}"
            )
    return Instance(experts=experts, arrivals=ArrivalSpec(lam=lam, pmf=pmf))


_REQUIRED = object()
_FAIL = object()
_KINDS = {
    "integer": "an integer",
    "seed": "a non-negative integer",
    "count": "a positive integer",
    "number": "a number",
    "prob": "a number in (0, 1]",
    "positive": "a finite positive number",
    "budget": "a finite non-negative number",
    "string": "a string",
    "object": "a JSON object",
    "seeds": "a non-empty list of non-negative integers",
    "numbers": "a non-empty list of numbers",
    "loads": "a non-empty ascending list of numbers in [0, 1)",
    "fractions": "a non-empty list of numbers in [0, 1]",
    "times": "a non-empty list of numbers or nulls",
    "objects": "a non-empty list of JSON objects",
    "rows": "a non-empty list of equal-length non-empty lists of numbers",
}


def _as_kind(value, kind: str):
    """``value`` converted to ``kind``, or ``_FAIL`` if it is not one. A list
    kind is a non-empty list, tuple, range or array, with items of the kind
    without its final s; those of ``rows`` are equal-length ``numbers``, those
    of ``loads`` ascend, and a ``time`` is a number or None. A ``seed`` is an
    integer from 0, a ``count`` one from 1, a ``prob`` a number in (0, 1], a
    ``positive`` a finite one above 0, a ``load`` one in [0, 1), a
    ``fraction`` one in [0, 1] and a ``budget`` a finite one from 0; NaN lies
    in no range."""
    if kind in ("seeds", "numbers", "loads", "fractions", "times", "objects", "rows"):
        value = value.tolist() if isinstance(value, np.ndarray) else value
        ok = isinstance(value, (list, tuple, range)) and len(value) > 0
        item = "numbers" if kind == "rows" else kind[:-1]
        items = [_as_kind(v, item) for v in value] if ok else [_FAIL]
        bad = _FAIL in items or (kind == "rows" and len(set(map(len, items))) > 1)
        return _FAIL if bad or (kind == "loads" and items != sorted(items)) else items
    if kind == "time" and value is None:
        return None
    if kind in ("object", "string"):
        return value if isinstance(value, dict if kind == "object" else str) else _FAIL
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return _FAIL
    if kind in ("integer", "seed", "count"):
        integral = isinstance(value, numbers.Integral) or float(value).is_integer()
        lowest = {"seed": 0, "count": 1}.get(kind)
        return int(value) if integral and (lowest is None or value >= lowest) else _FAIL
    in_range = {
        "prob": 0.0 < value <= 1.0,
        "positive": 0.0 < value < np.inf,
        "load": 0.0 <= value < 1.0,
        "fraction": 0.0 <= value <= 1.0,
        "budget": 0.0 <= value < np.inf,
    }
    if not in_range.get(kind, True):
        return _FAIL
    return float(value)


def config_field(doc: dict, path: str, kind: str, default=_REQUIRED):
    """The field at dotted ``path`` of a JSON document as ``kind``, a key of
    ``_KINDS``. Integers may be written as integral floats; ``bool`` and
    ``null`` are never numbers. A missing parent reads as an empty object,
    and a missing field as ``default``. Raises ValueError naming the field,
    e.g. ``config field 'routing_check.horizon': expected a positive integer, got true``.
    """
    parent, _, key = path.rpartition(".")
    if parent:
        doc = config_field(doc, parent, "object", {})
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"config is missing required field {path!r}")
        return default
    return checked(doc[key], kind, f"config field {path!r}")


def checked(value, kind: str, name: str):
    """``value`` converted to ``kind``, a key of ``_KINDS``. Raises ValueError
    naming it ``name``, e.g. ``gamma: expected a number in (0, 1], got 1.5``."""
    result = _as_kind(value, kind)
    if result is _FAIL:
        got = json.dumps(value, default=repr)
        raise ValueError(f"{name}: expected {_KINDS[kind]}, got {got}")
    return result


def config_block(doc: dict, path: str, fields: dict, owner: str | None = None) -> list:
    """The object at dotted ``path``, missing or not, read by ``fields`` in its
    order: each key maps to ``(kind, default)``, or ``(kind,)`` if required. A
    key the table lacks raises ValueError, e.g. ``config field 'routing_check.horizn':
    'routing_check' takes only ('horizon', 's')``; ``owner`` replaces ``'routing_check'``."""
    for key in config_field(doc, path, "object", {}):
        if key not in fields:
            owner = owner or repr(path)
            raise ValueError(f"config field '{path}.{key}': {owner} takes only {tuple(fields)}")
    return [config_field(doc, f"{path}.{key}", *spec) for key, spec in fields.items()]


def load_instance(path: str | Path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return instance_from_dict(config_field({"instance": doc}, "instance", "object"))


def save_instance(inst: Instance, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")
