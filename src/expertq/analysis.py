"""Drift estimation, stability classification, and boundary sweeps.

These are the harnesses that tie simulation output back to the analytic
capacity values: a one-slot drift estimator for any expert's
service-weighted queue sum, an empirical stable/unstable verdict with an
explicit inconclusive band, a load sweep that brackets the capacity
boundary, a stability check under certified misestimation of research
times for any number of experts, and the cross-checks that ``expertq
verify`` reports, on one path whatever the expert count.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .capacity import (
    RoutingPolicy,
    capacity_of,
    max_min_load,
    multi_capacity_dual,
    routing_policy_violations,
    service_load,
)
from .model import ArrivalSpec, ExpertProfile, Instance, checked, config_block, merged_pmf
from .sched import Scheduler, offline_routing_scheduler
from .sim import SAMPLE_INTERVAL, SimConfig, TraceStats, check_sample_count, run

__all__ = [
    "DriftReport",
    "StabilityVerdict",
    "SweepResult",
    "MisestimationResult",
    "drift_check",
    "classify_stability",
    "capacity_boundary_sweep",
    "misestimation_check",
    "policy_load",
    "analytic_boundary",
    "verify",
    "with_load",
]

GAMMA_DEFAULT = 0.5
# The misestimation check drives the true system at this fraction of the
# guaranteed load.
LOAD_FRACTION = 0.95


@dataclass(frozen=True)
class DriftReport:
    """One-slot drift of L(t) = sum_x Q_x(t)/q(x), busy slots only.

    ``delta`` is the analytic stability margin 1 - lam * sum_x p(x)/q(x);
    the predicted busy-slot drift is exactly ``-delta``. The empirical
    mean is taken over slots whose starting state had work queued, where
    a work-conserving expert serves with certainty.
    """

    empirical_drift: float
    predicted_drift: float
    delta: float
    busy_slots: int
    std_error: float

    def within(self, n_std_errors: float = 4.0) -> bool:
        return abs(self.empirical_drift - self.predicted_drift) <= (
            n_std_errors * self.std_error
        )


@dataclass(frozen=True)
class StabilityVerdict:
    """One judged run, as :func:`classify_stability` returns it: the run's
    load and seed, its verdict, fitted growth slope, final-quarter mean
    queue and empty-system slot fraction."""

    lam: float
    seed: int
    verdict: str
    growth_slope: float
    final_quarter_mean: float
    empty_fraction: float


def drift_check(stats: TraceStats, expert: int = 0) -> DriftReport:
    """Compare the simulated busy-slot drift against its analytic value.

    Requires a run recorded with ``record_lyapunov`` and an integer
    ``expert`` in [0, n); raises if the run had fewer than two busy slots or
    if the policy sends the expert a topic it cannot answer (the weighted
    sum is undefined there). The load, the expert's success probabilities
    and its flow under the run's own policy come from the run's config.
    The mean and variance are formed exactly from ``busy_moments``, whose
    sums are scaled by 2**52 (see ``TraceStats``): that is, with the float
    weights 1.0/q(x). The mean and standard error are rounded once.
    """
    if stats.busy_moments is None:
        raise ValueError("drift check needs a run with record_lyapunov enabled")
    inst = stats.config.instance
    n = inst.n_experts
    if not isinstance(expert, numbers.Integral) or checked(expert, "seed", "expert") >= n:
        raise ValueError(f"expert: expected an integer in [0, {n}), got {expert!r}")
    q = inst.success_matrix()[expert]
    load = service_load(_flow(inst, stats.config.scheduler)[expert], q)
    if load == math.inf:
        raise ValueError("drift undefined: mass-bearing topic with zero success prob")
    delta = 1.0 - inst.arrivals.lam * load
    count, first, second = stats.busy_moments[expert]
    if count < 2:
        raise ValueError("not enough busy slots to estimate drift")
    total, square = Fraction(first, 2**52), Fraction(second, 2**104)
    variance = (square - total * total / count) / (count - 1)
    return DriftReport(
        empirical_drift=float(total / count),
        predicted_drift=-delta,
        delta=delta,
        busy_slots=count,
        std_error=_sqrt(variance / count),
    )


def _sqrt(r: Fraction) -> float:
    """sqrt(r >= 0) correctly rounded: a 55+ bit root rounded to odd, divided once."""
    k = max(0, 112 - r.numerator.bit_length() + r.denominator.bit_length()) // 2
    root = math.isqrt((r.numerator << 2 * k) // r.denominator)
    return (root | (root * root * r.denominator != r.numerator << 2 * k)) / (1 << k)


def classify_stability(
    stats: TraceStats, *, slope_threshold: float | None = None
) -> StabilityVerdict:
    """Judge a finished run: ``stable`` if the fitted growth slope of the
    total queue over the final half is at most the threshold, ``unstable``
    if it is at least ten times the threshold, else, or on too short a
    trace, ``inconclusive``.

    The default threshold is 0.01 * lam requests per slot at the run's load;
    a given one must be finite and positive. The slope is a least-squares
    fit of the samples against time, formed exactly in integers and rounded
    once, so no BLAS call is made.
    """
    config = stats.config
    lam = config.instance.arrivals.lam
    if slope_threshold is None:
        threshold = 0.01 * lam  # 0 at no load: only a given threshold must be positive
    else:
        threshold = checked(slope_threshold, "positive", "slope_threshold")
    final_half = stats.samples[stats.samples[:, 0] >= config.horizon / 2]
    # Python ints, so the sums below are exact and cannot overflow.
    t, y = final_half[:, 0].tolist(), final_half[:, 1].tolist()
    n = len(t)
    slope = math.nan  # too short a trace: NaN compares false, so inconclusive
    if n >= 2:
        # Distinct sample times make the denominator positive; int / int rounds once.
        numerator = n * sum(map(operator.mul, t, y)) - sum(t) * sum(y)
        slope = numerator / (n * sum(map(operator.mul, t, t)) - sum(t) ** 2)
    if slope <= threshold:
        verdict = "stable"
    elif slope >= 10.0 * threshold:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    final_quarter = float(stats.mean_queue_final_quarter.sum())
    return StabilityVerdict(lam, config.seed, verdict, slope, final_quarter, stats.empty_fraction)


def with_load(inst: Instance, lam: float) -> Instance:
    """Copy an instance with a different request load."""
    return Instance(
        experts=inst.experts,
        arrivals=ArrivalSpec(lam=lam, pmf=inst.arrivals.pmf),
    )


@dataclass(frozen=True)
class SweepResult:
    """Verdicts per (load, seed) plus the stability bracket.

    ``lambda_lo`` is the largest load every seed called stable and
    ``lambda_hi`` the smallest load every seed called unstable; either
    side is None when the grid never reached it. The true boundary should
    lie within the bracket widened by one grid step.
    """

    cells: tuple[StabilityVerdict, ...]
    lambdas: tuple[float, ...]
    seeds: tuple[int, ...]
    lambda_lo: float | None
    lambda_hi: float | None


def capacity_boundary_sweep(
    inst: Instance,
    sched: Scheduler,
    lambdas,
    horizon: int,
    seeds,
    slope_threshold: float | None = None,
    sample_interval: int = SAMPLE_INTERVAL,
) -> SweepResult:
    """Simulate a sorted load grid across seeds and bracket the boundary.

    ``lambdas``, ``seeds`` and a given ``slope_threshold`` are checked by
    their config kinds, then one instance per load and every cell's run are
    built, and so checked, before the first one runs; the cells then run in
    order in this process.
    """
    lambdas = tuple(checked(lambdas, "loads", "lambdas"))
    seeds = tuple(checked(seeds, "seeds", "seeds"))
    if slope_threshold is not None:
        checked(slope_threshold, "positive", "slope_threshold")
    configs = [
        SimConfig(loaded, sched, horizon, seed, sample_interval=sample_interval)
        for loaded in [with_load(inst, lam) for lam in lambdas]
        for seed in seeds
    ]
    cells = tuple(classify_stability(run(c), slope_threshold=slope_threshold) for c in configs)

    verdicts = {lam: {c.verdict for c in cells if c.lam == lam} for lam in lambdas}
    stable = [lam for lam, seen in verdicts.items() if seen == {"stable"}]
    unstable = [lam for lam, seen in verdicts.items() if seen == {"unstable"}]
    return SweepResult(
        cells=cells,
        lambdas=lambdas,
        seeds=seeds,
        lambda_lo=max(stable, default=None),
        lambda_hi=min(unstable, default=None),
    )


def _flow(inst: Instance, sched: Scheduler) -> np.ndarray:
    """The (experts, topics) flow a policy sends each expert per unit of
    arrival rate: the arrival pmf if it keeps requests at their door, else
    ``merged_pmf(inst) * s``, times the admission probabilities ``mu``."""
    flow = inst.arrivals.pmf if sched.s is None else merged_pmf(inst) * sched.s
    return flow if sched.mu is None else flow * sched.mu


def policy_load(inst: Instance, sched: Scheduler) -> float:
    """Worst per-expert service load per unit of arrival rate under a policy.

    Expert i's load is ``sum_x flow[i, x] / q[i, x]`` over the flow the
    policy sends it. Flow sent to an expert that cannot answer its topic
    makes the load infinite.
    """
    return float(service_load(_flow(inst, sched), inst.success_matrix()).max())


def analytic_boundary(inst: Instance, sched: Scheduler) -> float:
    """Capacity of the instance under the given policy, in arrival-load units.

    The reciprocal of :func:`policy_load`: for a single expert this is the
    closed-form capacity (with admission probabilities folded into the
    topic masses for a loss policy), and for the optimal routing matrix it
    coincides with the coordinated capacity.
    """
    return capacity_of(policy_load(inst, sched))


@dataclass(frozen=True)
class MisestimationResult:
    """One run per seed, in seed order: ``cells[k]`` ran at ``LOAD_FRACTION``
    of ``gamma`` times ``estimated_capacities[k]``, the capacity of the
    k-th seed's estimates."""

    cells: tuple[StabilityVerdict, ...]
    estimated_capacities: tuple[float, ...]

    @property
    def all_stable(self) -> bool:
        return all(c.verdict == "stable" for c in self.cells)


def _default_inflate(mean_time: np.ndarray, gamma: float, rng) -> np.ndarray:
    return mean_time * rng.uniform(gamma, 1.0, size=mean_time.shape)


def misestimation_check(
    inst: Instance,
    gamma: float,
    seeds,
    horizon: int = 100_000,
    inflate=None,
) -> MisestimationResult:
    """Stability under capacity computed from misestimated research times.

    For each seed, an estimate generator produces an (experts, topics) time
    matrix bounded below by ``gamma`` times the truth. Before that seed's LP,
    a ``ValueError`` names the first (expert, topic) whose estimate is below
    that bound, NaN, or infinite where the truth is finite. The routing LP on the
    estimates gives a routing matrix and a capacity, and the run drives the
    true system under that matrix at ``LOAD_FRACTION`` of ``gamma`` times
    that capacity. The estimates are at least ``gamma`` times the truth pair
    by pair, so no expert's true load under the matrix exceeds the estimated
    optimum over ``gamma``: every such load is sustainable, and each run
    should classify stable. For one expert the load is ``LOAD_FRACTION``
    times :func:`degraded_capacity` of the estimates. Every seed's estimate
    and run are built, and so checked, before the first one runs; each run
    is judged as a sweep cell is, with the default slope threshold.
    """
    horizon = checked(horizon, "count", "horizon")
    check_sample_count(horizon, SAMPLE_INTERVAL)  # each run samples at SimConfig's default
    gamma = checked(gamma, "prob", "gamma")
    seeds = checked(seeds, "seeds", "seeds")
    generator = _default_inflate if inflate is None else inflate
    true_times = np.vstack([e.mean_time for e in inst.experts])

    capacities, configs = [], []
    for seed in seeds:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 0x7E57]))
        )
        estimated = np.asarray(generator(true_times, gamma, rng), dtype=np.float64)
        if estimated.shape != true_times.shape:
            raise ValueError("estimate generator returned the wrong shape")
        bounded = estimated >= gamma * true_times - 1e-12  # False for NaN
        bad = ~bounded | (np.isinf(estimated) & np.isfinite(true_times))
        if bad.any():
            expert, topic = np.argwhere(bad)[0]
            raise ValueError(
                f"estimate generator violated its bound at expert {expert}, topic {topic}: "
                "an estimate must be at least gamma times the true time, and finite where it is"
            )
        experts = [ExpertProfile.from_mean_times(i, row) for i, row in enumerate(estimated)]
        optimal = multi_capacity_dual(merged_pmf(inst), experts)
        capacities.append(optimal.lambda_star)
        loaded = with_load(inst, LOAD_FRACTION * (gamma * optimal.lambda_star))
        sched = offline_routing_scheduler(loaded, optimal.certificate)
        configs.append(SimConfig(instance=loaded, scheduler=sched, horizon=horizon, seed=seed))

    cells = tuple(classify_stability(run(config)) for config in configs)
    return MisestimationResult(cells=cells, estimated_capacities=tuple(capacities))


def verify(inst: Instance, cfg: dict, seed: int) -> list[dict]:
    """The checks of ``expertq verify``, one dict with ``name`` and
    ``passed`` each, for any number of experts: the duality gap, the
    validity of the routing matrix, then its load against the LP's optimum,
    every busy expert's drift, the simulated routing frequencies and
    service success of one recorded run under it at the instance's load,
    and misestimation stability.

    ``routing_check`` sets that run and ``misestimation`` its check; a key
    those blocks do not take exits 2, and so does a ``drift`` block, whose
    run ``routing_check`` now sets. Other top-level keys are ignored. Every
    field is read before the routing LP is solved once, on the per-door pmf
    the routing run uses. The run is built once its matrix has passed its
    check."""
    if "drift" in cfg:
        raise ValueError("config field 'drift': verify reads 'routing_check' instead")
    routing_check = {"horizon": ("count", 50_000), "s": ("rows", None)}
    horizon, s = config_block(cfg, "routing_check", routing_check)
    misestimation = {
        "gamma": ("prob", GAMMA_DEFAULT),
        "seeds": ("seeds", [seed, seed + 1, seed + 2]),
        "horizon": ("count", 100_000),
    }
    gamma, seeds, mis_horizon = config_block(cfg, "misestimation", misestimation)
    try:
        check_sample_count(mis_horizon, SAMPLE_INTERVAL)
    except ValueError as exc:
        raise ValueError(f"config field 'misestimation.horizon': {exc}") from exc

    optimal = multi_capacity_dual(merged_pmf(inst), list(inst.experts))
    policy = optimal.certificate if s is None else RoutingPolicy(s=s)
    checked = [_duality_gap(inst, optimal), _routing_policy_valid(inst, policy)]
    if not checked[-1]["passed"]:
        return checked
    sched = offline_routing_scheduler(inst, policy)
    # The rows read only the final counts and drift record: one sample at each end.
    config = SimConfig(inst, sched, horizon, seed, sample_interval=horizon, record_lyapunov=True)
    stats = run(config)
    return [
        *checked,
        _certificate_load(inst, sched, optimal),
        _drift(stats),
        _frequencies(stats, policy),
        _service(stats),
        _misestimation(inst, gamma, seeds, mis_horizon),
    ]


def _row(name: str, passed, **values) -> dict:
    return {"name": name, "passed": bool(passed), **values}


def _duality_gap(inst: Instance, optimal) -> dict:
    """The LP's capacity against the one its own expert weights certify,
    ``n/max_min_load(alpha*)``, in system units: ``n`` times per-door."""
    n = inst.n_experts
    system = n * optimal.lambda_star
    load = max_min_load(merged_pmf(inst), list(inst.experts), optimal.certificate.alpha)
    certified = math.inf if load == 0.0 else n / load
    gap = 0.0 if certified == system else abs(certified - system)  # inf == inf
    tol = 1e-9 * system
    return _row("duality_gap", gap <= tol, measured=gap, tolerance=tol)


def _drift(stats: TraceStats) -> dict:
    """Each expert's busy-slot drift against the one the run's policy predicts,
    over the experts with at least two busy slots, as ``_binomial`` judges
    pairs: the signed worst excess over four standard errors. A row that
    judged no expert fails."""
    judged = [i for i, (count, _, _) in enumerate(stats.busy_moments) if count >= 2]
    reports = [drift_check(stats, i) for i in judged]
    excess = [abs(r.empirical_drift - r.predicted_drift) - 4.0 * r.std_error for r in reports]
    worst = max(excess, default=None)
    return _row("drift", excess and worst <= 0, measured_worst_excess=worst)


def _misestimation(inst: Instance, gamma: float, seeds: list[int], horizon: int) -> dict:
    result = misestimation_check(inst, gamma, seeds=seeds, horizon=horizon)
    verdicts, loads = [c.verdict for c in result.cells], [c.lam for c in result.cells]
    return _row("misestimation_stability", result.all_stable, measured=verdicts, loads=loads)


def _routing_policy_valid(inst: Instance, policy: RoutingPolicy) -> dict:
    problems = routing_policy_violations(policy, inst.success_matrix())
    return _row("routing_policy_valid", not problems, measured=problems)


def _certificate_load(inst: Instance, sched: Scheduler, optimal) -> dict:
    load = policy_load(inst, sched)
    bound = optimal.certificate.dual_mu * (1.0 + 1e-6) + 1e-9
    return _row("routing_certificate_load", load <= bound, measured=load, tolerance=bound)


def _frequencies(stats: TraceStats, policy: RoutingPolicy) -> dict:
    counts = stats.final_state.cum_arrivals  # (topics, experts)
    total = counts.sum(axis=1, keepdims=True)
    seen = total[:, 0] >= 100
    return _binomial("routing_frequencies", counts[seen], total[seen], policy.s.T[seen], 1e-12)


def _service(stats: TraceStats) -> dict:
    """Completions per attempt of each (topic, expert) pair tried 100 times
    or more, against its q: one service uniform is drawn per busy expert
    whatever topic it serves, so a pair's outcomes are Bernoulli(q)."""
    state = stats.final_state
    attempts = state.cum_attempts  # (topics, experts)
    seen = attempts >= 100
    q = stats.config.instance.success_matrix().T[seen]
    return _binomial("service_success", state.cum_departures[seen], attempts[seen], q, 0.0)


def _binomial(name: str, hits, trials, p, floor: float) -> dict:
    """``hits/trials`` against ``p`` within four binomial standard errors,
    the variance floored at ``floor``. A row that judged no pair fails."""
    variance = p * (1 - p)
    tol = 4.0 * np.sqrt(np.maximum(variance, floor) / trials)
    # excess > 0 exactly when deviation > tol: a > b iff fl(a - b) > 0.
    excess = np.abs(hits / trials - p) - tol
    # Signed, negative is the margin left. Pairs at the floor deviate by 0, so
    # the floor alone would set their excess (near -4e-8 at 1e-12): left out.
    randomized = excess[variance > floor]
    worst = float(randomized.max()) if randomized.size else None
    return _row(name, excess.size and np.all(excess <= 0), measured_worst_excess=worst)
