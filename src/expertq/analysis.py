"""Drift estimation, stability classification, and boundary sweeps.

These are the harnesses that tie simulation output back to the analytic
capacity values: a one-slot drift estimator for the service-weighted
queue sum, an empirical stable/unstable verdict with an explicit
inconclusive band, a load sweep that brackets the capacity boundary, and
a stability check under certified misestimation of research times, and
the cross-checks that ``expertq verify`` reports.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .capacity import (
    RoutingPolicy,
    capacity_of,
    degraded_capacity,
    max_min_load,
    multi_capacity_dual,
    routing_policy_violations,
    service_load,
    single_capacity,
)
from .model import ArrivalSpec, ExpertProfile, Instance, config_field, merged_pmf
from .sched import Scheduler, offline_routing_scheduler, work_conserving_single
from .sim import SimConfig, TraceStats, run

__all__ = [
    "DriftReport",
    "StabilityVerdict",
    "SweepCell",
    "SweepResult",
    "MisestimationRun",
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
    """Empirical proxy for long-run queue stability.

    ``stable`` requires the fitted growth slope of the total queue over
    the final half to stay at or below the threshold; ``unstable``
    requires ten times the threshold; anything between, or too short a
    trace, is ``inconclusive``.
    """

    verdict: str
    growth_slope: float
    final_quarter_mean: float
    slope_threshold: float


def drift_check(stats: TraceStats, expert: int = 0) -> DriftReport:
    """Compare the simulated busy-slot drift against its analytic value.

    Requires a run recorded with ``record_lyapunov``; raises if the run
    had fewer than two busy slots or if its policy sends the expert a topic
    it cannot answer (the weighted sum is undefined there). The load, the
    expert's flow and its success probabilities come from the run's config.
    The mean and variance are formed exactly from ``busy_moments`` with the
    float weights 1.0/q(x); the mean and standard error are rounded once.
    """
    if stats.busy_moments is None:
        raise ValueError("drift check needs a run with record_lyapunov enabled")
    inst = stats.config.instance
    q = inst.success_matrix()[expert]
    load = service_load(_flow(inst, stats.config.scheduler)[expert], q)
    if load == math.inf:
        raise ValueError("drift undefined: mass-bearing topic with zero success prob")
    delta = 1.0 - inst.arrivals.lam * load
    (count, *first), *second = stats.busy_moments[expert].tolist()
    if count < 2:
        raise ValueError("not enough busy slots to estimate drift")
    w = [Fraction(1.0 / qx) if qx > 0.0 else Fraction(0) for qx in q.tolist()]
    total = sum(map(operator.mul, w, first))
    square = sum(wx * wy * s for wx, (_, *row) in zip(w, second) for wy, s in zip(w, row) if s)
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


def _given_threshold(slope_threshold: float | None) -> float | None:
    """A given slope threshold as a float; it must be finite and > 0."""
    threshold = None if slope_threshold is None else float(slope_threshold)
    if threshold is not None and not (0.0 < threshold < math.inf):
        raise ValueError(f"field 'slope_threshold' must be finite and > 0, got {threshold}")
    return threshold


def classify_stability(
    stats: TraceStats, *, slope_threshold: float | None = None
) -> StabilityVerdict:
    """Classify a finished run as stable, unstable, or inconclusive.

    The default threshold is 0.01 * lam requests per slot at the run's load;
    a given one must be finite and positive. The slope is a least-squares
    fit of the sampled total queue against time over the final half,
    formed exactly in integers and rounded once, so no BLAS call is made.
    """
    threshold = _given_threshold(slope_threshold) or 0.01 * stats.config.instance.arrivals.lam
    mask = stats.sample_times >= stats.config.horizon / 2
    # Python ints, so the sums below are exact and cannot overflow.
    t = stats.sample_times[mask].tolist()
    y = stats.total_queue_series[mask].tolist()
    n = len(t)
    final_quarter_mean = float(stats.mean_queue_final_quarter.sum())
    if n < 2:
        return StabilityVerdict("inconclusive", math.nan, final_quarter_mean, threshold)
    # Distinct sample times make the denominator positive; int / int rounds once.
    numerator = n * sum(map(operator.mul, t, y)) - sum(t) * sum(y)
    slope = numerator / (n * sum(map(operator.mul, t, t)) - sum(t) ** 2)
    if slope <= threshold:
        verdict = "stable"
    elif slope >= 10.0 * threshold:
        verdict = "unstable"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(verdict, slope, final_quarter_mean, threshold)


def with_load(inst: Instance, lam: float) -> Instance:
    """Copy an instance with a different request load."""
    return Instance(
        experts=inst.experts,
        arrivals=ArrivalSpec(lam=lam, pmf=inst.arrivals.pmf),
    )


@dataclass(frozen=True)
class SweepCell:
    lam: float
    seed: int
    verdict: str
    growth_slope: float
    final_quarter_mean: float
    empty_fraction: float


@dataclass(frozen=True)
class SweepResult:
    """Verdicts per (load, seed) plus the stability bracket.

    ``lambda_lo`` is the largest load every seed called stable and
    ``lambda_hi`` the smallest load every seed called unstable; either
    side is None when the grid never reached it. The true boundary should
    lie within the bracket widened by one grid step.
    """

    cells: tuple[SweepCell, ...]
    lambdas: tuple[float, ...]
    seeds: tuple[int, ...]
    lambda_lo: float | None
    lambda_hi: float | None


def _sweep_cell(config: SimConfig, slope_threshold: float | None) -> SweepCell:
    stats = run(config)
    verdict = classify_stability(stats, slope_threshold=slope_threshold)
    return SweepCell(
        lam=config.instance.arrivals.lam,
        seed=config.seed,
        verdict=verdict.verdict,
        growth_slope=verdict.growth_slope,
        final_quarter_mean=verdict.final_quarter_mean,
        empty_fraction=stats.empty_fraction,
    )


def capacity_boundary_sweep(
    inst: Instance,
    sched: Scheduler,
    lambdas,
    horizon: int,
    seeds,
    slope_threshold: float | None = None,
    sample_interval: int = 100,
) -> SweepResult:
    """Simulate a sorted load grid across seeds and bracket the boundary.

    One instance per load and every cell's run are built, and so checked,
    before the first one runs; the cells then run in order in this process.
    """
    lambdas = tuple(float(v) for v in lambdas)
    if list(lambdas) != sorted(lambdas):
        raise ValueError("load grid must be sorted ascending")
    seeds = tuple(int(s) for s in seeds)
    if not (lambdas and seeds):
        raise ValueError("a sweep needs at least one load and one seed")
    threshold = _given_threshold(slope_threshold)
    configs = [
        SimConfig(
            instance=loaded,
            scheduler=sched,
            horizon=horizon,
            seed=seed,
            sample_interval=sample_interval,
        )
        for loaded in [with_load(inst, lam) for lam in lambdas]
        for seed in seeds
    ]
    cells = tuple(_sweep_cell(config, threshold) for config in configs)

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
class MisestimationRun:
    seed: int
    estimated_capacity: float
    lam: float
    verdict: str
    growth_slope: float


@dataclass(frozen=True)
class MisestimationResult:
    runs: tuple[MisestimationRun, ...]

    @property
    def all_stable(self) -> bool:
        return all(r.verdict == "stable" for r in self.runs)


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

    For each seed, an estimate generator produces per-topic times bounded
    below by ``gamma`` times the truth. The run then drives the true system
    at ``LOAD_FRACTION`` of the :func:`degraded_capacity` of the
    estimates; every such load is guaranteed sustainable, so each run
    should classify stable. Every seed's estimate and run are built, and so
    checked, before the first one runs.
    """
    if inst.n_experts != 1:
        raise ValueError("misestimation check is defined for a single expert")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("misestimation check needs at least one seed")
    generator = _default_inflate if inflate is None else inflate
    true_times = inst.experts[0].mean_time
    p = inst.arrivals.pmf[0]
    sched = work_conserving_single(inst)

    planned = []
    for seed in seeds:
        # Checks the seed and horizon before numpy's seeding would.
        config = SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=seed)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 0x7E57]))
        )
        estimated = np.asarray(generator(true_times, gamma, rng), dtype=np.float64)
        if estimated.shape != true_times.shape:
            raise ValueError("estimate generator returned the wrong shape")
        if np.any(estimated < gamma * true_times - 1e-12):
            raise ValueError(
                "estimate generator violated its bound: some estimated time "
                "is below gamma times the true time"
            )
        q_hat = ExpertProfile.from_mean_times(0, estimated).success_prob
        estimated_capacity = single_capacity(p, q_hat).lambda_star
        lam = LOAD_FRACTION * degraded_capacity(p, q_hat, gamma)
        planned.append((estimated_capacity, replace(config, instance=with_load(inst, lam))))

    runs = []
    for estimated_capacity, config in planned:
        cell = _sweep_cell(config, None)
        runs.append(
            MisestimationRun(
                seed=cell.seed,
                estimated_capacity=estimated_capacity,
                lam=cell.lam,
                verdict=cell.verdict,
                growth_slope=cell.growth_slope,
            )
        )
    return MisestimationResult(runs=tuple(runs))


def verify(inst: Instance, cfg: dict, seed: int) -> list[dict]:
    """The checks of ``expertq verify``, one dict with ``name`` and
    ``passed`` each: the duality gap, then drift, service success and
    misestimation stability for one expert, or the validity, load,
    simulated frequencies and service success of a routing matrix for
    several. Service is checked on the run each path already makes.

    One expert's path reads ``drift`` and ``misestimation``, several
    experts' path ``routing_check``; each rejects the other's blocks, and
    other keys are ignored. So every field is read before the routing LP is
    solved once, on the per-door pmf the routing simulation uses. The
    routing run is built once its policy has passed its check."""
    path_checks = (_single_checks if inst.n_experts == 1 else _routing_checks)(inst, cfg, seed)
    optimal = multi_capacity_dual(merged_pmf(inst), list(inst.experts))
    return [_duality_gap(inst, optimal), *path_checks(optimal)]


def _single_checks(inst: Instance, cfg: dict, seed: int):
    """Read the ``drift`` and ``misestimation`` blocks and build the drift
    run; return the function from the LP result to their three rows."""
    if "routing_check" in cfg:
        raise ValueError("config field 'routing_check': only a multi-expert instance takes it")
    p, q = inst.arrivals.pmf[0], inst.experts[0].success_prob
    lam = config_field(cfg, "drift.lambda", "rate", 0.75 * single_capacity(p, q).lambda_star)
    drift_horizon = config_field(cfg, "drift.horizon", "count", 100_000)
    drift_run = SimConfig(
        instance=with_load(inst, lam),
        scheduler=work_conserving_single(inst),
        horizon=drift_horizon,
        seed=seed,
        record_lyapunov=True,
        sample_interval=drift_horizon,  # the rows read only its final moments and counts
    )
    gamma = config_field(cfg, "misestimation.gamma", "prob", GAMMA_DEFAULT)
    seeds = config_field(cfg, "misestimation.seeds", "seeds", [seed, seed + 1, seed + 2])
    mis_horizon = config_field(cfg, "misestimation.horizon", "count", 100_000)

    def checks(optimal) -> list[dict]:
        stats = run(drift_run)
        return [_drift(stats), _service(stats), _misestimation(inst, gamma, seeds, mis_horizon)]

    return checks


def _routing_checks(inst: Instance, cfg: dict, seed: int):
    """Read the ``routing_check`` block; return the function from the LP
    result to the rows of the matrix it gives, or of the LP's certificate."""
    for block in ("drift", "misestimation"):
        if block in cfg:
            raise ValueError(f"config field {block!r}: only a single-expert instance takes it")
    horizon = config_field(cfg, "routing_check.horizon", "count", 50_000)
    s = config_field(cfg, "routing_check.s", "rows", None)

    def checks(optimal) -> list[dict]:
        policy = optimal.certificate if s is None else RoutingPolicy(s=s)
        valid = _routing_policy_valid(inst, policy)
        if not valid["passed"]:
            return [valid]
        sched = offline_routing_scheduler(inst, policy)
        load = _certificate_load(inst, sched, optimal)
        # The rows read only the final counts, so one sample is kept.
        stats = run(SimConfig(inst, sched, horizon, seed, sample_interval=horizon))
        return [valid, load, _frequencies(stats, policy), _service(stats)]

    return checks


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
    report = drift_check(stats)
    return _row(
        "drift",
        report.within(4.0),
        measured=report.empirical_drift,
        expected=report.predicted_drift,
        tolerance=4.0 * report.std_error,
    )


def _misestimation(inst: Instance, gamma: float, seeds: list[int], horizon: int) -> dict:
    result = misestimation_check(inst, gamma, seeds=seeds, horizon=horizon)
    verdicts, loads = [r.verdict for r in result.runs], [r.lam for r in result.runs]
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
    the variance floored at ``floor``."""
    variance = p * (1 - p)
    tol = 4.0 * np.sqrt(np.maximum(variance, floor) / trials)
    # excess > 0 exactly when deviation > tol: a > b iff fl(a - b) > 0.
    excess = np.abs(hits / trials - p) - tol
    # Signed, negative is the margin left. Pairs at the floor deviate by 0, so
    # the floor alone would set their excess (near -4e-8 at 1e-12): left out.
    randomized = excess[variance > floor]
    worst = float(randomized.max()) if randomized.size else None
    return _row(name, np.all(excess <= 0), measured_worst_excess=worst)
