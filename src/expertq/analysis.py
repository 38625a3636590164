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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capacity import (
    RoutingPolicy,
    degraded_capacity,
    max_min_load,
    multi_capacity_dual,
    routing_policy_violations,
    single_capacity,
)
from .model import ArrivalSpec, Instance, merged_pmf
from .sched import Scheduler, offline_routing_scheduler, work_conserving_single
from .sim import SimConfig, TraceStats, geometric_service_check, run

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
    lyapunov_series: np.ndarray

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


def drift_check(stats: TraceStats, p, q, lam: float, expert: int = 0) -> DriftReport:
    """Compare the simulated busy-slot drift against its analytic value.

    Requires a run recorded with ``record_lyapunov``; raises if the trace
    lacks per-slot samples or if some mass-bearing topic has zero
    success probability (the weighted sum is undefined there). On
    multi-expert runs, checks the given expert against the topic mass and
    success vector her queues actually see.
    """
    if stats.lyapunov_series is None or stats.busy_series is None:
        raise ValueError("drift check needs a run with record_lyapunov enabled")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any((p > 0) & (q <= 0)):
        raise ValueError("drift undefined: mass-bearing topic with zero success prob")
    mass = p > 0
    total_ratio = float(np.sum(p[mass] / q[mass]))
    delta = 1.0 - lam * total_ratio

    level = stats.lyapunov_series[:, expert]
    busy = stats.busy_series[:, expert]
    steps = np.diff(level)[busy]
    if steps.size < 2:
        raise ValueError("not enough busy slots to estimate drift")
    empirical = float(steps.mean())
    std_error = float(steps.std(ddof=1) / math.sqrt(steps.size))
    return DriftReport(
        empirical_drift=empirical,
        predicted_drift=-delta,
        delta=delta,
        busy_slots=int(steps.size),
        std_error=std_error,
        lyapunov_series=level,
    )


def classify_stability(
    stats: TraceStats, lam: float, slope_threshold: float | None = None
) -> StabilityVerdict:
    """Classify a finished run as stable, unstable, or inconclusive.

    The default threshold is 0.01 * lam requests per slot. The slope is a
    least-squares fit of the sampled total queue against time over the
    final half of the horizon.
    """
    threshold = 0.01 * lam if slope_threshold is None else float(slope_threshold)
    times = stats.sample_times
    totals = stats.total_queue_series
    mask = times >= stats.horizon / 2
    final_quarter_mean = float(stats.mean_queue_final_quarter.sum())
    if int(mask.sum()) < 2:
        return StabilityVerdict("inconclusive", math.nan, final_quarter_mean, threshold)
    slope = float(np.polyfit(times[mask], totals[mask].astype(np.float64), 1)[0])
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


def _sweep_cell(args) -> SweepCell:
    inst, sched, lam, seed, horizon, sample_interval, slope_threshold = args
    stats = run(
        SimConfig(
            instance=with_load(inst, lam),
            scheduler=sched,
            horizon=horizon,
            seed=seed,
            sample_interval=sample_interval,
        )
    )
    verdict = classify_stability(stats, lam, slope_threshold)
    return SweepCell(
        lam=lam,
        seed=seed,
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
    workers: int = 1,
) -> SweepResult:
    """Simulate a sorted load grid across seeds and bracket the boundary.

    Cells are independent runs (seeded per cell), so ``workers > 1``
    executes them in a process pool without changing any result. The pool
    never has more processes than CPUs or cells.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    lambdas = tuple(float(v) for v in lambdas)
    if list(lambdas) != sorted(lambdas):
        raise ValueError("load grid must be sorted ascending")
    seeds = tuple(int(s) for s in seeds)
    jobs = [
        (inst, sched, lam, seed, horizon, sample_interval, slope_threshold)
        for lam in lambdas
        for seed in seeds
    ]
    workers = min(workers, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = tuple(pool.map(_sweep_cell, jobs))
    else:
        cells = tuple(_sweep_cell(job) for job in jobs)

    lambda_lo = None
    lambda_hi = None
    for lam in lambdas:
        verdicts = [c.verdict for c in cells if c.lam == lam]
        if verdicts and all(v == "stable" for v in verdicts):
            lambda_lo = lam if lambda_lo is None else max(lambda_lo, lam)
        if verdicts and all(v == "unstable" for v in verdicts):
            lambda_hi = lam if lambda_hi is None else min(lambda_hi, lam)
    return SweepResult(
        cells=cells,
        lambdas=lambdas,
        seeds=seeds,
        lambda_lo=lambda_lo,
        lambda_hi=lambda_hi,
    )


def policy_load(inst: Instance, sched: Scheduler) -> float:
    """Worst per-expert service load per unit of arrival rate under a policy.

    Expert i's load is ``sum_x f[i, x] * mu[x] / q[i, x]``, where the flow
    ``f`` is the arrival pmf when the policy keeps requests at their door
    expert and ``merged_pmf(inst) * s`` when it routes them, and ``mu`` is
    1 when the policy admits everything. Flow sent to an expert that cannot
    answer its topic makes the load infinite.
    """
    qmat = inst.success_matrix()
    flow = inst.arrivals.pmf if sched.s is None else merged_pmf(inst) * sched.s
    if sched.mu is not None:
        flow = flow * sched.mu
    worst = 0.0
    for i in range(inst.n_experts):
        load = 0.0
        for x in range(inst.n_topics):
            if flow[i, x] <= 0.0:
                continue
            if qmat[i, x] <= 0.0:
                return math.inf
            load += flow[i, x] / qmat[i, x]
        worst = max(worst, load)
    return worst


def analytic_boundary(inst: Instance, sched: Scheduler) -> float:
    """Capacity of the instance under the given policy, in arrival-load units.

    The reciprocal of :func:`policy_load`: for a single expert this is the
    closed-form capacity (with admission probabilities folded into the
    topic masses for a loss policy), and for the optimal routing matrix it
    coincides with the coordinated capacity.
    """
    load = policy_load(inst, sched)
    return math.inf if load == 0.0 else 1.0 / load


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
    gamma: float

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
    below by ``gamma`` times the truth (anything violating that bound is
    rejected before any simulation). The run then drives the true system
    at ``LOAD_FRACTION`` of the :func:`degraded_capacity` of the
    estimates; every such load is guaranteed sustainable, so each run
    should classify stable.
    """
    if inst.n_experts != 1:
        raise ValueError("misestimation check is defined for a single expert")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    generator = _default_inflate if inflate is None else inflate
    true_times = inst.experts[0].mean_time
    p = inst.arrivals.pmf[0]
    sched = work_conserving_single(inst)

    runs = []
    for seed in seeds:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), 0x7E57]))
        )
        estimated = np.asarray(generator(true_times, gamma, rng), dtype=np.float64)
        if estimated.shape != true_times.shape:
            raise ValueError("estimate generator returned the wrong shape")
        if np.any(estimated < gamma * true_times - 1e-12):
            raise ValueError(
                "estimate generator violated its bound: some estimated time "
                "is below gamma times the true time"
            )
        with np.errstate(divide="ignore"):
            q_hat = np.where(np.isfinite(estimated), 1.0 / estimated, 0.0)
        lam = LOAD_FRACTION * degraded_capacity(p, q_hat, gamma)
        # A sample every 100 slots, and classify_stability's default threshold.
        cell = _sweep_cell((inst, sched, lam, int(seed), horizon, 100, None))
        runs.append(
            MisestimationRun(
                seed=cell.seed,
                estimated_capacity=single_capacity(p, q_hat).lambda_star,
                lam=lam,
                verdict=cell.verdict,
                growth_slope=cell.growth_slope,
            )
        )
    return MisestimationResult(runs=tuple(runs), gamma=float(gamma))


def verify(inst: Instance, cfg: dict, seed: int) -> list[dict]:
    """The checks of ``expertq verify``, one dict with ``name`` and
    ``passed`` each: the duality gap and geometric service times always,
    then drift and misestimation stability for one expert, or the validity,
    load and simulated frequencies of a routing matrix for several.

    The routing LP is solved once, on the per-door pmf the routing
    simulation uses. The duality gap compares the LP's capacity with the
    one its own expert weights certify, ``1/max_min_load(alpha*)``, in
    system units, where the capacity is ``n`` times the per-door one."""
    checks: list[dict] = []
    experts = list(inst.experts)
    n = inst.n_experts

    merged = merged_pmf(inst)
    optimal = multi_capacity_dual(merged, experts)
    system = n * optimal.lambda_star
    load = max_min_load(merged, experts, optimal.certificate.alpha)
    certified = math.inf if load == 0.0 else n / load
    gap = 0.0 if certified == system else abs(certified - system)  # inf == inf
    gap_tol = 1e-9 * system
    checks.append(
        {
            "name": "duality_gap",
            "passed": bool(gap <= gap_tol),
            "measured": gap,
            "tolerance": gap_tol,
        }
    )

    geom_cfg = cfg.get("geometric", {})
    trials = int(geom_cfg.get("trials", 1_000_000))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    for q_val in geom_cfg.get("q_values", [1.0, 0.5, 0.1]):
        q_val = float(q_val)
        mean = geometric_service_check(q_val, trials, rng)
        tol = 4.0 * math.sqrt(1.0 - q_val) / q_val / math.sqrt(trials)
        checks.append(
            {
                "name": f"geometric_service_q={q_val}",
                "passed": bool(abs(mean - 1.0 / q_val) <= tol),
                "measured": mean,
                "expected": 1.0 / q_val,
                "tolerance": tol,
            }
        )

    if n == 1:
        p = inst.arrivals.pmf[0]
        q = inst.experts[0].success_prob
        drift_cfg = cfg.get("drift", {})
        lam = float(drift_cfg.get("lambda", 0.75 * single_capacity(p, q).lambda_star))
        horizon = int(drift_cfg.get("horizon", 100_000))
        stats = run(
            SimConfig(
                instance=with_load(inst, lam),
                scheduler=work_conserving_single(inst),
                horizon=horizon,
                seed=seed,
                record_lyapunov=True,
            )
        )
        report = drift_check(stats, p, q, lam)
        checks.append(
            {
                "name": "drift",
                "passed": bool(report.within(4.0)),
                "measured": report.empirical_drift,
                "expected": report.predicted_drift,
                "tolerance": 4.0 * report.std_error,
            }
        )

        mis_cfg = cfg.get("misestimation", {})
        result = misestimation_check(
            inst,
            gamma=float(mis_cfg.get("gamma", GAMMA_DEFAULT)),
            seeds=mis_cfg.get("seeds", [seed, seed + 1, seed + 2]),
            horizon=int(mis_cfg.get("horizon", 100_000)),
        )
        checks.append(
            {
                "name": "misestimation_stability",
                "passed": bool(result.all_stable),
                "measured": [r.verdict for r in result.runs],
                "loads": [r.lam for r in result.runs],
            }
        )
    else:
        routing_cfg = cfg.get("routing_check", {})
        if "s" in routing_cfg:
            policy = RoutingPolicy(s=np.asarray(routing_cfg["s"], dtype=np.float64))
        else:
            policy = optimal.certificate
        problems = routing_policy_violations(policy, inst.success_matrix())
        checks.append(
            {
                "name": "routing_policy_valid",
                "passed": not problems,
                "measured": problems,
            }
        )
        if not problems:
            sched = offline_routing_scheduler(inst, policy)
            load = policy_load(inst, sched)
            bound = optimal.certificate.dual_mu * (1.0 + 1e-6) + 1e-9
            checks.append(
                {
                    "name": "routing_certificate_load",
                    "passed": bool(load <= bound),
                    "measured": load,
                    "tolerance": bound,
                }
            )
            horizon = int(routing_cfg.get("horizon", 50_000))
            stats = run(
                SimConfig(instance=inst, scheduler=sched, horizon=horizon, seed=seed)
            )
            counts = stats.final_state.cum_arrivals  # (topics, experts)
            # Signed, negative is the margin left; taken over randomized
            # shares only, since a share of 0 or 1 has deviation 0 and its
            # variance floor would hold the maximum near -4e-8.
            worst = -math.inf
            ok = True
            for x in range(inst.n_topics):
                total = counts[x].sum()
                if total < 100:
                    continue
                for i in range(n):
                    share = policy.s[i, x]
                    observed = counts[x, i] / total
                    variance = share * (1 - share)
                    tol = 4.0 * math.sqrt(max(variance, 1e-12) / total)
                    dev = abs(observed - share)
                    if variance > 1e-12:
                        worst = max(worst, dev - tol)
                    if dev > tol:
                        ok = False
            checks.append(
                {
                    "name": "routing_frequencies",
                    "passed": ok,
                    "measured_worst_excess": None if worst == -math.inf else worst,
                }
            )
    return checks
