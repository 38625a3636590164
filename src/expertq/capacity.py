"""Analytic capacity computations for expert request queues.

Covers the sustainable-load calculations this package is built around:

* :func:`service_load` -- the load ``sum_x f(x)/q(x)`` per expert, and
  :func:`capacity_of`, its inverse; every capacity below goes through them.
* :func:`single_capacity` -- closed-form lossless capacity of one expert,
  the inverse of the service-weighted request mix ``sum_x p(x)/q(x)``.
* :func:`loss_capacity` -- the largest load one expert can carry when up to
  ``epsilon`` requests per slot may be dropped at the door, together with
  the per-topic admission probabilities that achieve it, in closed form.
* :func:`degraded_capacity` -- the guaranteed-achievable load when the
  mean research times are misestimated within a known factor.
* :func:`multi_capacity_dual` -- the coordinated multi-expert capacity from
  the load-balancing LP, whose solution doubles as a routing policy and
  whose duals are the expert weights of the max-min formulation.
* :func:`max_min_load` -- the max-min objective ``g(alpha)`` at any weight
  vector. By weak duality it never exceeds the LP optimum, and at the
  LP's own weights it equals it, so ``1/g(alpha*)`` certifies the LP's
  capacity exactly without a second solver.
* :func:`capacity_report` -- the capacity and certificate a config's
  ``mode`` names, as ``expertq capacity`` writes them.

All functions are pure, and those of a topic mass vector are scale-covariant
in it: feeding ``c * p`` divides every reported capacity by ``c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, solve_lp
from .model import ExpertProfile, Instance, _frozen_array, config_field, merged_pmf

__all__ = [
    "LossPolicy",
    "RoutingPolicy",
    "CapacityResult",
    "service_load",
    "capacity_of",
    "single_capacity",
    "loss_capacity",
    "degraded_capacity",
    "routing_lp",
    "multi_capacity_dual",
    "max_min_load",
    "routing_policy_violations",
    "capacity_report",
]

POLICY_TOL = 1e-7


@dataclass(frozen=True)
class LossPolicy:
    """Admission certificate: keep a topic-x arrival with probability mu[x]."""

    mu: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        mu = _frozen_array(self.mu)
        if not np.isfinite(mu).all():
            raise ValueError(f"admission probabilities must be finite, got {mu.tolist()}")
        if mu.size and (mu.min() < -1e-12 or mu.max() > 1.0 + 1e-12):
            raise ValueError("admission probabilities must lie in [0, 1]")
        if not 0 <= self.epsilon < math.inf:  # also rejects NaN
            raise ValueError(f"loss budget must be finite and non-negative, got {self.epsilon}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "epsilon", float(self.epsilon))


@dataclass(frozen=True)
class RoutingPolicy:
    """Routing certificate for coordinated experts.

    ``s`` has shape (n_experts, n_topics); column x is the distribution
    used to pick the destination expert for a topic-x arrival. ``alpha``
    is the optimal expert weight vector of the max-min formulation, on the
    unit simplex: the LP duals of the per-expert load rows, for which
    :func:`max_min_load` equals ``dual_mu``. ``dual_mu`` is the LP
    optimum (the smallest achievable worst-expert load per unit of
    offered traffic).
    """

    s: np.ndarray | None = None
    alpha: np.ndarray | None = None
    dual_mu: float | None = None

    def __post_init__(self) -> None:
        if self.s is not None:
            object.__setattr__(self, "s", _frozen_array(self.s))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _frozen_array(self.alpha))


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value plus the certificate achieving it, when one exists."""

    lambda_star: float
    certificate: LossPolicy | RoutingPolicy | None = None


def routing_policy_violations(
    policy: RoutingPolicy, success_matrix: np.ndarray
) -> list[str]:
    """Check a routing certificate against the experts it is meant for.

    Topics that no expert can answer are exempt from the column checks:
    for them "sums to one" and "zero wherever the expert is skill-less"
    cannot hold simultaneously.
    """
    violations: list[str] = []
    q = np.asarray(success_matrix, dtype=np.float64)
    n, n_topics = q.shape
    if policy.s is not None:
        s = policy.s
        if s.shape != (n, n_topics):
            return [f"routing matrix shape {s.shape}, expected {(n, n_topics)}"]
        if not np.isfinite(s).all():
            return ["routing matrix has non-finite entries"]
        if s.min() < -1e-12:
            violations.append(f"routing matrix has negative entry {s.min()}")
        for x in np.nonzero((q > 0).any(axis=0))[0]:
            col = float(s[:, x].sum())
            if abs(col - 1.0) > POLICY_TOL:
                violations.append(f"routing column for topic {x} sums to {col!r}")
            bad = np.nonzero((q[:, x] <= 0) & (s[:, x] > 0))[0]
            for i in bad:
                violations.append(
                    f"topic {x} routed to expert {i} with zero success probability"
                )
    if policy.alpha is not None:
        alpha = policy.alpha
        if alpha.shape != (n,):
            violations.append(f"alpha shape {alpha.shape}, expected ({n},)")
        elif not np.isfinite(alpha).all():
            violations.append("alpha has non-finite entries")
        else:
            if alpha.min() < -1e-12:
                violations.append(f"alpha has negative entry {alpha.min()}")
            if abs(float(alpha.sum()) - 1.0) > POLICY_TOL:
                violations.append(f"alpha sums to {float(alpha.sum())!r}")
    return violations


def service_load(flow, q):
    """Service load ``sum_x flow(x)/q(x)`` over the topics that carry flow,
    infinite where flow meets ``q(x) <= 0``. A float for one vector, one
    load per row for an (experts, topics) matrix."""
    flow = np.asarray(flow, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if flow.shape != q.shape:
        raise ValueError("topic mass and success vectors differ in length")
    loads = []
    for f, qr in zip(np.atleast_2d(flow), np.atleast_2d(q)):
        m = f > 0
        loads.append(math.inf if np.any(m & (qr <= 0)) else float(np.sum(f[m] / qr[m])))
    return loads[0] if flow.ndim == 1 else np.array(loads)


def capacity_of(load: float) -> float:
    """The load per unit of arrival rate turned into a capacity: ``1/load``."""
    return math.inf if load <= 0.0 else 1.0 / load


def single_capacity(p, q) -> CapacityResult:
    """Lossless capacity of a single expert.

    Returns the inverse of ``sum_x p(x)/q(x)`` over mass-bearing topics.
    If the expert cannot answer some topic that carries arrival mass, no
    positive load keeps the queues stable and the capacity is 0.
    """
    return CapacityResult(capacity_of(service_load(p, q)))


def loss_capacity(p, q, epsilon: float) -> CapacityResult:
    """Largest load sustainable by one expert given a per-slot loss budget.

    Maximizes ``lam`` subject to the kept traffic fitting into service
    (``lam * sum_x mu(x) p(x)/q(x) <= 1``) and the dropped traffic fitting
    into the budget (``lam * sum_x (1 - mu(x)) p(x) <= epsilon``), with
    per-topic admission probabilities ``mu(x)`` in [0, 1]. Topics the
    expert cannot answer are forced to ``mu(x) = 0``: their mass never
    touches the service constraint and counts entirely as loss.

    Solved in closed form by one greedy pass. Shedding a unit of topic-x
    mass lowers the service load by ``1/q(x)``, so the slowest topics go
    first (a fractional knapsack). With ``load`` the kept service load and
    ``shed`` the dropped mass, shedding pays until ``epsilon * load ==
    shed``, where both constraints bind; each take is the smaller of the
    topic's mass and the amount that reaches that balance. The capacity is
    then ``epsilon / shed``, or ``1 / load`` when nothing is shed, which at
    ``epsilon == 0`` is exactly :func:`single_capacity`.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("topic mass and success vectors differ in length")
    if not 0 <= epsilon < math.inf:  # also rejects NaN
        raise ValueError(f"loss budget must be finite and non-negative, got {epsilon}")
    epsilon = float(epsilon)

    mu = np.where(q > 0, 1.0, 0.0)
    served = (p > 0) & (q > 0)
    shed = float(np.sum(p[(p > 0) & (q <= 0)]))
    load = service_load(p * mu, q)
    idx = np.nonzero(served)[0]
    for x in idx[np.argsort(q[idx], kind="stable")]:
        mass, qx = float(p[x]), float(q[x])
        take = min(mass, (epsilon * load - shed) / (1.0 + epsilon / qx))
        if take <= 0.0:
            break
        mu[x] = 1.0 - take / mass
        load -= take / qx
        shed += take
        if take < mass:  # balanced; rounding must not shed the next topic
            break

    lam = epsilon / shed if shed > 0.0 else capacity_of(load)
    return CapacityResult(lam, LossPolicy(mu=mu, epsilon=epsilon))


def degraded_capacity(p, q_hat, gamma: float) -> float:
    """Guaranteed load under misestimated research times.

    ``q_hat`` comes from estimated times that are known to be no smaller
    than ``gamma`` times the truth; the returned value is ``gamma`` times
    the capacity computed from the estimates, which the true system is
    guaranteed to sustain.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    return gamma * single_capacity(p, q_hat).lambda_star


def routing_lp(
    p_merged, experts: list[ExpertProfile]
) -> tuple[LinearProgram, tuple[np.ndarray, np.ndarray]]:
    """Assemble the load-balancing LP behind :func:`multi_capacity_dual`.

    Variables are ``[mu, s_1, ..., s_K]`` where the s variables cover only
    (expert, topic) pairs with positive success probability, topic-major;
    pinning the others to zero keeps every coefficient finite. Minimizes
    the worst per-unit expert load ``mu`` subject to each topic's routing
    weights summing to one; both blocks hold one non-zero per pair. Returns
    the program and the (expert, topic) index arrays of the s variables.
    """
    p = np.asarray(p_merged, dtype=np.float64)
    qmat = np.vstack([e.success_prob for e in experts])
    n, n_topics = qmat.shape
    if p.shape[0] != n_topics:
        raise ValueError("topic mass vector does not match expert profiles")

    answerable = qmat > 0
    dead = (p > 0) & ~answerable.any(axis=0)
    if dead.any():
        raise ValueError(
            f"infeasible: topics {np.nonzero(dead)[0].tolist()} carry mass but "
            "no expert can answer them"
        )

    from scipy.sparse import csr_array  # lazily, as lp.solve_lp imports scipy

    topic, expert = np.nonzero(answerable.T)
    n_pairs = topic.shape[0]
    col = np.arange(1, n_pairs + 1)
    load = p[topic] / qmat[expert, topic]
    # HiGHS reads a coefficient of 1e-9 or less as 0. If a load is below 2e-9, one power
    # of two scales every load row, mu's -1 too, so that it reaches 2e-9 while the
    # largest stays below 1e12; mu and the normalised duals are unchanged. Else scale is 1.
    low, high = math.log2(load[load > 0].min(initial=1.0)), math.log2(load.max(initial=1.0))
    lift = min(math.ceil(math.log2(2e-9) - low), math.floor(math.log2(1e12) - high))
    scale = 2.0 ** max(0, lift)
    coef = np.concatenate([np.full(n, -scale), scale * load])
    ij = (np.concatenate([np.arange(n), expert]), np.concatenate([np.zeros(n, int), col]))
    ub = csr_array((coef, ij), shape=(n, 1 + n_pairs))  # (sum_x load_ix s_ix - mu) scale <= 0
    ub.eliminate_zeros()  # a mass-free topic adds no load: store no zero
    included, row = np.unique(topic, return_inverse=True)
    eq = csr_array((np.ones(n_pairs), (row, col)), shape=(included.shape[0], 1 + n_pairs))
    bounds = np.tile([0.0, 1.0], (1 + n_pairs, 1))
    bounds[0, 1] = np.inf  # mu has no upper bound
    return LinearProgram(
        objective=np.concatenate([[1.0], np.zeros(n_pairs)]),
        eq_matrix=eq,
        eq_rhs=np.ones(included.shape[0]),
        ub_matrix=ub,
        ub_rhs=np.zeros(n),
        bounds=bounds,
    ), (expert, topic)


def multi_capacity_dual(p_merged, experts: list[ExpertProfile]) -> CapacityResult:
    """Coordinated capacity via the load-balancing LP, with routing matrix.

    Solves :func:`routing_lp`; the optimal objective ``mu*`` is the
    smallest achievable worst-expert load per unit of offered traffic, so
    the capacity is ``1/mu*``. The returned certificate carries the
    optimal routing matrix and the optimal expert weights ``alpha*``, the
    normalized duals of the per-expert load rows (uniform when no topic
    carries mass, where every weight vector is optimal). Topics that
    nobody can answer (necessarily mass-free here) get a uniform routing
    column since no arrival will ever consult it.
    """
    p = np.asarray(p_merged, dtype=np.float64)
    n, n_topics = len(experts), p.shape[0]

    lp, (expert, topic) = routing_lp(p, experts)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"routing LP unexpectedly {sol.status}")

    mu_star, weights = float(sol.x[0]), sol.x[1:]
    s = np.zeros((n, n_topics))
    # Clip negatives only: np.maximum would turn the solver's -0.0 into 0.0.
    s[expert, topic] = np.where(weights < 0.0, 0.0, weights)
    # Per column: a whole-matrix sum rounds differently from 8 experts up.
    for x in range(n_topics):
        total = s[:, x].sum()
        s[:, x] = s[:, x] / total if total > 0 else 1.0 / n

    alpha = np.maximum(sol.ub_duals, 0.0)
    total = alpha.sum()
    alpha = alpha / total if total > 0 else np.full(n, 1.0 / n)

    lam = capacity_of(mu_star)
    return CapacityResult(lam, RoutingPolicy(s=s, alpha=alpha, dual_mu=mu_star))


def max_min_load(p_merged, experts: list[ExpertProfile], alpha) -> float:
    """The max-min objective ``g(alpha) = sum_x min_i alpha_i p(x)/q_i(x)``.

    The sum runs over mass-bearing topics and the minimum over the experts
    able to answer each (a topic nobody can answer contributes inf). For
    any ``alpha`` on the unit simplex, weak duality gives ``g(alpha) <=
    mu* <= max_i sum_x s[i, x] p(x)/q_i(x)`` for every feasible routing
    matrix ``s``; at the LP's ``alpha*`` the first inequality is tight, so
    ``1/g(alpha*)`` reproduces the coordinated capacity exactly.
    """
    p = np.asarray(p_merged, dtype=np.float64)
    qmat = np.vstack([e.success_prob for e in experts])
    alpha = np.asarray(alpha, dtype=np.float64)
    if p.shape != (qmat.shape[1],):
        raise ValueError("topic mass vector does not match expert profiles")
    if alpha.shape != (qmat.shape[0],):
        raise ValueError(f"alpha shape {alpha.shape}, expected ({qmat.shape[0]},)")

    q = qmat[:, p > 0]
    answerable = q > 0
    terms = np.divide(p[p > 0], q, out=np.zeros(q.shape), where=answerable) * alpha[:, None]
    # Set after the multiply, so a zero weight never meets an inf ratio.
    terms[~answerable] = np.inf
    return float(terms.min(axis=0).sum())


def capacity_report(inst: Instance, cfg: dict) -> dict:
    """What ``expertq capacity`` writes for a config: its ``mode``, the
    mode's certificate if it has one, and ``lambda_star``. ``single`` and
    ``loss`` (with the config's ``epsilon``) need one expert; the ``multi``
    modes report the system-level capacity, of the merged pmf normalised
    back to a distribution over topics, ``multi-primal`` as the max-min
    side at the LP's own weights. Raises ValueError on an unknown mode or
    an ``epsilon`` in any mode but ``loss``."""
    mode = config_field(cfg, "mode", "string")
    if mode not in ("single", "loss", "multi-primal", "multi-dual"):
        raise ValueError(f"config field 'mode': unknown mode {mode!r}")
    if "epsilon" in cfg and mode != "loss":
        raise ValueError(f"config field 'epsilon': only mode 'loss' takes it, not {mode!r}")
    if mode in ("single", "loss"):
        if inst.n_experts != 1:
            raise ValueError(f"config field 'mode': {mode!r} needs a single-expert instance")
        p, q = inst.arrivals.pmf[0], inst.experts[0].success_prob
        if mode == "single":
            return {"mode": mode, "lambda_star": single_capacity(p, q).lambda_star}
        result = loss_capacity(p, q, config_field(cfg, "epsilon", "budget"))
        certificate = {"mu": result.certificate.mu, "epsilon": result.certificate.epsilon}
        return {"mode": mode, "certificate": certificate, "lambda_star": result.lambda_star}
    p_system = merged_pmf(inst) / inst.n_experts
    result = multi_capacity_dual(p_system, list(inst.experts))
    cert, lam = result.certificate, result.lambda_star
    certificate = {"s": cert.s, "dual_mu": cert.dual_mu}
    if mode == "multi-primal":
        certificate = {"alpha": cert.alpha}
        lam = capacity_of(max_min_load(p_system, list(inst.experts), cert.alpha))
    return {"mode": mode, "certificate": certificate, "lambda_star": lam}


# Not API: the benchmark launcher still looks these names up to mark where
# verify-quad's set-up ends. The grid scan and its gap are test oracles now.
multi_capacity_primal = duality_gap = max_min_load
