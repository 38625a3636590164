"""Analytic capacity computations for expert request queues.

Covers the sustainable-load calculations this package is built around:

* :func:`single_capacity` -- closed-form lossless capacity of one expert,
  the inverse of the service-weighted request mix ``sum_x p(x)/q(x)``.
* :func:`loss_capacity` -- the largest load one expert can carry when up to
  ``epsilon`` requests per slot may be dropped at the door, together with
  the per-topic admission probabilities that achieve it, in closed form.
* :func:`degraded_capacity` -- the guaranteed-achievable load when the
  mean research times are misestimated within a known factor.
* :func:`multi_capacity_primal` / :func:`multi_capacity_dual` -- the
  coordinated multi-expert capacity, computed two independent ways: a
  concave max-min over expert weights solved by simplex grid search, and
  its dual linear program whose solution doubles as a routing policy.
* :func:`duality_gap` -- the discrepancy between the two routes, which
  strong duality says must vanish up to grid error.

All functions are pure and scale-covariant in the topic mass vector:
feeding ``c * p`` divides every reported capacity by ``c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, composition_blocks, solve_lp
from .model import ExpertProfile

__all__ = [
    "LossPolicy",
    "RoutingPolicy",
    "CapacityResult",
    "single_capacity",
    "loss_capacity",
    "degraded_capacity",
    "simplex_grid",
    "multi_capacity_primal",
    "routing_lp",
    "multi_capacity_dual",
    "duality_gap",
    "routing_policy_violations",
]

POLICY_TOL = 1e-7


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LossPolicy:
    """Admission certificate: keep a topic-x arrival with probability mu[x]."""

    mu: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        mu = _frozen(self.mu)
        if mu.size and (mu.min() < -1e-12 or mu.max() > 1.0 + 1e-12):
            raise ValueError("admission probabilities must lie in [0, 1]")
        if self.epsilon < 0:
            raise ValueError("loss budget must be non-negative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "epsilon", float(self.epsilon))


@dataclass(frozen=True)
class RoutingPolicy:
    """Routing certificate for coordinated experts.

    ``s`` has shape (n_experts, n_topics); column x is the distribution
    used to pick the destination expert for a topic-x arrival. ``alpha``
    is the weight vector from the max-min computation when that route
    produced the result. ``dual_mu`` is the dual objective (the optimal
    worst-expert load per unit of offered traffic).
    """

    s: np.ndarray | None = None
    alpha: np.ndarray | None = None
    dual_mu: float | None = None

    def __post_init__(self) -> None:
        if self.s is not None:
            object.__setattr__(self, "s", _frozen(self.s))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _frozen(self.alpha))


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
        if s.min() < -1e-12:
            violations.append(f"routing matrix has negative entry {s.min()}")
        answerable_topic = (q > 0).any(axis=0)
        for x in range(n_topics):
            if not answerable_topic[x]:
                continue
            col = float(s[:, x].sum())
            if abs(col - 1.0) > POLICY_TOL:
                violations.append(f"routing column for topic {x} sums to {col!r}")
            bad = np.nonzero((q[:, x] <= 0) & (s[:, x] > POLICY_TOL))[0]
            for i in bad:
                violations.append(
                    f"topic {x} routed to expert {i} with zero success probability"
                )
    if policy.alpha is not None:
        alpha = policy.alpha
        if alpha.shape != (n,):
            violations.append(f"alpha shape {alpha.shape}, expected ({n},)")
        else:
            if alpha.min() < -1e-12:
                violations.append(f"alpha has negative entry {alpha.min()}")
            if abs(float(alpha.sum()) - 1.0) > POLICY_TOL:
                violations.append(f"alpha sums to {float(alpha.sum())!r}")
    return violations


def single_capacity(p, q) -> CapacityResult:
    """Lossless capacity of a single expert.

    Returns the inverse of ``sum_x p(x)/q(x)`` over mass-bearing topics.
    If the expert cannot answer some topic that carries arrival mass, no
    positive load keeps the queues stable and the capacity is 0. Topics
    with ``p(x) == 0`` contribute nothing regardless of skill.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("topic mass and success vectors differ in length")
    mass = p > 0
    if np.any(mass & (q <= 0)):
        return CapacityResult(0.0)
    denom = float(np.sum(p[mass] / q[mass]))
    return CapacityResult(math.inf if denom == 0.0 else 1.0 / denom)


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
    if epsilon < 0:
        raise ValueError("loss budget must be non-negative")
    epsilon = float(epsilon)

    mu = np.where(q > 0, 1.0, 0.0)
    served = (p > 0) & (q > 0)
    shed = float(np.sum(p[(p > 0) & (q <= 0)]))
    load = float(np.sum(p[served] / q[served]))
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

    if shed > 0.0:
        lam = epsilon / shed
    else:
        lam = math.inf if load == 0.0 else 1.0 / load
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


def _grid_steps(n: int, resolution: float) -> int:
    if n < 1:
        raise ValueError("need at least one coordinate")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    return max(1, round(1.0 / resolution))


def simplex_grid(n: int, resolution: float) -> np.ndarray:
    """All weight vectors of length n on the unit simplex at step ~resolution.

    The actual step is ``1/k`` with ``k = round(1/resolution)``, so grid
    points sum to 1 exactly. Rows are in the order
    :func:`multi_capacity_primal` scans them.
    """
    k = _grid_steps(n, resolution)
    return np.vstack(list(composition_blocks(k, n))).astype(np.float64) / k


def multi_capacity_primal(
    p_merged, experts: list[ExpertProfile], resolution: float
) -> CapacityResult:
    """Coordinated capacity via grid search over expert weights.

    Maximizes ``sum_x min_i alpha_i p(x)/q_i(x)`` over the weight simplex,
    where the inner minimum ranges only over experts able to answer topic
    x (skill-less experts count as infinitely slow and are excluded). The
    capacity is the inverse of the maximum. Deliberately naive: this grid
    search is the independent oracle against which the dual linear program
    is certified, so it must share nothing with the LP path.

    Topics with arrival mass that no expert can answer yield capacity 0.
    Intended for small expert counts (the grid grows combinatorially;
    n <= 4 is the practical limit). The grid is scanned block by block, so
    memory grows as ``k**(n-2)`` for ``k = round(1/resolution)`` while time
    grows as ``k**(n-1)``.
    """
    p = np.asarray(p_merged, dtype=np.float64)
    qmat = np.vstack([e.success_prob for e in experts])
    n, n_topics = qmat.shape
    if p.shape[0] != n_topics:
        raise ValueError("topic mass vector does not match expert profiles")
    if n > 4:
        raise ValueError("grid search supports at most 4 experts")

    answerable = qmat > 0
    mass = p > 0
    if (mass & ~answerable.any(axis=0)).any():
        return CapacityResult(0.0)

    cols = np.nonzero(mass)[0]
    k = _grid_steps(n, resolution)
    if cols.size == 0:
        # The last grid point: all weight on the first expert.
        alpha = np.zeros(n)
        alpha[0] = 1.0
        return CapacityResult(math.inf, RoutingPolicy(alpha=alpha))

    ratio = np.zeros((n, cols.size), dtype=np.float64)
    ans = answerable[:, cols]
    mass_rows = np.broadcast_to(p[cols], (n, cols.size))
    ratio[ans] = mass_rows[ans] / qmat[:, cols][ans]

    # argmax keeps the first maximum within a chunk and the strict ``>``
    # across chunks, so the first best grid point wins.
    best_obj = -math.inf
    best_alpha = np.zeros(n)  # the first grid point: all weight on the last expert
    best_alpha[-1] = 1.0
    chunk = max(1, 200_000 // max(1, cols.size))
    for block in composition_blocks(k, n):
        weights = block.astype(np.float64) / k
        for start in range(0, weights.shape[0], chunk):
            alphas = weights[start : start + chunk]
            terms = alphas[:, :, None] * ratio[None, :, :]
            terms[:, ~ans] = np.inf
            objs = terms.min(axis=1).sum(axis=1)
            j = int(np.argmax(objs))
            if objs[j] > best_obj:
                best_obj = float(objs[j])
                best_alpha = alphas[j].copy()

    lam = math.inf if best_obj <= 0.0 else 1.0 / best_obj
    return CapacityResult(lam, RoutingPolicy(alpha=best_alpha))


def routing_lp(
    p_merged, experts: list[ExpertProfile]
) -> tuple[LinearProgram, list[tuple[int, int]]]:
    """Assemble the load-balancing LP behind :func:`multi_capacity_dual`.

    Variables are ``[mu, s_1, ..., s_K]`` where the s variables cover only
    (expert, topic) pairs with positive success probability; pinning the
    others to zero keeps every coefficient finite. Minimizes the worst
    per-unit expert load ``mu`` subject to each topic's routing weights
    summing to one. Returns the program and the (expert, topic) pair per
    s variable.
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

    pairs = [
        (i, x) for x in range(n_topics) if answerable[:, x].any()
        for i in range(n)
        if answerable[i, x]
    ]
    included_topics = sorted({x for _, x in pairs})
    n_vars = 1 + len(pairs)

    ub = np.zeros((n, n_vars))
    ub[:, 0] = -1.0
    for k, (i, x) in enumerate(pairs):
        ub[i, k + 1] = p[x] / qmat[i, x]
    eq = np.zeros((len(included_topics), n_vars))
    topic_row = {x: r for r, x in enumerate(included_topics)}
    for k, (_, x) in enumerate(pairs):
        eq[topic_row[x], k + 1] = 1.0

    objective = np.zeros(n_vars)
    objective[0] = 1.0
    bounds = [(0.0, None)] + [(0.0, 1.0)] * len(pairs)
    lp = LinearProgram(
        objective=objective,
        eq_matrix=eq,
        eq_rhs=np.ones(len(included_topics)),
        ub_matrix=ub,
        ub_rhs=np.zeros(n),
        bounds=tuple(bounds),
    )
    return lp, pairs


def multi_capacity_dual(p_merged, experts: list[ExpertProfile]) -> CapacityResult:
    """Coordinated capacity via the load-balancing LP, with routing matrix.

    Solves :func:`routing_lp`; the optimal objective ``mu*`` is the
    smallest achievable worst-expert load per unit of offered traffic, so
    the capacity is ``1/mu*``. Strong duality makes this agree with
    :func:`multi_capacity_primal` up to that oracle's grid error. The
    returned certificate carries the optimal routing matrix; topics that
    nobody can answer (necessarily mass-free here) get a uniform column
    since no arrival will ever consult it.
    """
    p = np.asarray(p_merged, dtype=np.float64)
    qmat = np.vstack([e.success_prob for e in experts])
    n, n_topics = qmat.shape

    lp, pairs = routing_lp(p, experts)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise RuntimeError(f"routing LP unexpectedly {sol.status}")

    mu_star = float(sol.x[0])
    s = np.zeros((n, n_topics))
    for k, (i, x) in enumerate(pairs):
        s[i, x] = max(float(sol.x[k + 1]), 0.0)
    for x in range(n_topics):
        total = s[:, x].sum()
        if total > 0:
            s[:, x] /= total
        else:
            s[:, x] = 1.0 / n

    lam = math.inf if mu_star <= 0.0 else 1.0 / mu_star
    return CapacityResult(lam, RoutingPolicy(s=s, dual_mu=mu_star))


def duality_gap(p_merged, experts: list[ExpertProfile], resolution: float) -> float:
    """Absolute disagreement between the grid-search and LP capacity routes."""
    primal = multi_capacity_primal(p_merged, experts, resolution)
    dual = multi_capacity_dual(p_merged, experts)
    if math.isinf(primal.lambda_star) and math.isinf(dual.lambda_star):
        return 0.0
    return abs(primal.lambda_star - dual.lambda_star)
