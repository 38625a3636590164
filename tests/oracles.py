"""Naive oracles the test suite certifies the production code against.

Nothing in ``expertq`` imports this module. It holds two deliberately naive
searches that share no code with the routes they check:

* :func:`brute_force_lp` -- the best feasible point of a small LP on a grid,
  against :func:`expertq.lp.solve_lp`.
* :func:`multi_capacity_primal` -- the coordinated capacity as a max-min over
  expert weights on a simplex grid, against the routing LP and its duality
  certificate :func:`expertq.capacity.max_min_load`.

Both scan their grids in bounded blocks and refuse a grid too large to scan.

It also holds per-element scans, the references for the bisections
:class:`expertq.sched.Scheduler` routes and selects by: :func:`route_scan`,
:func:`weighted_scan` and :func:`longest_scan`; and :func:`drift_record`,
the reference for the drift record a recording run keeps, rebuilt from the
states :func:`expertq.sim.steps` replays.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from expertq.capacity import CapacityResult, RoutingPolicy, multi_capacity_dual
from expertq.lp import LinearProgram, LpSolution
from expertq.model import ExpertProfile
from expertq.sim import SimConfig, steps

FEAS_TOL = 1e-7
MAX_GRID_POINTS = 20_000_000
# Grid points evaluated at once by the LP oracle.
GRID_CHUNK = 65_536
# Grid-point x topic products the primal scan evaluates at once.
PRIMAL_CHUNK_ELEMENTS = 50_000


def _simplex_partition(lp: LinearProgram) -> tuple[list[list[int]], list[int]]:
    """Split variables into unit-sum groups and free variables.

    Every equality row must be a disjoint 0/1 row with rhs 1 (a simplex
    constraint); anything else is outside the oracle's remit.
    """
    groups: list[list[int]] = []
    claimed: set[int] = set()
    for row, rhs in zip(lp.eq_matrix.toarray(), lp.eq_rhs):
        members = np.nonzero(np.abs(row) > 1e-12)[0]
        if abs(rhs - 1.0) > 1e-12 or not np.allclose(row[members], 1.0, atol=1e-12):
            raise ValueError("oracle handles only unit-sum (simplex) equality rows")
        if claimed.intersection(members):
            raise ValueError("oracle requires disjoint simplex groups")
        claimed.update(int(j) for j in members)
        groups.append([int(j) for j in members])
    free = [j for j in range(lp.n_vars) if j not in claimed]
    return groups, free


def composition_blocks(total: int, parts: int) -> Iterator[np.ndarray]:
    """All non-negative int64 vectors of length ``parts`` summing to ``total``.

    Rows come in lexicographic order, one block per value of the leading
    coordinate (a single block when ``parts <= 2``), so a caller that scans
    the blocks holds O(total**(parts-2)) rows at a time instead of all
    O(total**(parts-1)).
    """
    if parts < 1:
        raise ValueError(f"compositions need at least one part, got {parts}")
    if parts <= 2:
        yield _compositions(total, parts)
    else:
        for first in range(total + 1):
            rest = _compositions(total - first, parts - 1)
            head = np.full(rest.shape[0], first, dtype=np.int64)
            yield np.column_stack([head, rest])


def _compositions(total: int, parts: int) -> np.ndarray:
    """All compositions of ``total`` into ``parts``, in lexicographic order.

    Each coordinate but the last is one vectorized step: a row with
    ``left`` units still to place is repeated ``left + 1`` times and the
    copies take the values ``0, 1, ..., left``. The last coordinate takes
    what is left.
    """
    left = np.array([total], dtype=np.int64)
    cols: list[np.ndarray] = []
    for _ in range(parts - 1):
        counts = left + 1
        rows = np.repeat(np.arange(left.shape[0]), counts)
        ends = np.cumsum(counts)
        value = np.arange(ends[-1], dtype=np.int64) - np.repeat(ends - counts, counts)
        cols = [c[rows] for c in cols] + [value]
        left = left[rows] - value
    return np.column_stack(cols + [left])


def _check_grid_size(points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"{points} grid points; coarsen the resolution (limit {MAX_GRID_POINTS})"
        )


def brute_force_lp(lp: LinearProgram, resolution: float) -> LpSolution:
    """Grid-search oracle over the feasible box.

    Simplex equality groups are enumerated exactly on the unit simplex at
    roughly the requested resolution; remaining variables sweep their
    bounded range (unbounded ranges are capped from the constraint data).
    At most 4 free dimensions are supported; more is an error, and so is
    an axis or a grid of more than ``MAX_GRID_POINTS`` points, counted
    before the axis is built. The result
    is the best feasible grid point, so its objective is only accurate to
    a resolution-dependent tolerance.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    groups, free = _simplex_partition(lp)
    if any(not g for g in groups):
        # An equality row with no variables reads 0 = 1.
        return LpSolution(status="infeasible", x=None, objective_value=None)
    free_dims = len(free) + sum(len(g) - 1 for g in groups)
    if free_dims > 4:
        raise ValueError(f"{free_dims} free dimensions exceed the oracle limit of 4")

    # Cap for unbounded variables, derived from the numbers in the problem.
    finite = [abs(v) for v in np.concatenate([lp.ub_rhs, lp.eq_rhs])]
    finite += [abs(lo) for lo, _ in lp.bounds]
    finite += [abs(hi) for _, hi in lp.bounds if hi != np.inf]
    cap = 2.0 * max([1.0] + finite)

    axes_vars: list[list[int]] = []
    axes_vals: list[np.ndarray] = []
    for j in free:
        lo, hi = lp.bounds[j]
        hi = cap if hi == np.inf else hi
        count = int(np.floor((hi - lo) / resolution)) + 1
        _check_grid_size(count)
        vals = lo + resolution * np.arange(count, dtype=np.float64)
        if vals[-1] < hi - 1e-12:
            vals = np.append(vals, hi)
        axes_vars.append([j])
        axes_vals.append(vals.reshape(-1, 1))
    steps = max(1, round(1.0 / resolution))
    for g in groups:
        _check_grid_size(math.comb(steps + len(g) - 1, len(g) - 1))
        combos = np.vstack(list(composition_blocks(steps, len(g))))
        combos = combos.astype(np.float64) / steps
        ok = np.ones(combos.shape[0], dtype=bool)
        for k, j in enumerate(g):
            lo, hi = lp.bounds[j]
            hi = min(hi, 1.0)
            ok &= (combos[:, k] >= lo - 1e-12) & (combos[:, k] <= hi + 1e-12)
        combos = combos[ok]
        if combos.shape[0] == 0:
            return LpSolution(status="infeasible", x=None, objective_value=None)
        axes_vars.append(list(g))
        axes_vals.append(combos)

    total = 1
    for vals in axes_vals:
        total *= vals.shape[0]
    _check_grid_size(total)
    if total == 0:
        return LpSolution(status="infeasible", x=None, objective_value=None)

    # Scan the flat Cartesian index range in chunks; the strict ``<`` across
    # chunks and argmin's first-minimum rule within one keep the first best
    # point in index order.
    best_obj = np.inf
    best_x = None
    for start in range(0, total, GRID_CHUNK):
        flat = np.arange(start, min(start + GRID_CHUNK, total))
        points = np.zeros((flat.shape[0], lp.n_vars), dtype=np.float64)
        stride = total
        for vars_, vals in zip(axes_vars, axes_vals):
            size = vals.shape[0]
            stride //= size
            points[:, vars_] = vals[(flat // stride) % size]

        feasible = np.ones(flat.shape[0], dtype=bool)
        if lp.ub_matrix.shape[0]:
            feasible &= np.all(points @ lp.ub_matrix.T <= lp.ub_rhs + FEAS_TOL, axis=1)
        if not feasible.any():
            continue
        objective = points @ lp.objective
        objective[~feasible] = np.inf
        j = int(np.argmin(objective))
        if best_x is None or objective[j] < best_obj:
            best_obj = objective[j]
            best_x = points[j].copy()

    if best_x is None:
        return LpSolution(status="infeasible", x=None, objective_value=None)
    return LpSolution(
        status="optimal", x=best_x, objective_value=float(lp.objective @ best_x)
    )


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
    capacity is the inverse of the maximum.

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
    # across chunks, so the first best grid point wins. The minimum over
    # experts is kept running in a (chunk, topics) buffer, with no
    # (chunk, experts, topics) cube; a skill-less expert's product is set
    # to inf after multiplying, so 0 * inf never occurs.
    best_obj = -math.inf
    best_alpha = np.zeros(n)  # the first grid point: all weight on the last expert
    best_alpha[-1] = 1.0
    chunk = max(1, PRIMAL_CHUNK_ELEMENTS // cols.size)
    for block in composition_blocks(k, n):
        for start in range(0, block.shape[0], chunk):
            alphas = block[start : start + chunk].astype(np.float64) / k
            least = np.full((alphas.shape[0], cols.size), np.inf)
            term = np.empty_like(least)
            for i in range(n):
                np.multiply(alphas[:, i, None], ratio[i], out=term)
                term[:, ~ans[i]] = np.inf
                np.minimum(least, term, out=least)
            objs = least.sum(axis=1)
            j = int(np.argmax(objs))
            if objs[j] > best_obj:
                best_obj = float(objs[j])
                best_alpha = alphas[j].copy()

    lam = math.inf if best_obj <= 0.0 else 1.0 / best_obj
    return CapacityResult(lam, RoutingPolicy(alpha=best_alpha))


def duality_gap(p_merged, experts: list[ExpertProfile], resolution: float) -> float:
    """Absolute disagreement between the grid-search and LP capacity routes."""
    primal = multi_capacity_primal(p_merged, experts, resolution)
    dual = multi_capacity_dual(p_merged, experts)
    if math.isinf(primal.lambda_star) and math.isinf(dual.lambda_star):
        return 0.0
    return abs(primal.lambda_star - dual.lambda_star)


def route_scan(column, u: float) -> int:
    """The expert a routing draw ``u`` goes to by scanning the cumulative
    weights of ``column``: the first whose cumulative weight exceeds u, or
    the last expert when none does."""
    for i, edge in enumerate(np.cumsum(np.asarray(column, dtype=np.float64)).tolist()):
        if u < edge:
            return i
    return len(column) - 1


def weighted_scan(queue_row: list[int], target: float) -> int:
    """The first queue whose running request count exceeds ``target``."""
    acc = 0.0
    for x, count in enumerate(queue_row):
        acc += count
        if target < acc:
            return x
    raise AssertionError(f"target {target!r} is not below the row total {acc!r}")


def longest_scan(queue_row: list[int]) -> int:
    """The longest queue, the first one on ties."""
    best, best_count = 0, -1
    for x, count in enumerate(queue_row):
        if count > best_count:
            best, best_count = x, count
    return best


def drift_record(config: SimConfig) -> tuple[tuple[int, int, int], ...]:
    """``busy_moments`` of ``config`` run with ``record_lyapunov``, from the
    states ``steps(config)`` replays: expert i is busy at a slot's start when
    the previous state's column i totals above 0, and that slot adds (1, dL,
    dL^2) to its record, dL = sum_x W_x (q_after - q_before) over column i.
    W_x = fl(1/q_x) * 2**52, 0 where q_x = 0, as ``TraceStats`` defines it."""
    weights = []
    for expert in config.instance.experts:
        row = []
        for q in expert.success_prob.tolist():
            # 1.0 / q >= 1 is num / den with den a power of two at most 2**52.
            num, den = (1.0 / q).as_integer_ratio() if q else (0, 1)
            row.append(num * 2**52 // den)
        weights.append(row)
    n = config.instance.n_experts
    moments = [[0, 0, 0] for _ in range(n)]
    before = np.zeros((config.instance.n_topics, n), dtype=np.int64)
    for state, _ in steps(config):
        for i in range(n):
            if before[:, i].sum() > 0:
                change = (state.q[:, i] - before[:, i]).tolist()
                d = sum(w * c for w, c in zip(weights[i], change))
                moments[i][0] += 1
                moments[i][1] += d
                moments[i][2] += d * d
        before = state.q
    return tuple(tuple(m) for m in moments)
