"""Small dense linear programs and an independent grid-search oracle.

The production path (:func:`solve_lp`) wraps scipy's HiGHS backend behind a
fixed container type, so results are deterministic for identical inputs.
The oracle (:func:`brute_force_lp`) is a deliberately naive feasible-grid
search used by the test suite to certify solver output; it shares no code
with the solver.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "solve_lp", "brute_force_lp"]

FEAS_TOL = 1e-7
MAX_GRID_POINTS = 20_000_000
# Grid points evaluated at once by the oracle.
GRID_CHUNK = 65_536


@dataclass(frozen=True)
class LinearProgram:
    """Minimize ``objective @ x`` subject to equality and <= constraints.

    ``bounds[j]`` is a ``(lo, hi)`` pair per variable; ``hi`` may be None
    for an unbounded variable. Empty constraint blocks are represented by
    (0, n) matrices.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ub_matrix: np.ndarray
    ub_rhs: np.ndarray
    bounds: tuple[tuple[float, float | None], ...]

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=np.float64)
        n = c.shape[0]
        a_eq = np.asarray(self.eq_matrix, dtype=np.float64).reshape(-1, n)
        b_eq = np.asarray(self.eq_rhs, dtype=np.float64).reshape(-1)
        a_ub = np.asarray(self.ub_matrix, dtype=np.float64).reshape(-1, n)
        b_ub = np.asarray(self.ub_rhs, dtype=np.float64).reshape(-1)
        if a_eq.shape[0] != b_eq.shape[0]:
            raise ValueError("equality matrix and rhs disagree on row count")
        if a_ub.shape[0] != b_ub.shape[0]:
            raise ValueError("inequality matrix and rhs disagree on row count")
        bounds = tuple(
            (float(lo), None if hi is None else float(hi)) for lo, hi in self.bounds
        )
        if len(bounds) != n:
            raise ValueError(f"{len(bounds)} bounds for {n} variables")
        for j, (lo, hi) in enumerate(bounds):
            if hi is not None and lo > hi:
                raise ValueError(f"variable {j}: lower bound {lo} exceeds upper {hi}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a_eq)
        object.__setattr__(self, "eq_rhs", b_eq)
        object.__setattr__(self, "ub_matrix", a_ub)
        object.__setattr__(self, "ub_rhs", b_ub)
        object.__setattr__(self, "bounds", bounds)
        for arr in (c, a_eq, b_eq, a_ub, b_ub):
            arr.setflags(write=False)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome: ``status`` is optimal | infeasible | unbounded."""

    status: str
    x: np.ndarray | None
    objective_value: float | None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a small dense LP. Deterministic for identical inputs.

    Infeasible and unbounded problems are reported through the status
    field, never as garbage values.
    """
    # Imported here: scipy.optimize costs about half a second, and callers
    # that never solve an LP should not pay it.
    from scipy.optimize import linprog

    res = linprog(
        c=lp.objective,
        A_ub=lp.ub_matrix if lp.ub_matrix.shape[0] else None,
        b_ub=lp.ub_rhs if lp.ub_rhs.shape[0] else None,
        A_eq=lp.eq_matrix if lp.eq_matrix.shape[0] else None,
        b_eq=lp.eq_rhs if lp.eq_rhs.shape[0] else None,
        bounds=list(lp.bounds),
        method="highs",
    )
    if res.status == 0:
        x = np.asarray(res.x, dtype=np.float64)
        return LpSolution(status="optimal", x=x, objective_value=float(lp.objective @ x))
    if res.status == 2:
        return LpSolution(status="infeasible", x=None, objective_value=None)
    if res.status == 3:
        return LpSolution(status="unbounded", x=None, objective_value=None)
    raise RuntimeError(f"LP solver failed: {res.message}")


def _simplex_partition(lp: LinearProgram) -> tuple[list[list[int]], list[int]]:
    """Split variables into unit-sum groups and free variables.

    Every equality row must be a disjoint 0/1 row with rhs 1 (a simplex
    constraint); anything else is outside the oracle's remit.
    """
    groups: list[list[int]] = []
    claimed: set[int] = set()
    for row, rhs in zip(lp.eq_matrix, lp.eq_rhs):
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
    if parts == 1:
        yield np.array([[total]], dtype=np.int64)
    elif parts == 2:
        first = np.arange(total + 1, dtype=np.int64)
        yield np.column_stack([first, total - first])
    else:
        for first in range(total + 1):
            rest = np.vstack(list(composition_blocks(total - first, parts - 1)))
            head = np.full((rest.shape[0], 1), first, dtype=np.int64)
            yield np.hstack([head, rest])


def _check_grid_size(points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"{points} grid points; coarsen the resolution (limit {MAX_GRID_POINTS})"
        )


def brute_force_lp(lp: LinearProgram, resolution: float) -> LpSolution:
    """Grid-search oracle over the feasible box, for test-time certification.

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
    finite += [abs(hi) for _, hi in lp.bounds if hi is not None]
    cap = 2.0 * max([1.0] + finite)

    axes_vars: list[list[int]] = []
    axes_vals: list[np.ndarray] = []
    for j in free:
        lo, hi = lp.bounds[j]
        hi = cap if hi is None else hi
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
            hi = 1.0 if hi is None else min(hi, 1.0)
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
