"""Small dense linear programs.

:func:`solve_lp` wraps scipy's HiGHS backend behind a fixed container type,
so results are deterministic for identical inputs. Besides the optimal
point it returns the duals of the inequality rows, from which callers can
certify the optimum exactly by weak duality (see
:func:`expertq.capacity.max_min_load`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "solve_lp"]


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
    """Solver outcome: ``status`` is optimal | infeasible | unbounded.

    ``ub_duals`` holds one multiplier per ``<=`` row, non-negative up to
    rounding: the rate at which the optimum falls as that row's rhs grows.
    It is None when the solve is not optimal.
    """

    status: str
    x: np.ndarray | None
    objective_value: float | None
    ub_duals: np.ndarray | None = None


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
        duals = -np.asarray(res.ineqlin.marginals, dtype=np.float64)
        return LpSolution(
            status="optimal",
            x=x,
            objective_value=float(lp.objective @ x),
            ub_duals=duals,
        )
    if res.status == 2:
        return LpSolution(status="infeasible", x=None, objective_value=None)
    if res.status == 3:
        return LpSolution(status="unbounded", x=None, objective_value=None)
    raise RuntimeError(f"LP solver failed: {res.message}")
