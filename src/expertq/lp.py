"""Linear programs with sparse constraint matrices.

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

    ``bounds`` holds a ``(lo, hi)`` row per variable, with ``hi = np.inf``
    for a variable unbounded above. Both constraint matrices are stored as
    ``scipy.sparse.csr_array`` (dense input is converted once), so memory
    grows with the non-zeros; empty blocks are (0, n) matrices.
    """

    objective: np.ndarray
    eq_matrix: "scipy.sparse.csr_array"
    eq_rhs: np.ndarray
    ub_matrix: "scipy.sparse.csr_array"
    ub_rhs: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        from scipy.sparse import csr_array, issparse  # lazily, as in solve_lp

        c = np.asarray(self.objective, dtype=np.float64)
        n = c.shape[0]
        a_eq, a_ub = (
            csr_array(a if issparse(a) else np.reshape(a, (-1, n)), dtype=np.float64)
            for a in (self.eq_matrix, self.ub_matrix)
        )
        b_eq = np.asarray(self.eq_rhs, dtype=np.float64).reshape(-1)
        b_ub = np.asarray(self.ub_rhs, dtype=np.float64).reshape(-1)
        for name, a, b in (("equality", a_eq, b_eq), ("inequality", a_ub, b_ub)):
            if a.shape != (b.shape[0], n):  # a row per rhs, a column per variable
                raise ValueError(f"{name} matrix is {a.shape}, not {(b.shape[0], n)}")
        bounds = np.array(self.bounds, dtype=np.float64)  # a copy, frozen below
        if bounds.shape != (n, 2):
            raise ValueError(f"bounds are {bounds.shape}, not {(n, 2)}")
        # Written so that NaN fails too: linprog would read it as "unbounded".
        bad = np.nonzero(~(bounds[:, 0] <= bounds[:, 1]))[0]
        if bad.size:
            lo, hi = bounds[bad[0]]
            raise ValueError(f"variable {bad[0]}: bounds ({lo}, {hi}) need lo <= hi")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a_eq)
        object.__setattr__(self, "eq_rhs", b_eq)
        object.__setattr__(self, "ub_matrix", a_ub)
        object.__setattr__(self, "ub_rhs", b_ub)
        object.__setattr__(self, "bounds", bounds)
        for arr in (c, b_eq, b_ub, bounds, a_eq.data, a_ub.data):
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
    """Solve an LP with HiGHS. Deterministic for identical inputs.

    Infeasible and unbounded problems are reported through the status
    field, never as garbage values.
    """
    # Imported here: scipy.optimize takes ~0.35 s and 48 MB on 2 vCPUs; non-LP callers skip it.
    from scipy.optimize import linprog

    res = linprog(
        c=lp.objective,
        A_ub=lp.ub_matrix if lp.ub_matrix.shape[0] else None,
        b_ub=lp.ub_rhs if lp.ub_rhs.shape[0] else None,
        A_eq=lp.eq_matrix if lp.eq_matrix.shape[0] else None,
        b_eq=lp.eq_rhs if lp.eq_rhs.shape[0] else None,
        bounds=lp.bounds,
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
