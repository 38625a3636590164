import itertools

import numpy as np
import pytest

import oracles
from expertq.capacity import routing_lp
from expertq.lp import LinearProgram, solve_lp
from expertq.model import ExpertProfile
from oracles import brute_force_lp


def lp_min_x_at_least_3():
    # minimize x subject to x >= 3, x >= 0
    return LinearProgram(
        objective=[1.0],
        eq_matrix=np.empty((0, 1)),
        eq_rhs=[],
        ub_matrix=[[-1.0]],
        ub_rhs=[-3.0],
        bounds=((0.0, np.inf),),
    )


def lp_box_simplex_vertex():
    # minimize -x - y subject to x + y <= 1, x, y in [0, 1]
    return LinearProgram(
        objective=[-1.0, -1.0],
        eq_matrix=np.empty((0, 2)),
        eq_rhs=[],
        ub_matrix=[[1.0, 1.0]],
        ub_rhs=[1.0],
        bounds=((0.0, 1.0), (0.0, 1.0)),
    )


def random_box_lp(rng, dims=3):
    # bounded box with two mild cutting planes through the interior
    c = rng.uniform(-1.0, 1.0, size=dims)
    a = rng.uniform(0.0, 1.0, size=(2, dims))
    b = rng.uniform(0.8, 1.6, size=2)
    return LinearProgram(
        objective=c,
        eq_matrix=np.empty((0, dims)),
        eq_rhs=[],
        ub_matrix=a,
        ub_rhs=b,
        bounds=tuple((0.0, 1.0) for _ in range(dims)),
    )


class TestSolveLp:
    def test_one_variable_bound(self):
        sol = solve_lp(lp_min_x_at_least_3())
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_simplex_vertex(self):
        sol = solve_lp(lp_box_simplex_vertex())
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible_reported(self):
        lp = LinearProgram(
            objective=[1.0],
            eq_matrix=np.empty((0, 1)),
            eq_rhs=[],
            ub_matrix=[[1.0]],
            ub_rhs=[-1.0],
            bounds=((0.0, np.inf),),
        )
        sol = solve_lp(lp)
        assert sol.status == "infeasible"
        assert sol.x is None and sol.objective_value is None
        assert sol.ub_duals is None

    def test_ub_duals_price_the_binding_row(self):
        # Raising the rhs of -x <= -3 by t lowers the optimum 3 by t.
        sol = solve_lp(lp_min_x_at_least_3())
        assert sol.ub_duals.tolist() == pytest.approx([1.0], abs=1e-9)
        # The row x + y <= 1 binds with price 1.
        assert solve_lp(lp_box_simplex_vertex()).ub_duals == pytest.approx([1.0])

    def test_unbounded_reported(self):
        lp = LinearProgram(
            objective=[-1.0],
            eq_matrix=np.empty((0, 1)),
            eq_rhs=[],
            ub_matrix=np.empty((0, 1)),
            ub_rhs=[],
            bounds=((0.0, np.inf),),
        )
        assert solve_lp(lp).status == "unbounded"

    def test_optimal_solution_is_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            lp = random_box_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert np.all(lp.ub_matrix @ sol.x <= lp.ub_rhs + 1e-7)
            assert sol.objective_value == pytest.approx(
                float(lp.objective @ sol.x), abs=1e-9
            )

    def test_deterministic(self):
        lp = random_box_lp(np.random.default_rng(3))
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert np.array_equal(first.x, second.x)
        assert first.objective_value == second.objective_value

    def test_objective_scaling_keeps_argmin(self):
        lp = random_box_lp(np.random.default_rng(11))
        base = solve_lp(lp)
        scaled = LinearProgram(
            objective=2.5 * lp.objective,
            eq_matrix=lp.eq_matrix,
            eq_rhs=lp.eq_rhs,
            ub_matrix=lp.ub_matrix,
            ub_rhs=lp.ub_rhs,
            bounds=lp.bounds,
        )
        sol = solve_lp(scaled)
        assert sol.objective_value == pytest.approx(
            2.5 * base.objective_value, rel=1e-9
        )
        assert np.allclose(sol.x, base.x, atol=1e-9)

    def test_variable_permutation_permutes_solution(self):
        # strictly signed objective over a box has a unique vertex optimum
        c = np.array([-0.7, 0.3, -0.2])
        lp = LinearProgram(
            objective=c,
            eq_matrix=np.empty((0, 3)),
            eq_rhs=[],
            ub_matrix=np.empty((0, 3)),
            ub_rhs=[],
            bounds=((0.0, 1.0),) * 3,
        )
        perm = [2, 0, 1]
        lp_perm = LinearProgram(
            objective=c[perm],
            eq_matrix=np.empty((0, 3)),
            eq_rhs=[],
            ub_matrix=np.empty((0, 3)),
            ub_rhs=[],
            bounds=((0.0, 1.0),) * 3,
        )
        base = solve_lp(lp)
        permuted = solve_lp(lp_perm)
        assert np.allclose(permuted.x, base.x[perm], atol=1e-9)
        assert permuted.objective_value == pytest.approx(
            base.objective_value, abs=1e-9
        )


class TestLinearProgramValidation:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(
                objective=[1.0, 1.0],
                eq_matrix=[[1.0]],
                eq_rhs=[1.0],
                ub_matrix=np.empty((0, 2)),
                ub_rhs=[],
                bounds=((0, np.inf), (0, np.inf)),
            )

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(
                objective=[1.0],
                eq_matrix=np.empty((0, 1)),
                eq_rhs=[],
                ub_matrix=np.empty((0, 1)),
                ub_rhs=[],
                bounds=((2.0, 1.0),),
            )

    @pytest.mark.parametrize("bound", [(np.nan, np.inf), (0.0, np.nan), (np.nan, np.nan)])
    def test_nan_bound_rejected(self, bound):
        # linprog reads a NaN bound as a missing one, so x >= 3 with a NaN
        # lower bound used to solve as optimal at x = 3.
        with pytest.raises(ValueError, match="variable 0"):
            LinearProgram(
                objective=[1.0],
                eq_matrix=np.empty((0, 1)),
                eq_rhs=[],
                ub_matrix=[[-1.0]],
                ub_rhs=[-3.0],
                bounds=(bound,),
            )

    def test_bounds_need_one_row_per_variable(self):
        with pytest.raises(ValueError, match="bounds are"):
            LinearProgram(
                objective=[1.0, 1.0],
                eq_matrix=np.empty((0, 2)),
                eq_rhs=[],
                ub_matrix=np.empty((0, 2)),
                ub_rhs=[],
                bounds=((0.0, 1.0),),
            )

    def test_bounds_are_a_frozen_array(self):
        lp = lp_min_x_at_least_3()
        assert lp.bounds.shape == (1, 2) and lp.bounds.dtype == np.float64
        assert not lp.bounds.flags.writeable


class TestBruteForceOracle:
    def test_one_variable_bound(self):
        sol = brute_force_lp(lp_min_x_at_least_3(), resolution=1e-3)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.0, abs=1e-3)

    def test_simplex_vertex(self):
        sol = brute_force_lp(lp_box_simplex_vertex(), resolution=1e-3)
        assert sol.objective_value == pytest.approx(-1.0, abs=2e-3)

    def test_routing_lp_for_specialists(self):
        # Three specialists, uniform topic mass: the per-topic routing is
        # pinned, and the worst-expert load comes to 1/3.
        experts = [
            ExpertProfile.from_success_probs(
                i, [1.0 if x == i else 0.0 for x in range(3)]
            )
            for i in range(3)
        ]
        lp, _pairs = routing_lp([1 / 3, 1 / 3, 1 / 3], experts)
        grid = brute_force_lp(lp, resolution=1e-3)
        assert grid.status == "optimal"
        assert grid.objective_value == pytest.approx(1 / 3, abs=1e-3)
        exact = solve_lp(lp)
        assert exact.objective_value == pytest.approx(1 / 3, abs=1e-9)

    def test_agrees_with_solver_on_random_lps(self):
        rng = np.random.default_rng(42)
        resolution = 0.025
        for _ in range(8):
            lp = random_box_lp(rng)
            exact = solve_lp(lp)
            grid = brute_force_lp(lp, resolution=resolution)
            assert exact.status == grid.status == "optimal"
            assert abs(grid.objective_value - exact.objective_value) <= 5 * resolution

    def test_weak_duality_against_solver(self):
        # any feasible grid point can never beat the true optimum
        rng = np.random.default_rng(9)
        for _ in range(8):
            lp = random_box_lp(rng)
            exact = solve_lp(lp)
            grid = brute_force_lp(lp, resolution=0.05)
            assert grid.objective_value >= exact.objective_value - 5 * 0.05

    def test_dimension_limit(self):
        lp = LinearProgram(
            objective=[1.0] * 5,
            eq_matrix=np.empty((0, 5)),
            eq_rhs=[],
            ub_matrix=np.empty((0, 5)),
            ub_rhs=[],
            bounds=((0.0, 1.0),) * 5,
        )
        with pytest.raises(ValueError, match="free dimensions"):
            brute_force_lp(lp, resolution=0.1)

    def test_non_simplex_equality_rejected(self):
        lp = LinearProgram(
            objective=[1.0, 1.0],
            eq_matrix=[[1.0, 2.0]],
            eq_rhs=[1.0],
            ub_matrix=np.empty((0, 2)),
            ub_rhs=[],
            bounds=((0.0, 1.0),) * 2,
        )
        with pytest.raises(ValueError, match="simplex"):
            brute_force_lp(lp, resolution=0.1)

    def test_infeasible_detected(self):
        lp = LinearProgram(
            objective=[1.0],
            eq_matrix=np.empty((0, 1)),
            eq_rhs=[],
            ub_matrix=[[1.0]],
            ub_rhs=[-1.0],
            bounds=((0.0, 1.0),),
        )
        assert brute_force_lp(lp, resolution=0.1).status == "infeasible"


class TestOracleGuards:
    def test_empty_unit_sum_row_is_infeasible_for_both(self):
        # The equality row reads 0 = 1.
        lp = LinearProgram(
            objective=[1.0, 1.0],
            eq_matrix=[[0.0, 0.0]],
            eq_rhs=[1.0],
            ub_matrix=np.empty((0, 2)),
            ub_rhs=[],
            bounds=((0.0, 1.0),) * 2,
        )
        assert solve_lp(lp).status == "infeasible"
        assert brute_force_lp(lp, resolution=0.1).status == "infeasible"

    @pytest.mark.parametrize("parts", [0, -1])
    def test_compositions_need_a_part(self, parts):
        with pytest.raises(ValueError, match="part"):
            next(oracles.composition_blocks(3, parts))

    @pytest.mark.parametrize("parts", range(1, 6))
    def test_compositions_match_a_product_reference(self, parts):
        for total in range(9):
            reference = [
                row
                for row in itertools.product(range(total + 1), repeat=parts)
                if sum(row) == total
            ]
            blocks = list(oracles.composition_blocks(total, parts))
            assert len(blocks) == (1 if parts <= 2 else total + 1)
            for first, block in enumerate(blocks):
                assert block.dtype == np.int64
                assert block.shape[1] == parts
                if parts > 2:
                    assert (block[:, 0] == first).all()
            assert [tuple(row) for row in np.vstack(blocks).tolist()] == reference

    def test_oversized_group_rejected_before_building(self, monkeypatch):
        def unbuildable(total, parts):
            raise AssertionError("the group's compositions were built")

        monkeypatch.setattr(oracles, "MAX_GRID_POINTS", 100)
        monkeypatch.setattr(oracles, "composition_blocks", unbuildable)
        # C(14, 4) = 1001 compositions of 10 steps into 5 parts.
        lp = LinearProgram(
            objective=[1.0] * 5,
            eq_matrix=[[1.0] * 5],
            eq_rhs=[1.0],
            ub_matrix=np.empty((0, 5)),
            ub_rhs=[],
            bounds=((0.0, 1.0),) * 5,
        )
        with pytest.raises(ValueError, match="1001 grid points"):
            brute_force_lp(lp, resolution=0.1)

    def test_oversized_free_axis_rejected_before_building(self):
        # 10**12 + 1 values on one axis: 8 TB if it were built.
        lp = LinearProgram(
            objective=[1.0],
            eq_matrix=np.empty((0, 1)),
            eq_rhs=[],
            ub_matrix=np.empty((0, 1)),
            ub_rhs=[],
            bounds=((0.0, 1e12),),
        )
        with pytest.raises(ValueError, match="grid points"):
            brute_force_lp(lp, resolution=1.0)


def specialist_routing_lp():
    experts = [
        ExpertProfile.from_success_probs(i, [1.0 if x == i else 0.0 for x in range(3)])
        for i in range(3)
    ]
    return routing_lp([1 / 3, 1 / 3, 1 / 3], experts)[0]


class TestBruteForceChunking:
    """The oracle scans its grid in chunks; one chunk spanning the whole
    grid is the unchunked evaluation."""

    CASES = [
        (lp_min_x_at_least_3, 1e-3),
        (lp_box_simplex_vertex, 1e-3),
        (specialist_routing_lp, 0.05),
    ] + [
        (lambda seed=seed: random_box_lp(np.random.default_rng(seed)), 0.05)
        for seed in range(4)
    ]

    @staticmethod
    def solve(lp, resolution):
        sol = brute_force_lp(lp, resolution)
        return sol.status, None if sol.x is None else sol.x.tolist(), sol.objective_value

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_chunk_size_does_not_change_the_result(self, monkeypatch, case):
        make, resolution = self.CASES[case]
        lp = make()
        default = self.solve(lp, resolution)
        assert default[0] == "optimal"
        for chunk in (7, oracles.MAX_GRID_POINTS):
            monkeypatch.setattr(oracles, "GRID_CHUNK", chunk)
            assert self.solve(lp, resolution) == default

    def test_infeasible_with_small_chunks(self, monkeypatch):
        monkeypatch.setattr(oracles, "GRID_CHUNK", 3)
        lp = LinearProgram(
            objective=[1.0],
            eq_matrix=np.empty((0, 1)),
            eq_rhs=[],
            ub_matrix=[[1.0]],
            ub_rhs=[-1.0],
            bounds=((0.0, 1.0),),
        )
        assert brute_force_lp(lp, resolution=0.1).status == "infeasible"
