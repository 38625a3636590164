import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertq import analysis
from expertq.capacity import (
    LossPolicy,
    RoutingPolicy,
    degraded_capacity,
    loss_capacity,
    max_min_load,
    multi_capacity_dual,
    routing_policy_violations,
    service_load,
    single_capacity,
)
from expertq.lp import LinearProgram, solve_lp
from expertq.model import ArrivalSpec, ExpertProfile, Instance
from expertq.sched import offline_routing_scheduler
from oracles import duality_gap, multi_capacity_primal, simplex_grid


def specialists(n):
    """n experts, each able to answer exactly one of n topics in one slot."""
    return [
        ExpertProfile.from_success_probs(i, [1.0 if x == i else 0.0 for x in range(n)])
        for i in range(n)
    ]


def generalists(n):
    """n identical experts spreading unit expertise across n topics."""
    return [ExpertProfile.from_success_probs(i, [1.0 / n] * n) for i in range(n)]


def loss_capacity_grid_oracle(p, q, epsilon, resolution=1e-3):
    """Exhaustive search over per-topic admission probabilities (2 topics).

    For each admission vector the largest feasible load is the smaller of
    the service cap 1/sum(mu p/q) and the loss cap epsilon/sum((1-mu) p).
    Independent of the greedy implementation under test.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    assert p.shape == (2,)
    axis = np.arange(0.0, 1.0 + resolution / 2, resolution)
    m0, m1 = np.meshgrid(axis, axis, indexing="ij")
    if q[0] <= 0:
        m0 = np.zeros_like(m0)
    if q[1] <= 0:
        m1 = np.zeros_like(m1)
    with np.errstate(divide="ignore"):
        service = np.zeros_like(m0)
        if q[0] > 0:
            service = service + m0 * p[0] / q[0]
        if q[1] > 0:
            service = service + m1 * p[1] / q[1]
        service_cap = np.where(service > 0, 1.0 / np.where(service > 0, service, 1.0), np.inf)
        lost = (1.0 - m0) * p[0] + (1.0 - m1) * p[1]
        loss_cap = np.where(lost > 0, epsilon / np.where(lost > 0, lost, 1.0), np.inf)
    return float(np.minimum(service_cap, loss_cap).max())


def loss_capacity_lp(p, q, epsilon):
    """The loss capacity as a linear program in ``(lam, y)`` with ``y = lam * mu``.

    Maximizes ``lam`` subject to ``sum_x y p/q <= 1``, ``lam * sum(p) -
    sum_x y p <= epsilon`` and ``0 <= y <= lam``, with ``y = 0`` where the
    expert cannot answer. Shares nothing with the greedy pass under test.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = p.size
    service = np.zeros(1 + n)
    service[1:][q > 0] = p[q > 0] / q[q > 0]
    loss = np.concatenate([[p.sum()], -p])
    cap = np.hstack([-np.ones((n, 1)), np.eye(n)])
    bounds = [(0.0, np.inf)] + [(0.0, np.inf if qx > 0 else 0.0) for qx in q]
    sol = solve_lp(
        LinearProgram(
            objective=-np.eye(1 + n)[0],
            eq_matrix=np.zeros((0, 1 + n)),
            eq_rhs=np.zeros(0),
            ub_matrix=np.vstack([service, loss, cap]),
            ub_rhs=np.concatenate([[1.0, epsilon], np.zeros(n)]),
            bounds=tuple(bounds),
        )
    )
    assert sol.status == "optimal"
    return float(sol.x[0])


def random_loss_problem(rng):
    """1-7 topics with some unanswerable and some zero-mass topics."""
    n = int(rng.integers(1, 8))
    p = rng.dirichlet(np.ones(n))
    p[rng.random(n) < 0.2] = 0.0
    if p.sum() == 0.0:
        p[0] = 1.0
    q = rng.uniform(0.05, 1.0, size=n)
    q[rng.random(n) < 0.2] = 0.0
    return p / p.sum(), q, float(rng.uniform(0.0, 3.0))


class TestSingleCapacity:
    def test_closed_form_example(self):
        assert single_capacity([0.5, 0.5], [1.0, 0.5]).lambda_star == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_perfect_expert(self):
        assert single_capacity([1.0], [1.0]).lambda_star == 1.0

    def test_unanswerable_mass_gives_zero(self):
        assert single_capacity([0.5, 0.5], [0.5, 0.0]).lambda_star == 0.0

    def test_zero_mass_topics_ignored(self):
        full = single_capacity([0.5, 0.5], [1.0, 0.5]).lambda_star
        padded = single_capacity([0.5, 0.5, 0.0], [1.0, 0.5, 0.0]).lambda_star
        assert padded == full

    @given(
        st.lists(st.integers(1, 9), min_size=2, max_size=5),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_success_probability(self, weights, data):
        p = np.array(weights, dtype=float)
        p /= p.sum()
        q = np.array(
            data.draw(
                st.lists(
                    st.floats(0.05, 1.0), min_size=len(p), max_size=len(p)
                )
            )
        )
        base = single_capacity(p, q).lambda_star
        bumped = q.copy()
        topic = data.draw(st.integers(0, len(p) - 1))
        bumped[topic] = min(1.0, bumped[topic] * 1.5)
        assert single_capacity(p, bumped).lambda_star >= base - 1e-12

    def test_shifting_mass_to_slower_topic_never_helps(self):
        p = np.array([0.5, 0.5])
        q = np.array([1.0, 0.25])
        base = single_capacity(p, q).lambda_star
        shifted = single_capacity([0.4, 0.6], q).lambda_star
        assert shifted <= base + 1e-12

    @given(
        st.lists(st.integers(1, 9), min_size=2, max_size=5),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_mass_shift_monotonicity_property(self, weights, data):
        p = np.array(weights, dtype=float)
        p /= p.sum()
        q = np.array(
            data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(p), max_size=len(p)))
        )
        fast = int(np.argmax(q))
        slow = int(np.argmin(q))
        shift = data.draw(st.floats(0.0, 1.0)) * p[fast]
        shifted = p.copy()
        shifted[fast] -= shift
        shifted[slow] += shift
        assert (
            single_capacity(shifted, q).lambda_star
            <= single_capacity(p, q).lambda_star + 1e-12
        )


class TestLossCapacity:
    def test_unanswerable_topic_example(self):
        result = loss_capacity([0.5, 0.5], [0.0, 0.5], 0.5)
        assert result.lambda_star == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(result.certificate.mu, [0.0, 1.0], atol=1e-9)

    def test_zero_budget_reduces_to_lossless(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            q = rng.uniform(0.1, 1.0, size=4)
            assert loss_capacity(p, q, 0.0).lambda_star == single_capacity(p, q).lambda_star

    def test_matches_admission_grid_oracle(self):
        p, q, eps = [0.5, 0.5], [1.0, 0.25], 0.1
        oracle = loss_capacity_grid_oracle(p, q, eps, resolution=1e-3)
        result = loss_capacity(p, q, eps)
        assert result.lambda_star == pytest.approx(oracle, abs=5e-3)
        # value derived independently by solving the two binding
        # constraints for the partial-admission topic
        assert result.lambda_star == pytest.approx(0.56, abs=1e-9)

    def test_oracle_agreement_on_random_two_topic_problems(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            p = rng.dirichlet(np.ones(2))
            q = rng.uniform(0.2, 1.0, size=2)
            eps = float(rng.uniform(0.01, 0.4))
            oracle = loss_capacity_grid_oracle(p, q, eps, resolution=1e-3)
            assert loss_capacity(p, q, eps).lambda_star == pytest.approx(
                oracle, abs=5e-3
            )

    def test_monotone_in_budget_and_dominates_lossless(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = rng.dirichlet(np.ones(3))
            q = rng.uniform(0.0, 1.0, size=3)
            lossless = single_capacity(p, q).lambda_star
            budgets = sorted(rng.uniform(0.0, 0.5, size=3))
            values = [loss_capacity(p, q, b).lambda_star for b in budgets]
            assert values == sorted(values)
            for v in values:
                assert v >= lossless - 1e-9

    def test_certificate_satisfies_both_constraints(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            q = rng.uniform(0.0, 1.0, size=4)
            q[rng.integers(0, 4)] = 0.0
            eps = float(rng.uniform(0.05, 0.5))
            result = loss_capacity(p, q, eps)
            mu = result.certificate.mu
            lam = result.lambda_star
            keep = q > 0
            service = lam * float(np.sum(mu[keep] * p[keep] / q[keep]))
            lost = lam * float(np.sum((1.0 - mu) * p))
            assert service <= 1.0 + 1e-9
            assert lost <= eps + 1e-9
            assert np.all(mu[q <= 0] == 0.0)

    def test_binding_optimum_satisfies_combined_equality(self):
        # when both constraints bind, sum_x mu p (q + eps)/q == 1
        for p, q, eps in (
            ([0.5, 0.5], [1.0, 0.25], 0.1),
            ([0.5, 0.5], [0.0, 0.5], 0.5),
            ([0.3, 0.7], [0.9, 0.3], 0.15),
        ):
            p = np.asarray(p, dtype=float)
            q = np.asarray(q, dtype=float)
            result = loss_capacity(p, q, eps)
            mu, lam = result.certificate.mu, result.lambda_star
            keep = q > 0
            service = lam * float(np.sum(mu[keep] * p[keep] / q[keep]))
            lost = lam * float(np.sum((1.0 - mu) * p))
            assert service == pytest.approx(1.0, abs=1e-6)
            assert lost == pytest.approx(eps, abs=1e-6)
            combined = float(np.sum(mu[keep] * p[keep] * (q[keep] + eps) / q[keep]))
            assert combined == pytest.approx(1.0, abs=1e-6)

    def test_matches_linear_program_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p, q, eps = random_loss_problem(rng)
            assert loss_capacity(p, q, eps).lambda_star == pytest.approx(
                loss_capacity_lp(p, q, eps), rel=1e-7, abs=1e-7
            )

    def test_scale_covariance(self):
        # 0.05 of the mass of test_matches_admission_grid_oracle's problem
        result = loss_capacity([0.025, 0.025], [1.0, 0.25], 0.1)
        assert result.lambda_star == pytest.approx(0.56 / 0.05, rel=1e-12)

    def test_no_traffic_has_unbounded_capacity(self):
        assert loss_capacity([0.0, 0.0], [1.0, 0.5], 0.2).lambda_star == math.inf
        assert loss_capacity([], [], 0.2).lambda_star == math.inf

    def test_all_unanswerable_caps_at_budget(self):
        result = loss_capacity([0.5, 0.5], [0.0, 0.0], 0.25)
        assert result.lambda_star == pytest.approx(0.25, abs=1e-9)
        assert np.all(result.certificate.mu == 0.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            loss_capacity([1.0], [1.0], -0.1)

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            loss_capacity([1.0], [1.0], math.nan)
        # An infinite budget used to shed every topic and report a null capacity.
        with pytest.raises(ValueError, match="finite and non-negative, got inf"):
            loss_capacity([1.0], [1.0], math.inf)


class TestLossPolicyValidation:
    @pytest.mark.parametrize(
        "mu, epsilon, message",
        [
            ([math.nan, 1.0], 0.1, "finite"),
            ([math.inf, 1.0], 0.1, "finite"),
            ([0.5, 1.5], 0.1, r"\[0, 1\]"),
            ([0.5, 1.0], math.nan, "non-negative"),
            ([0.5, 1.0], -0.1, "non-negative"),
            ([0.5, 1.0], math.inf, "finite and non-negative, got inf"),
        ],
    )
    def test_bad_policy_rejected(self, mu, epsilon, message):
        with pytest.raises(ValueError, match=message):
            LossPolicy(mu=mu, epsilon=epsilon)


class TestDegradedCapacity:
    def test_no_error_is_identity(self):
        assert degraded_capacity([0.5, 0.5], [1.0, 0.5], 1.0) == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_half_error_halves_capacity(self):
        assert degraded_capacity([0.5, 0.5], [1.0, 0.5], 0.5) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_scales_linearly(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(3))
        q_hat = rng.uniform(0.2, 1.0, size=3)
        base = single_capacity(p, q_hat).lambda_star
        for gamma in (0.3, 0.8, 1.0):
            value = degraded_capacity(p, q_hat, gamma)
            assert value == pytest.approx(gamma * base, abs=1e-12)
            assert value <= base + 1e-12
            assert (value == base) == (gamma == 1.0)

    def test_gamma_out_of_range(self):
        for gamma in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                degraded_capacity([1.0], [1.0], gamma)


def random_experts(rng, n, n_topics):
    """Seeded experts with mixed speeds and one skill gap per expert."""
    experts = []
    for i in range(n):
        q = rng.uniform(0.2, 1.0, size=n_topics)
        q[(i + 1) % n_topics] = 0.0
        experts.append(ExpertProfile.from_success_probs(i, q))
    return experts


def primal_on_full_grid(p, experts, resolution):
    """The max-min objective evaluated over the whole simplex grid at once,
    as a reference for the block-by-block scan."""
    p = np.asarray(p, dtype=np.float64)
    qmat = np.vstack([e.success_prob for e in experts])
    cols = np.nonzero(p > 0)[0]
    ans = qmat[:, cols] > 0
    ratio = np.zeros(ans.shape)
    ratio[ans] = np.broadcast_to(p[cols], ans.shape)[ans] / qmat[:, cols][ans]
    grid = simplex_grid(len(experts), resolution)
    terms = grid[:, :, None] * ratio[None, :, :]
    terms[:, ~ans] = np.inf
    objs = terms.min(axis=1).sum(axis=1)
    j = int(np.argmax(objs))
    return 1.0 / objs[j], grid[j]


class TestSimplexGrid:
    def test_rows_sum_to_one(self):
        grid = simplex_grid(3, 0.1)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert grid.shape[0] == 66  # compositions of 10 into 3 parts

    def test_single_coordinate(self):
        assert np.array_equal(simplex_grid(1, 0.25), [[1.0]])

    def test_lexicographic_order(self):
        grid = simplex_grid(3, 0.5)
        assert grid.tolist() == [
            [0.0, 0.0, 1.0],
            [0.0, 0.5, 0.5],
            [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
            [1.0, 0.0, 0.0],
        ]


class TestPrimalGridScan:
    @pytest.mark.parametrize(
        "n, resolution", [(2, 1e-3), (3, 0.01), (4, 0.02), (4, 1 / 3)]
    )
    def test_matches_full_grid_bit_for_bit(self, n, resolution):
        rng = np.random.default_rng(n)
        for _ in range(3):
            experts = random_experts(rng, n, 6)
            p = rng.dirichlet(np.ones(6))
            p[rng.integers(6)] = 0.0
            lam, alpha = primal_on_full_grid(p, experts, resolution)
            result = multi_capacity_primal(p, experts, resolution)
            assert result.lambda_star == lam
            assert result.certificate.alpha.tolist() == alpha.tolist()

    def test_ties_keep_the_first_grid_point(self):
        # Identical generalists: every interior weight vector ties with its
        # permutations, and the scan must report the first in grid order.
        experts = generalists(3)
        lam, alpha = primal_on_full_grid([1 / 3] * 3, experts, 0.05)
        result = multi_capacity_primal([1 / 3] * 3, experts, 0.05)
        assert result.lambda_star == lam
        assert result.certificate.alpha.tolist() == alpha.tolist()

    def test_massless_instance_reports_the_last_grid_point(self):
        experts = [ExpertProfile.from_success_probs(i, [0.5, 0.5]) for i in range(3)]
        result = multi_capacity_primal([0.0, 0.0], experts, 0.1)
        assert math.isinf(result.lambda_star)
        assert result.certificate.alpha.tolist() == simplex_grid(3, 0.1)[-1].tolist()

    def test_peak_memory_is_bounded(self):
        # 4 experts at resolution 0.004: 2.67 M grid points. Holding the
        # whole grid (and its float copy) peaked at 162.8 MB.
        experts = random_experts(np.random.default_rng(7), 4, 12)
        p = np.full(12, 1 / 12)
        tracemalloc.start()
        try:
            result = multi_capacity_primal(p, experts, 0.004)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.lambda_star > 0
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_scan_keeps_no_expert_cube(self):
        # The same scan with a (chunk, experts, topics) product cube and a
        # float copy of each whole block peaked at 14.7 MiB; a running
        # minimum over experts in one (chunk, topics) buffer needs ~4 MiB.
        experts = random_experts(np.random.default_rng(7), 4, 12)
        p = np.full(12, 1 / 12)
        tracemalloc.start()
        try:
            result = multi_capacity_primal(p, experts, 0.004)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.lambda_star > 0
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestRoutingLpMemory:
    def test_wide_lp_peak_memory_is_bounded(self):
        # 64 experts x 400 topics, each pair answerable with probability
        # 0.5 except that expert 0 answers every topic (~13,000 pairs).
        # Dense (rows, 1 + #pairs) constraint matrices peaked at 142 MiB;
        # held sparse, memory grows with the pairs (~5 MiB).
        rng = np.random.default_rng(10)
        times = rng.uniform(1.0, 3.0, (64, 400))
        times[1:][rng.random((63, 400)) < 0.5] = np.inf
        experts = [ExpertProfile.from_mean_times(i, row) for i, row in enumerate(times)]
        p = rng.random(400)
        p /= p.sum()
        multi_capacity_dual(p, experts)  # warm, so scipy's imports are not measured
        tracemalloc.start()
        try:
            result = multi_capacity_dual(p, experts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.lambda_star > 0
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestMultiCapacity:
    def test_identical_generalists(self):
        p = [1 / 3] * 3
        experts = generalists(3)
        assert multi_capacity_primal(p, experts, 1e-3).lambda_star == pytest.approx(
            1.0, abs=1e-2
        )
        assert multi_capacity_dual(p, experts).lambda_star == pytest.approx(
            1.0, abs=1e-9
        )

    def test_diverse_specialists(self):
        p = [1 / 3] * 3
        experts = specialists(3)
        assert multi_capacity_primal(p, experts, 1e-3).lambda_star == pytest.approx(
            3.0, abs=1e-2
        )
        dual = multi_capacity_dual(p, experts)
        assert dual.lambda_star == pytest.approx(3.0, abs=1e-9)
        assert dual.certificate.dual_mu == pytest.approx(1 / 3, abs=1e-9)
        # the only finite-ratio assignment routes each topic to its specialist
        assert np.allclose(dual.certificate.s, np.eye(3), atol=1e-9)

    def test_single_expert_reduces_to_closed_form(self):
        p = [0.5, 0.5]
        expert = [ExpertProfile.from_success_probs(0, [1.0, 0.5])]
        closed = single_capacity(p, expert[0].success_prob).lambda_star
        assert multi_capacity_primal(p, expert, 1e-4).lambda_star == pytest.approx(
            closed, rel=1e-3
        )
        dual = multi_capacity_dual(p, expert)
        assert dual.lambda_star == pytest.approx(closed, abs=1e-9)
        assert np.allclose(dual.certificate.s, [[1.0, 1.0]])

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_load_below_highs_drop_threshold_still_counts(self, n):
        # HiGHS reads a coefficient of 1e-9 or less as 0: unscaled, topic 1's
        # load of 1e-10 was dropped and mu* read 2 - 2e-10, not 2 - 1e-10.
        p = np.array([1.0 - 1e-10, 1e-10]) * n
        experts = [ExpertProfile.from_success_probs(i, [0.5, 1.0]) for i in range(n)]
        result = multi_capacity_dual(p, experts)
        load = service_load(p / n, experts[0].success_prob)
        assert result.certificate.dual_mu == pytest.approx(load, rel=1e-12, abs=0.0)
        assert max_min_load(p, experts, result.certificate.alpha) == pytest.approx(
            load, rel=1e-12, abs=0.0
        )

    def test_unanswerable_mass(self):
        experts = [ExpertProfile.from_success_probs(0, [1.0, 0.0])]
        assert multi_capacity_primal([0.5, 0.5], experts, 0.1).lambda_star == 0.0
        with pytest.raises(ValueError, match="infeasible"):
            multi_capacity_dual([0.5, 0.5], experts)

    def test_dual_alpha_is_a_distribution(self):
        result = multi_capacity_dual([0.25, 0.75], generalists(2))
        alpha = result.certificate.alpha
        assert alpha.shape == (2,)
        assert alpha.min() >= 0.0
        assert float(alpha.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_massless_instance_gets_uniform_alpha(self):
        experts = [ExpertProfile.from_success_probs(i, [0.5, 0.5]) for i in range(3)]
        result = multi_capacity_dual([0.0, 0.0], experts)
        assert math.isinf(result.lambda_star)
        assert result.certificate.alpha.tolist() == [1 / 3] * 3
        assert max_min_load([0.0, 0.0], experts, result.certificate.alpha) == 0.0

    def test_primal_alpha_is_a_distribution(self):
        result = multi_capacity_primal([0.25, 0.75], generalists(2), 1e-2)
        alpha = result.certificate.alpha
        assert alpha.shape == (2,)
        assert float(alpha.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_adding_an_expert_never_hurts(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            n_topics = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(n_topics))
            experts = [
                ExpertProfile.from_success_probs(i, rng.uniform(0.2, 1.0, n_topics))
                for i in range(n)
            ]
            combined = multi_capacity_dual(p, experts).lambda_star
            for expert in experts:
                alone = single_capacity(p, expert.success_prob).lambda_star
                assert combined >= alone - 1e-6

    def test_strong_duality_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            n_topics = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(n_topics))
            experts = [
                ExpertProfile.from_success_probs(i, rng.uniform(0.5, 1.0, n_topics))
                for i in range(n)
            ]
            lam = multi_capacity_dual(p, experts).lambda_star
            assert duality_gap(p, experts, 1e-3) <= 10 * 1e-3 * lam

    def test_duality_gap_examples(self):
        assert duality_gap([1 / 3] * 3, specialists(3), 1e-3) <= 0.03
        assert duality_gap([1 / 3] * 3, generalists(3), 1e-3) <= 0.01
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(3))
        solo = [ExpertProfile.from_success_probs(0, rng.uniform(0.3, 1.0, 3))]
        assert duality_gap(p, solo, 1e-4) <= 1e-6

    def test_scale_covariance(self):
        p = np.array([0.2, 0.8])
        experts = generalists(2)
        base = multi_capacity_dual(p, experts).lambda_star
        scaled = multi_capacity_dual(2.0 * p, experts).lambda_star
        assert scaled == pytest.approx(base / 2.0, rel=1e-9)


class TestRoutingPolicyValidation:
    def test_valid_policy_passes(self):
        q = np.array([[1.0, 0.5], [0.5, 1.0]])
        policy = RoutingPolicy(s=[[0.7, 0.2], [0.3, 0.8]], alpha=[0.4, 0.6])
        assert routing_policy_violations(policy, q) == []

    def test_bad_column_sum_flagged(self):
        q = np.ones((2, 2))
        policy = RoutingPolicy(s=[[0.7, 0.2], [0.2, 0.8]])
        assert any("sums" in v for v in routing_policy_violations(policy, q))

    def test_mass_on_skill_less_expert_flagged(self):
        q = np.array([[1.0, 0.0], [1.0, 1.0]])
        policy = RoutingPolicy(s=[[0.5, 0.5], [0.5, 0.5]])
        violations = routing_policy_violations(policy, q)
        assert any("zero success" in v for v in violations)

    def test_unanswerable_topics_exempt(self):
        q = np.array([[1.0, 0.0], [1.0, 0.0]])
        policy = RoutingPolicy(s=[[1.0, 0.5], [0.0, 0.5]])
        assert routing_policy_violations(policy, q) == []

    def test_alpha_must_be_distribution(self):
        q = np.ones((2, 2))
        policy = RoutingPolicy(alpha=[0.8, 0.8])
        assert any("alpha" in v for v in routing_policy_violations(policy, q))

    @pytest.mark.parametrize(
        "s, alpha, message",
        [
            ([[math.nan, 1.0], [math.nan, 0.0]], None, "routing matrix has non-finite"),
            ([[math.inf, 1.0], [0.0, 0.0]], None, "routing matrix has non-finite"),
            (None, [math.nan, 1.0], "alpha has non-finite"),
            (None, [-math.inf, math.inf], "alpha has non-finite"),
        ],
    )
    def test_non_finite_entries_flagged(self, s, alpha, message):
        # NaN fails every comparison, so the range and sum checks miss it.
        q = np.ones((2, 2))
        violations = routing_policy_violations(RoutingPolicy(s=s, alpha=alpha), q)
        assert violations == [message + " entries"]


def certificate_instance(rng):
    """Experts and topic mass with skill-less pairs, massless topics, and a
    topic only the first expert answers, while a second expert is ten times
    slower everywhere else: its weight is often 0 on a topic it cannot
    answer, the 0 * inf case."""
    n = int(rng.integers(1, 12))
    n_topics = int(rng.integers(1, 40))
    q = rng.uniform(0.05, 1.0, size=(n, n_topics))
    q[rng.random((n, n_topics)) < 0.3] = 0.0
    q[0, ~(q > 0).any(axis=0)] = 0.5
    if n > 1:
        q[1] *= 0.1
        q[1:, 0] = 0.0
        q[0, 0] = 1.0
    p = rng.dirichlet(np.ones(n_topics))
    p[rng.random(n_topics) < 0.2] = 0.0
    if p.sum() == 0.0:
        p[0] = 1.0
    experts = [ExpertProfile.from_success_probs(i, q[i]) for i in range(n)]
    return p, experts


@pytest.mark.filterwarnings("error")
class TestDualityCertificate:
    """``max_min_load`` at the LP's duals certifies the LP optimum exactly."""

    def test_certificate_is_exact_on_random_instances(self):
        rng = np.random.default_rng(20261018)
        zero_weights = 0
        for _ in range(200):
            p, experts = certificate_instance(rng)
            result = multi_capacity_dual(p, experts)
            alpha, mu = result.certificate.alpha, result.certificate.dual_mu
            assert alpha.min() >= 0.0
            assert abs(float(alpha.sum()) - 1.0) <= 1e-12
            g = max_min_load(p, experts, alpha)
            assert abs(g - mu) <= 1e-9 * mu
            # Weak duality: no weight vector beats the load of a routing.
            # Each door gets p normalised, so the merged pmf is p scaled by
            # n / p.sum() and so is the routing's load.
            n = len(experts)
            scale = n / p.sum()
            arrivals = ArrivalSpec(lam=0.1, pmf=[p / p.sum()] * n)
            inst = Instance(experts=tuple(experts), arrivals=arrivals)
            sched = offline_routing_scheduler(inst, result.certificate)
            assert g * scale <= analysis.policy_load(inst, sched) * (1 + 1e-12)
            qmat = np.vstack([e.success_prob for e in experts])
            skill_less = (qmat[:, p > 0] == 0.0).any(axis=1)
            zero_weights += int(((alpha == 0.0) & skill_less).any())
        assert zero_weights > 0

    def test_any_weight_vector_is_a_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, experts = certificate_instance(rng)
            mu = multi_capacity_dual(p, experts).certificate.dual_mu
            alpha = rng.dirichlet(np.ones(len(experts)))
            assert max_min_load(p, experts, alpha) <= mu * (1 + 1e-12)

    def test_zero_weight_on_a_skill_less_expert(self):
        # Expert 1 cannot answer topic 0 and gets no weight: 0 * inf must
        # not become NaN (RuntimeWarnings fail the suite).
        experts = [
            ExpertProfile.from_success_probs(0, [1.0, 1.0]),
            ExpertProfile.from_success_probs(1, [0.0, 0.5]),
        ]
        assert max_min_load([0.5, 0.5], experts, [1.0, 0.0]) == 0.5
        assert max_min_load([0.5, 0.5], experts, [0.0, 1.0]) == 0.0

    def test_unanswerable_mass_is_infinite(self):
        experts = [ExpertProfile.from_success_probs(0, [1.0, 0.0])]
        assert max_min_load([0.5, 0.5], experts, [1.0]) == math.inf
        assert max_min_load([1.0, 0.0], experts, [1.0]) == 1.0

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match="topic mass"):
            max_min_load([1.0], generalists(2), [0.5, 0.5])
        with pytest.raises(ValueError, match="alpha shape"):
            max_min_load([0.5, 0.5], generalists(2), [1.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grid_oracle_agrees_with_the_certificate(self, n):
        rng = np.random.default_rng(100 + n)
        resolution = 1e-3 if n <= 3 else 1e-2
        for _ in range(3):
            experts = random_experts(rng, n, 5)
            p = rng.dirichlet(np.ones(5))
            p[~np.vstack([e.success_prob for e in experts]).any(axis=0)] = 0.0
            result = multi_capacity_dual(p, experts)
            certified = 1.0 / max_min_load(p, experts, result.certificate.alpha)
            grid = multi_capacity_primal(p, experts, resolution)
            assert certified == pytest.approx(result.lambda_star, rel=1e-9)
            # The grid's best point is one weight vector: never above mu*.
            assert grid.lambda_star >= certified * (1 - 1e-12)
            assert grid.lambda_star - certified <= 10 * resolution * certified
