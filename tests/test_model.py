import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertq.model import (
    ArrivalSpec,
    ExpertProfile,
    Instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    merged_pmf,
    save_instance,
    _validate_instance,
)


def make_instance(pmf_rows, q_rows, lam=0.5):
    experts = tuple(
        ExpertProfile.from_success_probs(i, q) for i, q in enumerate(q_rows)
    )
    return Instance(experts=experts, arrivals=ArrivalSpec(lam=lam, pmf=pmf_rows))


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    n_topics = draw(st.integers(min_value=1, max_value=5))
    pmf = []
    for _ in range(n):
        weights = draw(
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=n_topics,
                max_size=n_topics,
            )
        )
        total = sum(weights)
        pmf.append([w / total for w in weights])
    q_rows = [
        draw(
            st.lists(
                st.sampled_from([0.0, 0.2, 0.5, 1.0]),
                min_size=n_topics,
                max_size=n_topics,
            )
        )
        for _ in range(n)
    ]
    lam = draw(st.floats(min_value=0.0, max_value=0.99))
    return make_instance(pmf, q_rows, lam)


def violations(build) -> list[str]:
    """Each violation ``build()`` raises, in order, on an invalid instance."""
    with pytest.raises(ValueError) as info:
        build()
    message = str(info.value)
    assert message.startswith("invalid instance: ")
    return message.removeprefix("invalid instance: ").split("; ")


class TestValidation:
    def test_well_formed_instance_has_no_violations(self):
        inst = make_instance(
            [[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]],
            [[1.0, 0.5, 0.0], [0.25, 0.0, 1.0]],
        )
        assert _validate_instance(inst) == []

    def test_unnormalized_pmf_is_flagged_with_expert_index(self):
        found = violations(
            lambda: make_instance([[0.5, 0.5], [0.5, 0.4]], [[1.0, 1.0], [1.0, 1.0]])
        )
        assert found == ["arrivals.pmf[expert 1]: sums to 0.9, expected 1 within 1e-09"]

    def test_mean_time_below_one_is_flagged(self):
        expert = ExpertProfile.from_mean_times(0, [0.5, 2.0])
        found = violations(
            lambda: Instance(
                experts=(expert,), arrivals=ArrivalSpec(lam=0.5, pmf=[[0.5, 0.5]])
            )
        )
        assert found == [
            "expert 0.mean_time[topic 0]: T(x) >= 1 required, got 0.5",
            "expert 0.success_prob[topic 0]: outside [0, 1], got 2.0",
        ]

    def test_lambda_out_of_range(self):
        for lam in (-0.1, 1.0, 1.5):
            found = violations(lambda: make_instance([[1.0]], [[1.0]], lam=lam))
            assert found == [f"arrivals.lambda: must lie in [0, 1), got {lam}"]
        # lam == 0 is the accepted degenerate no-traffic case
        assert make_instance([[1.0]], [[1.0]], lam=0.0).arrivals.lam == 0.0

    def test_inconsistent_profile_is_flagged(self):
        expert = ExpertProfile(0, mean_time=[2.0], success_prob=[0.6])
        found = violations(
            lambda: Instance(experts=(expert,), arrivals=ArrivalSpec(lam=0.5, pmf=[[1.0]]))
        )
        assert found == [
            "expert 0[topic 0]: success_prob 0.6 and mean_time 2.0 inconsistent "
            "(q*T deviates from 1 by 0.2)"
        ]

    def test_topic_universe_mismatch(self):
        expert = ExpertProfile.from_success_probs(0, [1.0, 1.0])
        found = violations(
            lambda: Instance(experts=(expert,), arrivals=ArrivalSpec(lam=0.5, pmf=[[1.0]]))
        )
        assert found == ["expert 0: profile over 2 topics, instance universe has 1"]

    def test_lambda_pmf_and_expert_violations_in_one_error(self):
        expert = ExpertProfile(0, mean_time=[2.0, 1.0], success_prob=[0.6, 1.0])
        found = violations(
            lambda: Instance(
                experts=(expert,), arrivals=ArrivalSpec(lam=1.5, pmf=[[0.5, 0.4]])
            )
        )
        assert found == [
            "arrivals.lambda: must lie in [0, 1), got 1.5",
            "arrivals.pmf[expert 0]: sums to 0.9, expected 1 within 1e-09",
            "expert 0[topic 0]: success_prob 0.6 and mean_time 2.0 inconsistent "
            "(q*T deviates from 1 by 0.2)",
        ]

    @pytest.mark.parametrize(
        "pmf, times, message",
        [
            ([[math.nan, 1.0]], [1, 2], "pmf[expert 0][topic 0]: mass must be finite"),
            ([[math.inf, 0.0]], [1, 2], "pmf[expert 0][topic 0]: mass must be finite"),
            ([[0.5, -math.inf]], [1, 2], "pmf[expert 0][topic 1]: mass must be finite"),
            ([[0.5, 0.5]], [math.nan, 2], "mean_time[topic 0]: must be a time or null"),
            ([[0.5, 0.5]], [1, -math.inf], "mean_time[topic 1]: T(x) >= 1"),
        ],
    )
    def test_non_finite_numbers_are_flagged(self, pmf, times, message):
        # Every comparison with NaN is false, so no range check alone sees it.
        doc = {"topics": 2, "lambda": 0.5, "pmf": pmf, "experts": [{"id": 0, "T": times}]}
        found = violations(lambda: instance_from_dict(doc))
        assert message in found[0]
        # An infinite entry also makes its row's sum wrong; NaN never compares.
        assert len(found) == 1 + any(math.isinf(v) for v in doc["pmf"][0])

    def test_bare_profile_below_one_slot_constructs(self):
        # Capacity formulas take bare profiles built from estimates, which
        # may fall below one slot; only an Instance checks T(x) >= 1.
        expert = ExpertProfile.from_mean_times(0, [0.5])
        assert expert.success_prob.tolist() == [2.0]

    def test_infinite_mean_time_stays_legal(self):
        doc = {"topics": 2, "lambda": 0.5, "pmf": [[0.5, 0.5]] * 2,
               "experts": [{"id": 0, "T": [math.inf, 2]}, {"id": 1, "T": [None, 1]}]}
        assert instance_from_dict(doc).n_experts == 2

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_validate_is_pure_and_idempotent(self, inst):
        first = _validate_instance(inst)
        second = _validate_instance(inst)
        assert first == second == []


class TestMergedPmf:
    def test_disjoint_experts(self):
        inst = make_instance([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]] * 2)
        assert np.allclose(merged_pmf(inst), [1.0, 1.0])

    def test_single_expert_identity(self):
        inst = make_instance([[0.3, 0.7]], [[1.0, 1.0]])
        assert np.allclose(merged_pmf(inst), [0.3, 0.7])

    def test_three_uniform_experts(self):
        third = [1 / 3, 1 / 3, 1 / 3]
        inst = make_instance([third] * 3, [[1.0] * 3] * 3)
        assert np.allclose(merged_pmf(inst), [1.0, 1.0, 1.0])

    @given(instances())
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_double_loop_and_sums_to_n(self, inst):
        merged = merged_pmf(inst)
        for x in range(inst.n_topics):
            naive = 0.0
            for i in range(inst.n_experts):
                naive += float(inst.arrivals.pmf[i, x])
            assert merged[x] == pytest.approx(naive, abs=1e-12)
        assert float(merged.sum()) == pytest.approx(inst.n_experts, abs=1e-9)


class TestImmutability:
    def test_arrays_are_read_only(self):
        inst = make_instance([[0.5, 0.5]], [[1.0, 0.5]])
        with pytest.raises(ValueError):
            inst.arrivals.pmf[0, 0] = 0.9
        with pytest.raises(ValueError):
            inst.experts[0].success_prob[0] = 0.1


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        inst = make_instance(
            [[0.25, 0.75], [0.5, 0.5]],
            [[1.0, 0.0], [0.5, 0.25]],
            lam=0.7,
        )
        path = tmp_path / "instance.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded.arrivals.lam == inst.arrivals.lam
        assert np.array_equal(loaded.arrivals.pmf, inst.arrivals.pmf)
        for orig, back in zip(inst.experts, loaded.experts):
            assert orig.expert_id == back.expert_id
            assert np.array_equal(orig.mean_time, back.mean_time)
            assert np.array_equal(orig.success_prob, back.success_prob)

    def test_infinite_time_encodes_as_null(self):
        inst = make_instance([[0.5, 0.5]], [[1.0, 0.0]])
        doc = instance_to_dict(inst)
        assert doc["experts"][0]["T"] == [1.0, None]
        assert math.isinf(instance_from_dict(doc).experts[0].mean_time[1])
        assert json.dumps(doc)  # serializable as-is

    def test_rectangular_pmf_of_the_wrong_width_names_topics(self):
        # A ragged pmf is rejected earlier, as field 'pmf' (see test_cli.py).
        doc = instance_to_dict(make_instance([[0.5, 0.5]] * 2, [[1.0, 1.0]] * 2))
        doc["topics"] = 3
        with pytest.raises(ValueError, match="has 2 entries, 'topics' declares 3"):
            instance_from_dict(doc)

    def test_malformed_documents_raise(self):
        good = instance_to_dict(make_instance([[1.0]], [[1.0]]))
        for breakage in (
            lambda d: d.pop("lambda"),
            lambda d: d.pop("experts"),
            lambda d: d["pmf"][0].append(0.0),
            lambda d: d["experts"][0]["T"].append(2.0),
        ):
            doc = json.loads(json.dumps(good))
            breakage(doc)
            with pytest.raises(ValueError):
                instance_from_dict(doc)
