import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound import core, deviation
from genbound.complexity import _MC_CHUNK
from genbound.concentration import check_tail_trials, simulate_tail
from genbound.core import (
    DiscreteDistribution,
    EvaluatedClass,
    ExactEnumerationLimit,
    GenboundError,
)
from genbound.deviation import (
    _sample_deviations,
    audit_bounded_difference,
    check_symmetrization_identity,
    verify_expectation_bound,
)
from genbound.instances import DiscreteInstance, identity_instance, random_discrete_instance

from conftest import enumerate_product, oracle_symmetrization, oracle_uniform_deviation


def uniform01():
    return DiscreteDistribution([0.0, 1.0], [0.5, 0.5])


class TestUniformDeviation:
    """The uniform deviation of a sample of support indices on the class on the whole support."""

    def test_matching_mean_is_zero(self):
        cls = EvaluatedClass([[0.5, 0.5]], 1.0)
        assert _sample_deviations(cls, np.array([0.5]), np.array([[0, 1]])).tolist() == [0.0]

    def test_identity_class(self):
        inst = identity_instance(uniform01())
        means = inst.dist.expectation(inst.table)
        assert _sample_deviations(inst.support_class, means, np.array([[1, 1]])).tolist() == [0.5]

    def test_max_selection(self):
        cls = EvaluatedClass([[0.2, 0.2], [0.7, 0.7]], 1.0)
        assert _sample_deviations(cls, np.zeros(2), np.array([[0, 1]])) == pytest.approx([0.7])

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6))
    def test_matches_oracle_and_range(self, m, n, seed):
        rng = np.random.default_rng(seed)
        evals = rng.uniform(-1, 1, (m, n))
        means = rng.uniform(-1, 1, m)
        cls = EvaluatedClass(evals, 1.0)
        sample = rng.integers(0, n, n)
        [value] = _sample_deviations(cls, means, sample[None])
        assert value == pytest.approx(oracle_uniform_deviation(evals[:, sample], means), abs=1e-12)
        assert 0.0 <= value <= 2.0 * cls.envelope_b + 1e-12


class TestBoundedDifferenceAudit:
    def test_constant_class(self):
        dist = uniform01()
        table = np.full((1, 2), 0.3)
        inst = DiscreteInstance.from_table(table, 1.0, dist)
        audit = audit_bounded_difference(inst.support_class, dist, 2)
        assert audit.max_observed_delta == 0.0
        assert audit.passed

    def test_identity_on_unit_support(self):
        inst = identity_instance(uniform01())
        audit = audit_bounded_difference(inst.support_class, inst.dist, 2)
        assert audit.theoretical_cap == pytest.approx(1.0)
        assert audit.perturbations_checked == 4 * 2 * 2
        assert audit.passed

    def test_understated_envelope_is_surfaced(self):
        dist = uniform01()
        inst = DiscreteInstance.from_table(
            [[0.0, 1.0]], 0.1, dist, check_envelope=False
        )
        audit = audit_bounded_difference(inst.support_class, dist, 2)
        assert not audit.passed
        assert audit.max_observed_delta > audit.theoretical_cap

    def test_cap_attained_by_identity_on_pm_one(self):
        inst = identity_instance(DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]))
        audit = audit_bounded_difference(inst.support_class, inst.dist, 2)
        assert audit.max_observed_delta == pytest.approx(audit.theoretical_cap, abs=1e-12)

    def test_enumeration_cap(self):
        inst = identity_instance(uniform01())
        with pytest.raises(ExactEnumerationLimit):
            audit_bounded_difference(inst.support_class, inst.dist, 3, cap=10)

    @given(st.integers(0, 10**6))
    def test_true_envelope_never_violates(self, seed):
        inst = random_discrete_instance(seed, m=4, support_size=3)
        audit = audit_bounded_difference(inst.support_class, inst.dist, 3)
        assert audit.passed


class TestCountBudget:
    def test_refuses_the_count_matrix_before_building_it(self, monkeypatch):
        inst = random_discrete_instance(3, m=2, support_size=5)
        cls, dist = inst.support_class, inst.dist
        means = dist.expectation(cls.evals)
        samples = np.zeros((20, 2), dtype=np.intp)
        monkeypatch.setattr(deviation, "MAX_DRAW_ELEMENTS", 100)
        assert _sample_deviations(cls, means, samples).shape == (20,)
        monkeypatch.setattr(deviation, "MAX_DRAW_ELEMENTS", 99)

        def refuse(*args, **kwargs):
            raise AssertionError("the count matrix was built")

        monkeypatch.setattr(np, "bincount", refuse)
        with pytest.raises(GenboundError) as raised:
            _sample_deviations(cls, means, samples)
        assert str(raised.value) == (
            "the count matrix of 20 samples on 5 support points holds 5 * 20 = 100 values, "
            "above the budget of 99"
        )
        # the first chunk refuses, at any thread count
        messages = set()
        for threads in (1, 2):
            with pytest.raises(GenboundError) as raised:
                simulate_tail(cls, dist, 2, 0.1, 3 * _MC_CHUNK // 2, 7, 0.0, threads=threads)
            messages.add(str(raised.value))
        assert messages == {
            f"the count matrix of {_MC_CHUNK} samples on 5 support points holds "
            f"5 * {_MC_CHUNK} = {5 * _MC_CHUNK} values, above the budget of 99"
        }


    @pytest.mark.parametrize("trials", [1000, 1001, _MC_CHUNK + 1])
    def test_tail_trials_checked_from_the_support_as_simulate_tail_checks_them(self, monkeypatch, trials):
        monkeypatch.setattr(deviation, "MAX_DRAW_ELEMENTS", 5 * 1000)  # 1,000 samples on 5 points fit
        inst = random_discrete_instance(3, m=2, support_size=5)
        outcomes = []
        for check in (
            lambda: check_tail_trials(5, trials),
            lambda: simulate_tail(inst.support_class, inst.dist, 2, 0.1, trials, 7, 0.0),
        ):
            try:
                check()
                outcomes.append(None)
            except GenboundError as refused:
                outcomes.append(str(refused))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (trials == 1000)

    def test_expectation_bound_refuses_the_count_matrix_before_building_orbits(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the orbits were built")

        monkeypatch.setattr(core, "product_orbits", refuse)
        inst = random_discrete_instance(1, m=2, support_size=1000)
        with pytest.raises(GenboundError) as raised:
            verify_expectation_bound(inst.support_class, inst.dist, 2)
        assert str(raised.value) == (
            "the count matrix of 500500 samples on 1000 support points holds 1000 * 500500 = 500500000 values, "
            "above the budget of 134217728"
        )


class TestSymmetrization:
    def test_constant_class(self):
        dist = uniform01()
        inst = DiscreteInstance.from_table(np.full((2, 2), 0.4), 1.0, dist)
        report = check_symmetrization_identity(inst.support_class, dist, 2)
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_identity_against_oracle(self):
        inst = identity_instance(uniform01())
        report = check_symmetrization_identity(inst.support_class, inst.dist, 2)
        lhs, rhs = oracle_symmetrization(inst.table, inst.dist.probs, 2)
        assert report.lhs == pytest.approx(lhs, abs=1e-12)
        assert report.rhs == pytest.approx(rhs, abs=1e-12)
        assert report.abs_diff <= 1e-10

    def test_random_class_against_oracle(self):
        inst = random_discrete_instance(99, m=3, support_size=3)
        report = check_symmetrization_identity(inst.support_class, inst.dist, 2)
        lhs, rhs = oracle_symmetrization(inst.table, inst.dist.probs, 2)
        assert report.lhs == pytest.approx(lhs, abs=1e-12)
        assert report.rhs == pytest.approx(rhs, abs=1e-12)

    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(2, 3), st.integers(1, 3))
    def test_identity_holds(self, seed, m, support_size, n):
        inst = random_discrete_instance(seed, m=m, support_size=support_size)
        report = check_symmetrization_identity(inst.support_class, inst.dist, n)
        assert report.abs_diff <= 1e-10

    def test_enumeration_cap(self):
        inst = identity_instance(uniform01())
        with pytest.raises(ExactEnumerationLimit):
            check_symmetrization_identity(inst.support_class, inst.dist, 2, cap=10)


class TestExpectationBound:
    def test_constant_class(self):
        dist = uniform01()
        inst = DiscreteInstance.from_table(np.full((1, 2), 0.4), 1.0, dist)
        report = verify_expectation_bound(inst.support_class, dist, 2)
        assert report.expected_deviation == 0.0
        assert report.twice_rademacher >= 0.0

    def test_identity_on_pm_one(self):
        inst = identity_instance(DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]))
        report = verify_expectation_bound(inst.support_class, inst.dist, 2)
        # by hand: E|sample mean| = 0.5; every realized sample has complexity 0.5
        assert report.expected_deviation == pytest.approx(0.5, abs=1e-12)
        assert report.twice_rademacher == pytest.approx(1.0, abs=1e-12)
        assert report.slack >= -1e-10

    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(2, 3), st.integers(1, 3))
    def test_holds_on_random_instances(self, seed, m, support_size, n):
        inst = random_discrete_instance(seed, m=m, support_size=support_size)
        report = verify_expectation_bound(inst.support_class, inst.dist, n)
        assert report.slack >= -1e-10

    def test_expected_deviation_matches_enumeration_oracle(self):
        import itertools

        inst = random_discrete_instance(123, m=3, support_size=3)
        means = inst.dist.expectation(inst.table)
        n = 2
        report = verify_expectation_bound(inst.support_class, inst.dist, n)
        terms = []
        for indices in itertools.product(range(3), repeat=n):
            weight = math.prod(float(inst.dist.probs[k]) for k in indices)
            terms.append(
                weight * oracle_uniform_deviation(inst.table[:, list(indices)], means)
            )
        assert report.expected_deviation == pytest.approx(math.fsum(terms), abs=1e-12)

    def test_the_measure_passed_sets_the_means(self):
        # the support class of one measure, checked under another on the same support
        inst = random_discrete_instance(123, m=3, support_size=3)
        dist = DiscreteDistribution(inst.dist.support, [0.6, 0.3, 0.1])
        n = 3
        report = verify_expectation_bound(inst.support_class, dist, n)
        means = dist.expectation(inst.table)
        expected = math.fsum(
            weight * oracle_uniform_deviation(inst.table[:, list(idx)], means)
            for idx, weight in enumerate_product(dist, n)
        )
        assert report.expected_deviation == pytest.approx(expected, abs=1e-12)
