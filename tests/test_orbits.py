"""Orbit sums against the tuple-by-tuple enumeration they replace.

Every product-measure expectation is summed over permutation orbits with
multinomial weights.  These tests recompute each quantity over all s**n tuples
of the ``enumerate_product`` oracle (fsum accumulation) and require agreement
to 1e-12.
"""

import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound import core
from genbound.complexity import empirical_rademacher, expected_rademacher
from genbound.concentration import simulate_tail
from genbound.core import (
    DimensionMismatch,
    DiscreteDistribution,
    EvaluatedClass,
    ExactEnumerationLimit,
    product_orbits,
)
from genbound.deviation import (
    _sample_deviations,
    audit_bounded_difference,
    check_symmetrization_identity,
    verify_expectation_bound,
)
from genbound.instances import random_discrete_instance

from conftest import enumerate_product, oracle_product_orbits, oracle_uniform_deviation

# largest n per support size whose symmetrization stays within the default cap
_SYM_MAX_N = {2: 6, 3: 4, 4: 3}


def _probs(seed: int, s: int) -> np.ndarray:
    probs = np.random.default_rng(seed).uniform(0.05, 1.0, s)
    return probs / probs.sum()


def _on_sample(inst, idx) -> EvaluatedClass:
    """The instance's class restricted to the sample of support indices ``idx``."""
    return EvaluatedClass(inst.table[:, list(idx)], inst.envelope_b)


def tuple_reference(inst, n: int) -> dict:
    """E[UD], the expected complexity and the audit's max delta, tuple by tuple."""
    s = inst.dist.size
    means = inst.dist.expectation(inst.table)
    ud, ud_terms, rn_terms = {}, [], []
    for idx, weight in enumerate_product(inst.dist, n):
        cls = _on_sample(inst, idx)
        ud[idx] = oracle_uniform_deviation(cls.evals, means)
        ud_terms.append(weight * ud[idx])
        rn_terms.append(weight * empirical_rademacher(cls).value)
    max_delta = 0.0
    for idx, value in ud.items():
        for k, r in itertools.product(range(n), range(s)):
            replaced = idx[:k] + (r,) + idx[k + 1 :]
            max_delta = max(max_delta, abs(value - ud[replaced]))
    return {
        "expected_deviation": math.fsum(ud_terms),
        "expected_rademacher": math.fsum(rn_terms),
        "max_delta": max_delta,
    }


def tuple_symmetrization(inst, n: int) -> tuple[float, float]:
    """Both sides of the symmetrization identity over all pairs of tuples."""
    items = list(enumerate_product(inst.dist, n))
    evals = np.stack([_on_sample(inst, idx).evals for idx, _w in items])  # (T, m, n)
    weights = [w for _idx, w in items]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    lhs_terms, rhs_terms = [], []
    for t, w in enumerate(weights):
        diff = evals[t][None] - evals  # S fixed, S' varies
        lhs = np.abs(diff.sum(axis=2)).max(axis=1)
        rhs = np.abs(np.einsum("tmk,qk->tqm", diff, signs)).max(axis=2).mean(axis=1)
        lhs_terms.extend(w * w2 * v for w2, v in zip(weights, lhs))
        rhs_terms.extend(w * w2 * v for w2, v in zip(weights, rhs))
    return math.fsum(lhs_terms), math.fsum(rhs_terms)


class TestProductOrbits:
    @given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 10**6))
    def test_count_and_total_weight(self, s, n, seed):
        reps, weights = product_orbits(_probs(seed, s), n)
        assert reps.shape == (math.comb(n + s - 1, s - 1), n)
        assert abs(math.fsum(weights) - 1.0) <= 1e-12

    @given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 10**6))
    def test_orbit_weight_is_sum_of_its_tuples(self, s, n, seed):
        dist = DiscreteDistribution(np.arange(s, dtype=float), _probs(seed, s))
        by_orbit = defaultdict(list)
        for idx, weight in enumerate_product(dist, n):
            by_orbit[tuple(sorted(idx))].append(weight)
        reps, weights = product_orbits(dist.probs, n)
        rows = [tuple(row) for row in reps.tolist()]
        assert rows == sorted(by_orbit)
        for row, weight in zip(rows, weights):
            assert weight == pytest.approx(math.fsum(by_orbit[row]), rel=1e-13, abs=0.0)

    def test_audit_is_the_largest_change_under_one_replacement(self):
        # tables scaled past the envelope make some audits fail; every delta must keep its bits
        outcomes = set()
        for s, n, scale in itertools.product(range(1, 5), range(1, 7), (1.0, 3.0)):
            inst = random_discrete_instance(10 * s + n, m=3, support_size=s)
            cls = EvaluatedClass(inst.table * scale, inst.envelope_b, validate=False)
            means = inst.dist.expectation(cls.evals)
            samples = np.array(list(itertools.product(range(s), repeat=n)), dtype=np.intp)
            deviations = _sample_deviations(cls, means, samples)
            largest = 0.0
            for k, r in itertools.product(range(n), range(s)):
                replaced = samples.copy()
                replaced[:, k] = r
                gaps = np.abs(deviations - _sample_deviations(cls, means, replaced))
                largest = max(largest, float(gaps.max()))
            audit = audit_bounded_difference(cls, inst.dist, n)
            assert audit.max_observed_delta == largest, (s, n, scale)
            outcomes.add(audit.passed)
        assert outcomes == {True, False}

    def test_single_point_support(self):
        reps, weights = product_orbits([1.0], 5)
        assert reps.tolist() == [[0, 0, 0, 0, 0]]
        assert weights.tolist() == [1.0]

    @pytest.mark.parametrize(
        "s, n",
        [(s, n) for s in range(1, 7) for n in range(1, 11)]
        + [(2, n) for n in (19, 20, 21, 22, 64, 300, 1029)]
        + [(3, 21), (4, 10), (9, 3), (30, 3), (1, 40), (1000, 2)],
    )
    def test_equal_the_row_by_row_multinomials_bit_for_bit(self, s, n):
        # n = 20 is the last n whose n! fits in int64; Python ints take over above it
        probs = _probs(s + n, s)
        reps, weights = product_orbits(probs, n)
        expected_reps, expected_weights = oracle_product_orbits(probs, n)
        assert reps.dtype == expected_reps.dtype and np.array_equal(reps, expected_reps)
        assert weights.dtype == np.float64 and weights.tobytes() == expected_weights.tobytes()

    def test_multinomial_past_the_float_range_overflows_as_before(self):
        # C(1030, 515) is above the largest float
        for orbits in (product_orbits, oracle_product_orbits):
            with pytest.raises(OverflowError):
                orbits([0.5, 0.5], 1030)

    @given(st.integers(1, 5), st.integers(1, 14))
    def test_weights_are_the_exact_multinomials(self, s, n):
        # with every probability 1 a weight is its multinomial n! / prod_a c_a!, as a float
        reps, weights = product_orbits(np.ones(s), n)
        for row, weight in zip(reps.tolist(), weights.tolist()):
            counts = [row.count(a) for a in range(s)]
            assert weight == float(math.factorial(n) // math.prod(map(math.factorial, counts)))


class TestOrbitsMatchTuples:
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(2, 4), st.integers(1, 6))
    def test_expectations_and_audit(self, seed, m, s, n):
        inst = random_discrete_instance(seed, m=m, support_size=s)
        ref = tuple_reference(inst, n)
        rn = expected_rademacher(inst.support_class, inst.dist, n).value
        bound = verify_expectation_bound(inst.support_class, inst.dist, n)
        audit = audit_bounded_difference(inst.support_class, inst.dist, n)
        assert rn == pytest.approx(ref["expected_rademacher"], abs=1e-12)
        assert bound.twice_rademacher == pytest.approx(2.0 * ref["expected_rademacher"], abs=1e-12)
        assert bound.expected_deviation == pytest.approx(ref["expected_deviation"], abs=1e-12)
        assert audit.max_observed_delta == pytest.approx(ref["max_delta"], abs=1e-12)
        assert audit.perturbations_checked == s**n * n * s

    @given(
        st.integers(0, 10**6),
        st.integers(1, 5),
        st.integers(2, 4).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, _SYM_MAX_N[s]))),
    )
    def test_symmetrization(self, seed, m, shape):
        s, n = shape
        inst = random_discrete_instance(seed, m=m, support_size=s)
        report = check_symmetrization_identity(inst.support_class, inst.dist, n)
        lhs, rhs = tuple_symmetrization(inst, n)
        assert report.lhs == pytest.approx(lhs, abs=1e-12)
        assert report.rhs == pytest.approx(rhs, abs=1e-12)


class TestContracts:
    def test_caps_count_tuples(self):
        inst = random_discrete_instance(5, m=2, support_size=2)
        args = (inst.support_class, inst.dist, 4)
        calls = (
            (lambda cap: expected_rademacher(*args, product_cap=cap), 2**4),
            (lambda cap: verify_expectation_bound(*args, product_cap=cap), 2**4),
            (lambda cap: audit_bounded_difference(*args, cap=cap), 2**4 * 4 * 2),
            (lambda cap: check_symmetrization_identity(*args, cap=cap), 2**8 * 2**4),
        )
        for run, tuples in calls:
            run(tuples)
            with pytest.raises(ExactEnumerationLimit):
                run(tuples - 1)
        with pytest.raises(ExactEnumerationLimit):
            verify_expectation_bound(*args, product_cap=10)

    @pytest.mark.parametrize("n", [4, 10**6])
    def test_cap_messages_name_the_count_in_closed_form(self, n):
        # 2**(10**6) has more digits than Python converts to a string
        inst = random_discrete_instance(5, m=2, support_size=2)
        args = (inst.support_class, inst.dist, n)
        calls = (
            (lambda: expected_rademacher(*args, product_cap=15), f"product enumeration needs 2^{n} tuples"),
            (
                lambda: audit_bounded_difference(*args, cap=2**4 * 8 - 1),
                f"bounded-difference audit needs 2^{n} * {2 * n} perturbations",
            ),
            (
                lambda: check_symmetrization_identity(*args, cap=2**12 - 1),
                f"symmetrization check needs 4^{n} * 2^{n} enumerated terms",
            ),
        )
        for run, need in calls:
            with pytest.raises(ExactEnumerationLimit) as raised:
                run()
            assert str(raised.value).startswith(f"{need}, above the cap of ")

    def test_sign_cap_refuses_before_any_orbit_and_after_the_product_cap(self, monkeypatch):
        def refuse(probs, n):
            raise AssertionError("the orbits were built")

        monkeypatch.setattr(core, "product_orbits", refuse)
        inst = random_discrete_instance(5, m=2, support_size=2)
        args = (inst.support_class, inst.dist, 4)
        for run in (expected_rademacher, verify_expectation_bound):
            with pytest.raises(ExactEnumerationLimit) as raised:
                run(*args, sign_cap=3)
            assert str(raised.value) == "exact sign averaging for n=4 exceeds the exact-enumeration cap of 3"
            # over both caps, the product cap speaks first
            with pytest.raises(ExactEnumerationLimit) as raised:
                run(*args, product_cap=15, sign_cap=3)
            assert str(raised.value).startswith("product enumeration needs 2^4 tuples, above the cap of 15")

    def test_support_class_must_have_one_column_per_support_point(self):
        inst = random_discrete_instance(8, m=3, support_size=3)
        checks = (
            expected_rademacher,
            verify_expectation_bound,
            audit_bounded_difference,
            check_symmetrization_identity,
            lambda cls, dist, n: simulate_tail(cls, dist, n, 0.1, 1000, 0, 0.0),
        )
        for columns in ([0, 1], [0, 1, 2, 2]):
            cls = EvaluatedClass(inst.table[:, columns], inst.envelope_b)
            for check in checks:
                with pytest.raises(DimensionMismatch):
                    check(cls, inst.dist, 2)
