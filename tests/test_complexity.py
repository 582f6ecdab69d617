import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from genbound import complexity, core
from genbound.complexity import (
    ComplexityResult,
    Method,
    check_mc_draws,
    check_without_abs_le_abs,
    empirical_rademacher,
    empirical_rademacher_mc,
    empirical_rademacher_without_abs,
    expected_rademacher,
    expected_rademacher_mc,
    _MC_CHUNK,
    _distinct_rows,
    _mc_result,
    _orbit_averages,
    _sign_draw_values,
    _sign_sums,
    _sign_words,
)
from genbound.core import (
    DimensionMismatch,
    DiscreteDistribution,
    DrawBudgetExceeded,
    EvaluatedClass,
    ExactEnumerationLimit,
    InvariantViolation,
    derive_seed,
)
from genbound.instances import identity_instance, random_discrete_instance, random_evaluated_class

from conftest import oracle_orbit_draws, oracle_sign_average


def small_class(st_m=st.integers(1, 5), st_n=st.integers(1, 6)):
    return st.builds(
        lambda m, n, seed: random_evaluated_class(seed, m=m, n=n),
        st_m,
        st_n,
        st.integers(0, 10**6),
    )


class TestEmpiricalExact:
    def test_zero_class(self):
        assert empirical_rademacher(EvaluatedClass([[0.0, 0.0]], 0.0)).value == 0.0

    def test_single_point(self):
        assert empirical_rademacher(EvaluatedClass([[3.0]], 3.0)).value == 3.0

    def test_two_ones(self):
        # signs (+,+),(+,-),(-,+),(-,-) give |sums|/2 of 1,0,0,1
        assert empirical_rademacher(EvaluatedClass([[1.0, 1.0]], 1.0)).value == pytest.approx(
            0.5, abs=1e-15
        )

    def test_without_abs_two_ones(self):
        value = empirical_rademacher_without_abs(EvaluatedClass([[1.0, 1.0]], 1.0)).value
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_negation_closed_equals_abs(self):
        rng = np.random.default_rng(5)
        row = rng.uniform(-1, 1, 5)
        single = EvaluatedClass(row[None, :], 1.0)
        doubled = EvaluatedClass(np.vstack([row, -row]), 1.0)
        assert empirical_rademacher_without_abs(doubled).value == empirical_rademacher(
            single
        ).value

    def test_cap(self):
        with pytest.raises(ExactEnumerationLimit):
            empirical_rademacher(EvaluatedClass(np.zeros((1, 6)), 1.0), sign_cap=5)

    def test_block_budget(self, monkeypatch):
        # a block of 4 sign words at n = 3 fits over 2 rows
        for module in (core, complexity):
            monkeypatch.setattr(module, "MAX_DRAW_ELEMENTS", 8)
        empirical_rademacher(EvaluatedClass(np.ones((2, 3)), 1.0))
        with pytest.raises(ExactEnumerationLimit, match="^a block of 4 sign words over 3 class rows exceeds"):
            empirical_rademacher(EvaluatedClass(np.ones((3, 3)), 1.0))
        # so "auto" passes the Monte Carlo check of a class the exact kernel takes, and only that
        check_mc_draws(2, 3, 100, sign_cap=20)
        for m, sign_cap in ((3, 20), (2, 2)):
            with pytest.raises(DrawBudgetExceeded):
                check_mc_draws(m, 3, 100, sign_cap=sign_cap)

    def test_exact_provenance(self):
        result = empirical_rademacher(EvaluatedClass([[1.0]], 1.0))
        assert result.method is Method.EXACT_ENUMERATION
        assert result.draws == 0 and result.std_error == 0.0 and result.seed == 0

    def test_result_invariant(self):
        with pytest.raises(InvariantViolation):
            ComplexityResult(1.0, Method.EXACT_ENUMERATION, draws=10)

    @given(small_class())
    def test_matches_bruteforce_oracle(self, cls):
        assert empirical_rademacher(cls).value == pytest.approx(
            oracle_sign_average(cls.evals, absolute=True), abs=1e-12
        )
        assert empirical_rademacher_without_abs(cls).value == pytest.approx(
            oracle_sign_average(cls.evals, absolute=False), abs=1e-12
        )

    @given(small_class(), st.floats(-3.0, 3.0))
    def test_scale_equivariance(self, cls, c):
        scaled = EvaluatedClass(c * cls.evals, abs(c) * cls.envelope_b + 1e-9)
        assert empirical_rademacher(scaled).value == pytest.approx(
            abs(c) * empirical_rademacher(cls).value, abs=1e-12
        )

    @given(small_class(), st.integers(0, 10**6))
    def test_row_monotonicity(self, cls, seed):
        extra = np.random.default_rng(seed).uniform(-1, 1, (1, cls.n))
        bigger = EvaluatedClass(np.vstack([cls.evals, extra]), max(cls.envelope_b, 1.0))
        assert empirical_rademacher(bigger).value >= empirical_rademacher(cls).value - 1e-15

    @given(small_class())
    def test_range(self, cls):
        value = empirical_rademacher(cls).value
        assert 0.0 <= value <= cls.envelope_b + 1e-12


class TestEmpiricalMonteCarlo:
    def test_zero_class(self):
        result = empirical_rademacher_mc(EvaluatedClass([[0.0, 0.0]], 0.0), 500, 1)
        assert result.value == 0.0 and result.std_error == 0.0

    def test_close_to_exact(self):
        cls = EvaluatedClass([[1.0, 1.0]], 1.0)
        result = empirical_rademacher_mc(cls, 100_000, 42)
        assert abs(result.value - 0.5) <= 4.0 * result.std_error

    def test_thread_count_invariance(self):
        cls = random_evaluated_class(8, m=4, n=9)
        one = empirical_rademacher_mc(cls, 30_000, 17, threads=1)
        eight = empirical_rademacher_mc(cls, 30_000, 17, threads=8)
        assert one.value == eight.value and one.std_error == eight.std_error

    def test_minimum_draws(self):
        with pytest.raises(InvariantViolation):
            empirical_rademacher_mc(EvaluatedClass([[1.0]], 1.0), 99, 0)

    def test_provenance(self):
        result = empirical_rademacher_mc(EvaluatedClass([[1.0]], 1.0), 200, 5)
        assert result.method is Method.MONTE_CARLO
        assert result.draws == 200 and result.seed == 5

    def test_four_sigma_consistency_across_200_seeds(self):
        cls = random_evaluated_class(2, m=3, n=6)
        exact = empirical_rademacher(cls).value
        misses = 0
        for seed in range(200):
            res = empirical_rademacher_mc(cls, 2000, seed)
            if abs(res.value - exact) > 4.0 * res.std_error:
                misses += 1
        assert misses <= 2  # at least 99% of seeds within four standard errors

    def test_std_error_scaling(self):
        cls = random_evaluated_class(3, m=4, n=8)
        small = empirical_rademacher_mc(cls, 4000, 11)
        large = empirical_rademacher_mc(cls, 16_000, 11)
        ratio = small.std_error / large.std_error
        assert 1.0 <= ratio <= 4.0  # ~2 expected; allow a factor-2 band


    @pytest.mark.parametrize("m", [1, 2, 7, 24, 25])
    def test_sign_draw_values_keep_the_bits_of_the_row_maximum(self, m):
        def row_maximum(evals, words):  # the expression the row maxima replace
            corr = _sign_sums(evals, words)
            corr /= evals.shape[1]
            return np.abs(corr, out=corr).max(axis=0)

        rng = np.random.default_rng(m)
        for n in range(1, 65):
            evals = rng.uniform(-1.0, 1.0, (m, n))
            evals[rng.random((m, n)) < 0.2] = -0.0  # signed zeros, and zero averages at small n
            evals[rng.random((m, n)) < 0.2] = 0.0
            words = _sign_words(n, 0, 300, n)
            got = _sign_draw_values(evals, words)
            assert got.tobytes() == row_maximum(evals, words).tobytes()

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("draws", [100, 101, _MC_CHUNK + 1])
    def test_draws_checked_from_the_shape_as_the_estimate_checks_them(self, monkeypatch, m, n, draws):
        # 100 draws of 3 signs and 2 sums, or of 2 signs and 3 sums, fit
        monkeypatch.setattr(core, "MAX_DRAW_ELEMENTS", 3 * 100)
        cls = random_evaluated_class(1, m=m, n=n)
        outcomes = []
        for check in (lambda: check_mc_draws(m, n, draws), lambda: empirical_rademacher_mc(cls, draws, 1)):
            try:
                check()
                outcomes.append(None)
            except DrawBudgetExceeded as refused:
                outcomes.append(str(refused))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (draws == 100)


class TestExpected:
    def test_point_mass_equals_empirical(self):
        dist = DiscreteDistribution([0.7], [1.0])
        inst = identity_instance(dist)
        expected = expected_rademacher(inst.support_class, dist, 3)
        constant = empirical_rademacher(EvaluatedClass(inst.table[:, [0, 0, 0]], inst.envelope_b))
        assert expected.value == constant.value

    def test_identity_on_pm_one(self):
        dist = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
        inst = identity_instance(dist)
        assert expected_rademacher(inst.support_class, dist, 1).value == 1.0

    def test_zero_class(self):
        dist = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        support_class = EvaluatedClass(np.zeros((2, 2)), 0.0)
        assert expected_rademacher(support_class, dist, 2).value == 0.0

    def test_cap(self):
        dist = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        inst = identity_instance(dist)
        with pytest.raises(ExactEnumerationLimit):
            expected_rademacher(inst.support_class, dist, 4, product_cap=10)

    def test_matches_tuple_enumeration_oracle(self):
        import itertools
        import math

        from genbound.instances import random_discrete_instance

        inst = random_discrete_instance(57, m=3, support_size=3)
        n = 2
        value = expected_rademacher(inst.support_class, inst.dist, n).value
        terms = []
        for indices in itertools.product(range(3), repeat=n):
            weight = math.prod(float(inst.dist.probs[k]) for k in indices)
            terms.append(weight * oracle_sign_average(inst.table[:, list(indices)]))
        assert value == pytest.approx(math.fsum(terms), abs=1e-12)

    def test_mc_point_mass_sampler(self):
        inst = identity_instance(DiscreteDistribution([0.7], [1.0]))
        result = expected_rademacher_mc(inst.support_class, inst.dist, 2, 200, 3)
        direct = empirical_rademacher(EvaluatedClass([[0.7, 0.7]], 1.0)).value
        assert result.value == pytest.approx(direct, abs=1e-15)
        assert result.std_error == 0.0

    def test_mc_matches_exact(self):
        dist = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
        inst = identity_instance(dist)
        exact = expected_rademacher(inst.support_class, dist, 2).value
        result = expected_rademacher_mc(inst.support_class, dist, 2, 4000, 9)
        assert abs(result.value - exact) <= 4.0 * result.std_error

    def test_mc_matches_exact_on_n_one(self):
        inst = identity_instance(DiscreteDistribution([-1.0, 1.0], [0.5, 0.5]))
        result = expected_rademacher_mc(inst.support_class, inst.dist, 1, 500, 2)
        # every realized single-point sample has complexity |x| = 1
        assert result.value == 1.0 and result.std_error == 0.0

    def test_mc_std_error_scaling(self):
        inst = identity_instance(DiscreteDistribution(np.linspace(-1.0, 1.0, 5), np.full(5, 0.2)))
        small = expected_rademacher_mc(inst.support_class, inst.dist, 2, 1000, 7)
        large = expected_rademacher_mc(inst.support_class, inst.dist, 2, 4000, 7)
        ratio = small.std_error / large.std_error
        assert 1.0 <= ratio <= 4.0  # ~2 expected when draws quadruple


class TestExpectedMonteCarloOnSupport:
    """``expected_rademacher_mc`` with the class on the whole support and its measure."""

    @given(arrays(np.intp, st.tuples(st.integers(1, 60), st.integers(1, 6)), elements=st.integers(0, 3)))
    @example(np.zeros((5, 3), dtype=np.intp))  # all rows equal
    @example(np.array([[2, 0, 1]], dtype=np.intp))  # a single row
    def test_distinct_rows_equal_unique(self, rows):
        distinct, inverse = _distinct_rows(rows)
        expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
        np.testing.assert_array_equal(distinct, expected)
        np.testing.assert_array_equal(inverse, expected_inverse.ravel())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_per_draw_values_across_a_chunk_edge(self, threads):
        inst = random_discrete_instance(3, m=2, support_size=2)
        draws, seed = _MC_CHUNK + 9, 12
        # the row kernel serves n = 4 and the count kernel n = 12; n at the sign cap is still exact
        for n in (4, 12):
            result = expected_rademacher_mc(inst.support_class, inst.dist, n, draws, seed, threads=threads, sign_cap=n)
            # draw j's value is that of the orbit its one word picks, taken alone
            reps, orbit = oracle_orbit_draws(inst.dist, n, seed, draws)
            alone = np.array([_orbit_averages(inst.table, rep[None])[0] for rep in reps])
            exact = [empirical_rademacher(EvaluatedClass(inst.table[:, rep], 1.0)).value for rep in reps]
            np.testing.assert_allclose(alone, exact, rtol=1e-12)
            assert result == _mc_result(alone[orbit], draws, seed)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_above_the_orbit_budget_equals_per_draw_orbit_values(self, threads, monkeypatch):
        inst = random_discrete_instance(8, m=3, support_size=6)
        n, draws, seed = 5, 200, 4
        # the C(10, 5) = 252 orbits hold 1,260 index cells, more than the 1,000 the draws take
        assert not complexity._orbit_table_fits(6, n, draws * n)
        # draw j's value is that of its sorted indices, taken alone
        idx = np.sort(inst.dist.draw_index_trials(seed, 0, draws, n), axis=1)
        alone = np.array([_orbit_averages(inst.table, row[None])[0] for row in idx])
        exact = [empirical_rademacher(EvaluatedClass(inst.table[:, row], 1.0)).value for row in idx]
        np.testing.assert_allclose(alone, exact, rtol=1e-12)
        monkeypatch.setattr(complexity, "_MC_CHUNK", 64)  # the draws span four chunks
        result = expected_rademacher_mc(inst.support_class, inst.dist, n, draws, seed, threads=threads)
        assert result == _mc_result(alone, draws, seed)

    def test_above_the_sign_cap(self, monkeypatch):
        monkeypatch.setattr(complexity, "_MC_CHUNK", 64)  # chunk edges at 200 draws
        inst = random_discrete_instance(4, m=3, support_size=2)
        one, two = (
            expected_rademacher_mc(inst.support_class, inst.dist, 6, 200, 5, threads=t, sign_cap=4) for t in (1, 2)
        )
        assert one == two and one.method is Method.MONTE_CARLO
        exact = expected_rademacher(inst.support_class, inst.dist, 6).value
        assert abs(one.value - exact) <= 5.0 * one.std_error

    @pytest.mark.parametrize("threads", [1, 2])
    def test_above_the_sign_cap_equals_per_draw_inner_estimates(self, threads, monkeypatch):
        inst = random_discrete_instance(4, m=3, support_size=2)
        cls, n, draws, seed = inst.support_class, 6, 300, 5
        # each draw's value is the inner estimate on its own sample, from the draw's own seed
        idx = inst.dist.draw_index_trials(seed, 0, draws, n)
        values = np.array([
            empirical_rademacher_mc(
                EvaluatedClass(cls.evals[:, row], cls.envelope_b, validate=False),
                complexity._INNER_DRAWS, derive_seed(seed, f"inner:{j}"),
            ).value
            for j, row in enumerate(idx)
        ])
        monkeypatch.setattr(complexity, "_MC_CHUNK", 64)  # the draws span five chunks
        result = expected_rademacher_mc(cls, inst.dist, n, draws, seed, threads=threads, sign_cap=4)
        assert result == _mc_result(values, draws, seed)

    def test_class_off_the_support_raises_before_drawing(self, monkeypatch):
        def draw(*args):
            raise AssertionError("drew before checking the class")

        monkeypatch.setattr(DiscreteDistribution, "draw_index_trials", draw)
        dist = DiscreteDistribution([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        with pytest.raises(DimensionMismatch):
            expected_rademacher_mc(EvaluatedClass([[1.0, -1.0]], 1.0), dist, 3, 200, 1)


class TestWithoutAbsComparison:
    @given(small_class())
    def test_holds_on_random_classes(self, cls):
        report = check_without_abs_le_abs(cls)
        assert report.slack >= -1e-12

    def test_negation_closed_slack_zero(self):
        rng = np.random.default_rng(12)
        row = rng.uniform(-1, 1, 4)
        cls = EvaluatedClass(np.vstack([row, -row]), 1.0)
        report = check_without_abs_le_abs(cls)
        assert abs(report.slack) <= 1e-12

    def test_zero_class(self):
        report = check_without_abs_le_abs(EvaluatedClass([[0.0, 0.0]], 0.0))
        assert report.with_abs == 0.0 and report.without_abs == 0.0
