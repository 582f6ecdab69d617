import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import beta, binom

from genbound.complexity import expected_rademacher
from genbound import concentration
from genbound.concentration import (
    TailExperiment,
    clopper_pearson_lower,
    clopper_pearson_upper,
    high_probability_epsilon,
    mcdiarmid_bound,
    simulate_tail,
    verify_tail_bound,
)
from genbound.core import (
    DiscreteDistribution,
    InvalidDelta,
    InvalidEnvelope,
    InvariantViolation,
)
from genbound.instances import DiscreteInstance, identity_instance, random_discrete_instance


def pm_one():
    return DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])


class TestMcdiarmidBound:
    def test_zero_epsilon(self):
        assert mcdiarmid_bound(0.0, 5, 1.0) == 1.0

    def test_closed_form(self):
        assert mcdiarmid_bound(1.0, 2, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_inverse_pair(self):
        delta = 0.05
        eps = high_probability_epsilon(delta, 7, 2.0)
        assert mcdiarmid_bound(eps, 7, 2.0) == pytest.approx(delta, rel=1e-13)

    def test_invalid_envelope(self):
        with pytest.raises(InvalidEnvelope):
            mcdiarmid_bound(0.5, 3, 0.0)

    @pytest.mark.parametrize(
        "epsilon, n, b, expected",
        [
            (1e300, 4, 1.0, 0.0),  # eps**2 overflows
            (0.5, 4, 1e-200, 0.0),  # b**2 underflows to 0
            (0.0, 4, 1e-200, 1.0),
            (0.5, 4, 1e200, 1.0),  # b**2 overflows: the exponent is 1.25e-400
            (1e-170, 2, 1e-170, math.exp(-1.0)),  # both squares underflow; their ratio is 1
        ],
    )
    def test_squares_outside_the_float_range(self, epsilon, n, b, expected):
        assert mcdiarmid_bound(epsilon, n, b) == pytest.approx(expected, rel=1e-12)

    def test_monotonicities(self):
        eps_grid = np.linspace(0.1, 2.0, 8)
        values = [mcdiarmid_bound(e, 4, 1.0) for e in eps_grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        n_values = [mcdiarmid_bound(0.5, n, 1.0) for n in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(n_values, n_values[1:]))
        b_values = [mcdiarmid_bound(0.5, 4, b) for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(b_values, b_values[1:]))


class TestHighProbabilityEpsilon:
    def test_reference_point(self):
        assert high_probability_epsilon(1.0 / math.e, 2, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_decreasing_in_delta(self):
        deltas = np.linspace(0.01, 0.99, 12)
        values = [high_probability_epsilon(d, 5, 1.0) for d in deltas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_linear_in_envelope(self):
        one = high_probability_epsilon(0.1, 6, 1.0)
        two = high_probability_epsilon(0.1, 6, 2.0)
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.3, 2.0])
    def test_invalid_delta(self, delta):
        with pytest.raises(InvalidDelta):
            high_probability_epsilon(delta, 3, 1.0)

    def test_round_trip_grid(self):
        for delta in np.exp(np.linspace(math.log(1e-6), math.log(0.5), 30)):
            eps = high_probability_epsilon(delta, 9, 1.5)
            back = mcdiarmid_bound(eps, 9, 1.5)
            assert abs(back - delta) / delta <= 1e-12


class TestClopperPearson:
    def test_edge_cases(self):
        assert clopper_pearson_lower(0, 100) == 0.0
        assert clopper_pearson_upper(100, 100) == 1.0

    def test_upper_dominates_frequency(self):
        for k in (0, 1, 17, 99, 100):
            assert clopper_pearson_upper(k, 100) >= k / 100

    def test_lower_below_frequency(self):
        for k in (1, 17, 99, 100):
            assert clopper_pearson_lower(k, 100) <= k / 100

    def test_against_binomial_tail_inversion(self):
        # at the upper CP bound, seeing <= k successes has probability 1 - conf
        k, trials, conf = 7, 200, 0.99
        upper = clopper_pearson_upper(k, trials, conf)
        assert binom.cdf(k, trials, upper) == pytest.approx(1.0 - conf, rel=1e-9)
        lower = clopper_pearson_lower(k, trials, conf)
        assert binom.sf(k - 1, trials, lower) == pytest.approx(1.0 - conf, rel=1e-9)

    @pytest.mark.parametrize("conf", [0.9, 0.95, 0.99, 0.999])
    def test_brackets_the_exact_binomial_tail(self, conf):
        # at the bound scaled by 1 -+ 1e-12, the exact tail lies on either side of 1 - conf
        alpha = 1 - Fraction(conf)

        def tail(js, trials, p):
            num, den = min(p, 1.0).as_integer_ratio()
            terms = (math.comb(trials, j) * num**j * (den - num) ** (trials - j) for j in js)
            return Fraction(sum(terms), den**trials)

        for trials in range(1, 41):
            for k in range(trials + 1):
                if k < trials:
                    upper, at_most_k = clopper_pearson_upper(k, trials, conf), range(k + 1)
                    below, above = upper * (1 - 1e-12), upper * (1 + 1e-12)
                    assert tail(at_most_k, trials, below) > alpha > tail(at_most_k, trials, above)
                if k > 0:
                    lower, at_least_k = clopper_pearson_lower(k, trials, conf), range(k, trials + 1)
                    below, above = lower * (1 - 1e-12), lower * (1 + 1e-12)
                    assert tail(at_least_k, trials, below) < alpha < tail(at_least_k, trials, above)

    def test_agrees_with_beta_quantiles(self):
        for trials in (1, 2, 9, 100, 1000, 2999, 30_000, 100_000):
            for k in {min(k, trials) for k in (0, 1, 2, trials // 7, trials // 2, trials - 1, trials)}:
                for conf in (0.9, 0.95, 0.99, 0.999):
                    upper = 1.0 if k == trials else beta.ppf(conf, k + 1, trials - k)
                    lower = 0.0 if k == 0 else beta.ppf(1.0 - conf, k, trials - k + 1)
                    assert clopper_pearson_upper(k, trials, conf) == pytest.approx(upper, rel=1e-11, abs=0)
                    assert clopper_pearson_lower(k, trials, conf) == pytest.approx(lower, rel=1e-11, abs=0)

    def test_closed_forms_at_one_success_or_none(self):
        # (1 - p)**trials is 1 - conf at the upper bound for no success, and conf at the lower bound for one
        for trials in (1, 7, 10**3, 10**5, 10**7, 10**9):
            for conf in (0.9, 0.99, 0.999):
                upper = -math.expm1(math.log(1 - conf) / trials)
                lower = -math.expm1(math.log1p(-(1 - conf)) / trials)
                assert clopper_pearson_upper(0, trials, conf) == pytest.approx(upper, rel=1e-14, abs=0)
                assert clopper_pearson_lower(1, trials, conf) == pytest.approx(lower, rel=1e-14, abs=0)

    def test_agrees_with_beta_quantile_at_ten_million_trials(self):
        expected = beta.ppf(0.99, 5 * 10**6 + 1, 5 * 10**6)
        assert clopper_pearson_upper(5 * 10**6, 10**7) == pytest.approx(expected, rel=1e-11, abs=0)


class TestClopperPearsonStart:
    """The search starts from AS109's approximation, not from the mean a / (a + b)."""

    KS = (0, 1, 2, 3, 5, 8, 13, 20, 50, 100, 232, 500, 1000, 2000, 5000, 10_000, 20_000, 30_000)
    TRIALS = (1000, 3000, 10_000, 30_000, 100_000)
    # where the computed tail crosses 1 - conf more than once, the two searches stop at
    # different crossings: (successes, trials, which bound) and the ulps it moved
    MOVED = {(13, 1000, "lower"): 2, (2, 10_000, "lower"): 2}

    def grid(self):
        for trials in self.TRIALS:
            for k in self.KS:
                if k > trials:
                    continue
                if k < trials:
                    yield k, trials, "upper", (k + 1, trials - k)
                if k > 0:
                    yield k, trials, "lower", (k, trials - k + 1)

    ALPHA = 1.0 - 0.99  # as clopper_pearson_upper and clopper_pearson_lower form it

    def test_bounds_keep_their_bits_but_the_listed_ones(self):
        alpha = self.ALPHA
        moved = {}
        for k, trials, which, (a, b) in self.grid():
            upper = which == "upper"
            got = clopper_pearson_upper(k, trials) if upper else clopper_pearson_lower(k, trials)
            mean_start = concentration._beta_search(a, b, alpha, upper, a / (a + b))
            if got != mean_start:
                moved[(k, trials, which)] = abs(got - mean_start) / math.ulp(mean_start)
            # either way the bound is the conservative end of a bracket of adjacent floats
            inner = math.nextafter(got, 0.0 if upper else 1.0)
            tails = [concentration._beta_tails(p, a, b)[1 if upper else 0] for p in (got, inner)]
            assert tails[0] <= alpha < tails[1], (k, trials, which)
        assert moved == self.MOVED

    def test_start_saves_evaluations(self, monkeypatch):
        calls = []
        tails = concentration._beta_tails
        monkeypatch.setattr(concentration, "_beta_tails", lambda *args: calls.append(1) or tails(*args))
        counts = []
        for start in ("mean", "as109"):
            calls.clear()
            for _k, _trials, which, (a, b) in self.grid():
                upper = which == "upper"
                if start == "mean":
                    concentration._beta_search(a, b, self.ALPHA, upper, a / (a + b))
                else:
                    concentration._beta_quantile(a, b, self.ALPHA, upper=upper)
            counts.append(len(calls))
        assert counts[1] <= 0.7 * counts[0], counts


class TestSimulateTail:
    def test_constant_class_never_exceeds(self):
        dist = pm_one()
        inst = DiscreteInstance.from_table(np.full((2, 2), 0.25), 1.0, dist)
        exp = simulate_tail(inst.support_class, dist, 4, 0.1, 1000, 3, 0.0)
        assert exp.exceed_count == 0
        assert exp.theoretical > 0.0

    def test_identity_consistent_with_bound(self):
        inst = identity_instance(pm_one())
        rn = expected_rademacher(inst.support_class, inst.dist, 8)
        exp = simulate_tail(inst.support_class, inst.dist, 8, 0.5, 100_000, 11, rn.value)
        assert exp.empirical_freq <= exp.ci_upper
        assert verify_tail_bound(exp).passed

    def test_thread_count_invariance(self):
        inst = random_discrete_instance(4, m=3, support_size=3)
        rn = expected_rademacher(inst.support_class, inst.dist, 4)
        one = simulate_tail(inst.support_class, inst.dist, 4, 0.25, 20_000, 7, rn.value, threads=1)
        eight = simulate_tail(inst.support_class, inst.dist, 4, 0.25, 20_000, 7, rn.value, threads=8)
        assert one.exceed_count == eight.exceed_count

    def test_minimum_trials(self):
        inst = identity_instance(pm_one())
        with pytest.raises(InvariantViolation):
            simulate_tail(inst.support_class, inst.dist, 2, 0.1, 999, 0, 0.5)


class TestVerifyTailBound:
    def make_experiment(self, exceed, trials, theoretical):
        return TailExperiment(
            n=4,
            b=1.0,
            epsilon=0.5,
            trials=trials,
            seed=0,
            exceed_count=exceed,
            empirical_freq=exceed / trials,
            ci_upper=clopper_pearson_upper(exceed, trials),
            theoretical=theoretical,
            rademacher_value=0.0,
        )

    def test_zero_exceedances_pass(self):
        assert verify_tail_bound(self.make_experiment(0, 1000, 0.01)).passed

    def test_bound_not_violated_passes(self):
        assert verify_tail_bound(self.make_experiment(500, 1000, 0.9)).passed

    def test_significant_exceedance_fails(self):
        assert not verify_tail_bound(self.make_experiment(900, 1000, 0.1)).passed

    def test_invariants(self):
        with pytest.raises(InvariantViolation):
            TailExperiment(
                n=1, b=1.0, epsilon=0.1, trials=10, seed=0, exceed_count=5,
                empirical_freq=0.4, ci_upper=1.0, theoretical=0.5, rademacher_value=0.0,
            )

    @given(st.integers(0, 10**6), st.sampled_from([0.1, 0.25, 0.5]), st.sampled_from([2, 4]))
    def test_random_instances_respect_bound(self, seed, epsilon, n):
        inst = random_discrete_instance(seed, m=3, support_size=3)
        rn = expected_rademacher(inst.support_class, inst.dist, n)
        exp = simulate_tail(inst.support_class, inst.dist, n, epsilon, 2000, seed, rn.value)
        assert verify_tail_bound(exp).passed

    def test_hundred_instance_suite(self):
        rng = np.random.default_rng(99)
        for i in range(100):
            inst = random_discrete_instance(
                int(rng.integers(0, 2**32)),
                m=int(rng.integers(1, 7)),
                support_size=int(rng.integers(2, 4)),
            )
            n = int(rng.integers(1, 9))
            rn = expected_rademacher(inst.support_class, inst.dist, n)
            for epsilon in (0.1, 0.25, 0.5):
                exp = simulate_tail(
                    inst.support_class, inst.dist, n, epsilon, 2000, i, rn.value
                )
                assert verify_tail_bound(exp).passed
