"""The count-vector engine for discrete draws: guide-table indices, uniform
deviations from count vectors, and the tail simulation built on both."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import chi2

from genbound import core
from genbound.complexity import _MC_CHUNK, _ORBIT_CELLS, _orbit_table_fits
from genbound.concentration import (
    clopper_pearson_lower,
    clopper_pearson_upper,
    simulate_tail,
)
from genbound.core import (
    DiscreteDistribution,
    EvaluatedClass,
    draw_words,
    product_orbits,
    words_to_uniforms,
)
from genbound.deviation import _sample_deviations
from genbound.instances import identity_instance, random_discrete_instance

from conftest import oracle_uniform_deviation


def search_reference(dist, words):
    """The plain inverse-CDF search the guide table replaces."""
    u = words_to_uniforms(words)
    idx = np.searchsorted(np.cumsum(dist.probs), u, side="right")
    return np.minimum(idx, dist.size - 1).astype(np.intp)


def guide_reference(dist):
    """The guide table built from each bucket's first and last word, searched per build."""
    buckets = np.arange(1 << 12, dtype=np.uint64) << np.uint64(52)
    low = search_reference(dist, buckets)
    high = search_reference(dist, buckets | np.uint64((1 << 52) - 1))
    return np.where(low == high, low, -1)


def planted_words(dist, rng):
    """Words whose uniforms sit on, and one or two grid steps around, each threshold."""
    steps = []
    for t in np.cumsum(dist.probs):
        q = int(np.floor(t * 2.0**53))  # uniforms are multiples of 2**-53
        steps += [q + d for d in (-1, 0, 1, 2)]
    q = np.clip(np.array(steps, dtype=np.int64), 0, 2**53 - 1).astype(np.uint64)
    low = rng.integers(0, 1 << 11, q.size, dtype=np.uint64)
    return (q << np.uint64(11)) | low


weights = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([0.125, 0.25, 0.5]), st.floats(0.01, 1.0)),
    min_size=1,
    max_size=8,
).filter(lambda w: sum(w) > 0.0)


class TestGuideTable:
    @given(weights, st.integers(0, 2**32))
    @example([0.25, 0.25, 0.5], 0)  # thresholds on bucket edges
    @example([0.5, 0.0, 0.5], 1)  # a zero atom on a bucket edge
    @example([0.0, 1.0, 0.0], 2)
    @example([1.0], 3)
    def test_indices_match_search_bit_for_bit(self, w, seed):
        probs = np.array(w) / sum(w)
        dist = DiscreteDistribution(np.arange(len(w), dtype=np.float64), probs)
        rng = np.random.default_rng(seed)
        words = np.concatenate(
            [planted_words(dist, rng), rng.integers(0, 2**64, 4096, dtype=np.uint64)]
        )
        got = dist._indices(words)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, search_reference(dist, words))

    @given(weights)
    @example([1.0])  # one point: every bucket maps to it
    @example([0.0, 1.0, 0.0])
    @example([0.5, 0.0, 0.0, 0.5])
    def test_guide_equals_one_built_from_its_own_bucket_words(self, w):
        probs = np.array(w) / sum(w)
        dist = DiscreteDistribution(np.arange(len(w), dtype=np.float64), probs)
        np.testing.assert_array_equal(dist._guide, guide_reference(dist))

    @pytest.mark.parametrize("support_size, n", [(3, 4), (4, 10), (2, 9)])
    def test_guide_of_an_orbit_law_equals_one_built_from_its_own_bucket_words(self, support_size, n):
        inst = random_discrete_instance(support_size + n, m=1, support_size=support_size)
        _, law = inst.dist.orbit_sampler(n)
        np.testing.assert_array_equal(law._guide, guide_reference(law))

    @given(weights, st.integers(0, 2**32), st.integers(0, 50), st.integers(1, 12))
    def test_draws_match_search_on_the_same_words(self, w, seed, first, n):
        probs = np.array(w) / sum(w)
        dist = DiscreteDistribution(np.arange(len(w), dtype=np.float64), probs)
        got = dist.draw_index_trials(seed, first, 37, n)
        assert got.shape == (37, n)
        np.testing.assert_array_equal(got, search_reference(dist, draw_words(seed, first, 37, n)))


def support_class(rng, m, s):
    table = rng.uniform(-1.0, 1.0, (m, s))
    probs = rng.uniform(0.1, 1.0, s)
    probs /= probs.sum()
    return EvaluatedClass(table, 1.0), table @ probs


class TestCountVectorDeviation:
    @given(
        st.integers(1, 5), st.integers(1, 6), st.integers(1, 12), st.integers(1, 30),
        st.integers(0, 2**32),
    )
    def test_matches_oracle_and_ignores_order_and_position(self, m, s, n, K, seed):
        rng = np.random.default_rng(seed)
        cls, means = support_class(rng, m, s)
        samples = rng.integers(0, s, (K, n))
        got = _sample_deviations(cls, means, samples)
        for k, sample in enumerate(samples):
            expected = oracle_uniform_deviation(cls.evals[:, sample], means)
            assert got[k] == pytest.approx(expected, abs=1e-12)
        shuffled = rng.permuted(samples, axis=1)
        np.testing.assert_array_equal(_sample_deviations(cls, means, shuffled), got)
        order = rng.permutation(K)
        np.testing.assert_array_equal(_sample_deviations(cls, means, samples[order]), got[order])
        np.testing.assert_array_equal(_sample_deviations(cls, means, samples[:1]), got[:1])


def threshold_in_a_wide_gap(ud):
    """A threshold in the widest gap between deviations near the median, away from rounding."""
    values = np.unique(ud)
    mid = values.size // 2
    gaps = np.diff(values[mid - 3 : mid + 3])
    j = mid - 3 + int(np.argmax(gaps))
    return (values[j] + values[j + 1]) / 2.0


class TestTailSimulation:
    def assert_recount(self, inst, n, trials, seed, ud):
        """simulate_tail at 1 and 2 threads counts the trials whose oracle deviation ``ud`` exceeds."""
        threshold = threshold_in_a_wide_gap(ud)
        expected = int(np.count_nonzero(ud >= threshold))
        assert 0 < expected < trials
        for threads in (1, 2):
            experiment = simulate_tail(
                inst.support_class, inst.dist, n, threshold, trials, seed, 0.0, threads=threads
            )
            assert experiment.exceed_count == expected

    def test_exceed_count_matches_oracle_recount(self):
        inst = random_discrete_instance(31, m=3, support_size=4)
        n, trials, seed = 6, 9000, 17  # two chunks of trials, 84 orbits of 6 indices
        assert _orbit_table_fits(4, n, trials)
        reps, weights = product_orbits(inst.dist.probs, n)
        # trial j's orbit is the inverse CDF of the normalized orbit weights at the one word it owns
        cumulative = np.cumsum(weights / weights.sum())
        u = words_to_uniforms(draw_words(seed, 0, trials, 1)[:, 0])
        orbit = np.minimum(np.searchsorted(cumulative, u, side="right"), len(reps) - 1)
        means = inst.dist.expectation(inst.table)
        orbit_ud = np.array([oracle_uniform_deviation(inst.table[:, row], means) for row in reps])
        self.assert_recount(inst, n, trials, seed, orbit_ud[orbit])

    def test_index_path_exceed_count_matches_oracle_recount(self):
        inst = random_discrete_instance(31, m=3, support_size=4)
        n, trials, seed = 14, 9000, 17  # 680 orbits of 14 indices: 9,520 cells, above the budget
        assert not _orbit_table_fits(4, n, trials)
        idx = inst.dist.draw_index_trials(seed, 0, trials, n)
        means = inst.dist.expectation(inst.table)
        ud = np.array([oracle_uniform_deviation(inst.table[:, row], means) for row in idx])
        self.assert_recount(inst, n, trials, seed, ud)

    @pytest.mark.parametrize("support_size, n", [(3, 4), (4, 10), (2, 7)])
    def test_orbit_draws_follow_the_orbit_weights(self, support_size, n):
        inst = random_discrete_instance(support_size * n, m=1, support_size=support_size)
        reps, orbits = inst.dist.orbit_sampler(n)
        expected_reps, weights = product_orbits(inst.dist.probs, n)
        np.testing.assert_array_equal(reps, expected_reps)
        draws = 10**6
        counts = np.bincount(orbits.draw_index_trials(5, 0, draws, 1).ravel(), minlength=len(reps))
        expected = draws * weights
        # the orbits expected fewer than 5 times share one cell
        rare = expected < 5.0
        observed = np.append(counts[~rare], counts[rare].sum())
        expected = np.append(expected[~rare], expected[rare].sum())
        if expected[-1] == 0.0:
            observed, expected = observed[:-1], expected[:-1]
        statistic = float(((observed - expected) ** 2 / expected).sum())
        assert chi2.sf(statistic, len(expected) - 1) > 1e-3, (statistic, len(expected) - 1)

    @pytest.mark.parametrize("support_size, n", [(3, 4), (4, 20)])
    def test_exceed_count_is_the_same_at_any_thread_count(self, support_size, n):
        inst = random_discrete_instance(9, m=3, support_size=support_size)
        trials = 2 * _MC_CHUNK + 5000  # 1,771 orbits of 20 indices are above the budget
        assert _orbit_table_fits(support_size, n, trials) == (n == 4)
        counts = {
            simulate_tail(inst.support_class, inst.dist, n, 0.1, trials, 3, 0.1, threads=threads).exceed_count
            for threads in (1, 2, 8)
        }
        assert len(counts) == 1

    def test_budget_edges(self, monkeypatch):
        # C(n + 1, n) * n = 33 * 32 = 1,056 index cells on two support points
        assert _orbit_table_fits(2, 32, 1056) and not _orbit_table_fits(2, 32, 1055)
        # one support point: one orbit of n cells, at most 2**14 at any trial count
        assert _orbit_table_fits(1, _ORBIT_CELLS, 10**6) and not _orbit_table_fits(1, _ORBIT_CELLS + 1, 10**6)

        def refuse(*args):
            raise AssertionError("a binomial was formed")

        monkeypatch.setattr(math, "comb", refuse)
        assert not _orbit_table_fits(1 << 24, 2, 10**6)  # s * n alone is above the budget
        monkeypatch.undo()

        tables = []
        monkeypatch.setattr(core, "product_orbits", lambda *args: tables.append(args) or product_orbits(*args))
        for trials, orbit_path in ((1056, True), (1055, False)):
            # a fresh measure each time: its orbit memo is empty
            inst = random_discrete_instance(2, m=2, support_size=2)
            tables.clear()
            simulate_tail(inst.support_class, inst.dist, 32, 0.1, trials, 1, 0.0)
            assert len(tables) == orbit_path

    def test_orbit_weights_of_a_measure_at_its_tolerance_are_normalized(self):
        # the weights sum to (1 + 5e-13)**127, outside a measure's tolerance unless normalized
        dist = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5 + 5e-13])
        inst = identity_instance(dist)
        assert _orbit_table_fits(2, 127, _ORBIT_CELLS)
        experiment = simulate_tail(inst.support_class, dist, 127, 0.1, _ORBIT_CELLS, 4, 0.0)
        assert 0 < experiment.exceed_count < _ORBIT_CELLS

    def test_interval_covers_the_exact_tail_probability(self):
        confidence = 0.9999  # each one-sided bound; 48 cases miss with probability about 1%
        misses = []
        for case in range(16):
            rng = np.random.default_rng(case)
            s, n = int(rng.integers(2, 5)), int(rng.integers(2, 9))
            inst = random_discrete_instance(case, m=int(rng.integers(1, 5)), support_size=s)
            reps, weights = product_orbits(inst.dist.probs, n)
            means = inst.dist.expectation(inst.table)
            ud = np.array([oracle_uniform_deviation(inst.table[:, row], means) for row in reps])
            values = np.unique(ud)
            for q in (0.25, 0.5, 0.75):  # thresholds between distinct deviations across the range
                j = min(int(q * (values.size - 1)), values.size - 2)
                threshold = (values[j] + values[j + 1]) / 2.0
                exact = math.fsum(weights[ud >= threshold])
                trials = 20_000
                exceed = simulate_tail(inst.support_class, inst.dist, n, threshold, trials, case, 0.0).exceed_count
                lower = clopper_pearson_lower(exceed, trials, confidence)
                upper = clopper_pearson_upper(exceed, trials, confidence)
                if not lower <= exact <= upper:
                    misses.append((case, q, lower, exact, upper))
        assert not misses
