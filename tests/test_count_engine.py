"""The count-vector engine for discrete draws: guide-table indices, uniform
deviations from count vectors, and the tail simulation built on both."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genbound.concentration import simulate_tail
from genbound.core import (
    DiscreteDistribution,
    EvaluatedClass,
    draw_words,
    words_to_uniforms,
)
from genbound.deviation import _sample_deviations
from genbound.instances import random_discrete_instance

from conftest import oracle_uniform_deviation


def search_reference(dist, words):
    """The plain inverse-CDF search the guide table replaces."""
    u = words_to_uniforms(words)
    idx = np.searchsorted(np.cumsum(dist.probs), u, side="right")
    return np.minimum(idx, dist.size - 1).astype(np.intp)


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


class TestTailSimulation:
    def test_exceed_count_matches_oracle_recount(self):
        inst = random_discrete_instance(31, m=3, support_size=4)
        n, trials, seed = 6, 9000, 17  # two chunks of trials
        idx = inst.dist.draw_index_trials(seed, 0, trials, n)
        means = inst.dist.expectation(inst.table)
        ud = np.array([oracle_uniform_deviation(inst.table[:, row], means) for row in idx])
        # a threshold in the widest gap near the median keeps rounding away from it
        values = np.unique(ud)
        mid = values.size // 2
        gaps = np.diff(values[mid - 3 : mid + 3])
        j = mid - 3 + int(np.argmax(gaps))
        threshold = (values[j] + values[j + 1]) / 2.0
        expected = int(np.count_nonzero(ud >= threshold))
        assert 0 < expected < trials
        for threads in (1, 2):
            experiment = simulate_tail(
                inst.support_class, inst.dist, n, threshold, trials, seed, 0.0, threads=threads
            )
            assert experiment.exceed_count == expected
