import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.random import Philox

from genbound import complexity, core
from genbound.core import (
    DiscreteDistribution,
    DimensionMismatch,
    DrawBudgetExceeded,
    EvaluatedClass,
    ExactEnumerationLimit,
    InvariantViolation,
    deterministic_sum,
    draw_words,
    words_to_signs,
    words_to_uniforms,
)

from conftest import SignAssignment, enumerate_product, enumerate_signs


class TestEnumerateSigns:
    def test_base_case(self):
        vectors = {tuple(a.vector()) for a in enumerate_signs(1)}
        assert vectors == {(1,), (-1,)}

    def test_cardinality_and_distinctness(self):
        seen = set()
        for assignment in enumerate_signs(3):
            seen.add(tuple(assignment.vector()))
        assert len(seen) == 8

    def test_ascending_bit_word_order(self):
        words = [a.bits for a in enumerate_signs(4)]
        assert words == sorted(words)

    def test_cap_names_limit(self):
        with pytest.raises(ExactEnumerationLimit, match="20"):
            list(enumerate_signs(21, cap=20))

    def test_entries_are_pm_one(self):
        for assignment in enumerate_signs(5):
            assert set(np.unique(assignment.vector())) <= {-1, 1}

    def test_sign_k_is_plus_where_bit_k_is_set(self):
        # the word convention of the exact kernel and of oracle_exact_sign_averages
        for word, assignment in enumerate(enumerate_signs(3)):
            assert assignment.bits == word
            assert list(assignment.vector()) == [1 if word >> k & 1 else -1 for k in range(3)]


class TestEnumerateProduct:
    def test_uniform_product(self):
        dist = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
        items = list(enumerate_product(dist, 2))
        assert len(items) == 4
        assert all(w == 0.25 for _idx, w in items)

    def test_identity_case(self):
        dist = DiscreteDistribution([3.0, 5.0], [0.3, 0.7])
        items = list(enumerate_product(dist, 1))
        assert [idx for idx, _w in items] == [(0,), (1,)]
        assert [w for _idx, w in items] == pytest.approx([0.3, 0.7])

    def test_weight_of_heavy_pair(self):
        dist = DiscreteDistribution([0.0, 1.0], [0.3, 0.7])
        weights = dict(enumerate_product(dist, 2))
        assert weights[(1, 1)] == pytest.approx(0.49, abs=1e-15)

    def test_cap(self):
        dist = DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        with pytest.raises(ExactEnumerationLimit, match="8"):
            list(enumerate_product(dist, 2, cap=8))

    @given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 10_000))
    def test_weights_sum_to_one(self, size, n, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.05, 1.0, size)
        probs /= probs.sum()
        dist = DiscreteDistribution(np.arange(size, dtype=float), probs)
        total = math.fsum(w for _idx, w in enumerate_product(dist, n))
        assert abs(total - 1.0) <= 1e-10


class TestDeterministicSum:
    def test_simple(self):
        assert deterministic_sum([1.0, 2.0, 3.0]) == 6.0

    def test_empty_convention(self):
        assert deterministic_sum([]) == 0.0

    def test_against_compensated_oracle(self):
        values = np.full(10**6, 0.1)
        exact = math.fsum(values)
        assert abs(deterministic_sum(values) - exact) / exact <= 1e-9

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200), st.integers(1, 7))
    def test_chunk_count_insensitive(self, values, pieces):
        arr = np.asarray(values)
        cuts = np.linspace(0, arr.size, pieces + 1).astype(int)
        chunks = [arr[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        rejoined = np.concatenate([c for c in chunks if c.size]) if arr.size else arr
        assert deterministic_sum(rejoined) == deterministic_sum(arr)


class TestDomainTypes:
    def test_support_requires_points(self):
        with pytest.raises(InvariantViolation):
            DiscreteDistribution([], [])

    def test_support_rejects_ragged(self):
        with pytest.raises(DimensionMismatch):
            DiscreteDistribution([[1.0, 2.0], [3.0]], [0.5, 0.5])

    def test_distribution_validates_sum(self):
        with pytest.raises(InvariantViolation):
            DiscreteDistribution([0.0, 1.0], [0.6, 0.6])

    def test_distribution_rejects_negative(self):
        with pytest.raises(InvariantViolation):
            DiscreteDistribution([0.0, 1.0], [1.5, -0.5])

    def test_distribution_expectation(self):
        dist = DiscreteDistribution([0.0, 1.0], [0.25, 0.75])
        assert dist.expectation(np.array([0.0, 1.0])) == pytest.approx(0.75)
        rows = dist.expectation(np.array([[0.0, 1.0], [2.0, 2.0]]))
        assert rows == pytest.approx([0.75, 2.0])

    def test_sign_assignment_range(self):
        with pytest.raises(InvariantViolation):
            SignAssignment(8, 3)

    def test_evaluated_class_envelope(self):
        with pytest.raises(InvariantViolation):
            EvaluatedClass([[2.0]], 1.0)

    def test_evaluated_class_unchecked_escape(self):
        cls = EvaluatedClass([[2.0]], 1.0, validate=False)
        assert cls.envelope_b == 1.0

    def test_evaluated_class_takes_validate_by_keyword_only(self):
        # a third positional argument, once the population means, no longer binds to validate
        with pytest.raises(TypeError):
            EvaluatedClass([[0.5]], 1.0, [0.1])

    def test_arrays_immutable(self):
        cls = EvaluatedClass([[0.5, -0.5]], 1.0)
        with pytest.raises(ValueError):
            cls.evals[0, 0] = 0.0


class TestRandomness:
    def test_draw_words_chunking_matches_full(self):
        full = draw_words(7, 0, 10, 5)
        parts = np.vstack([draw_words(7, 0, 3, 5), draw_words(7, 3, 7, 5)])
        assert np.array_equal(full, parts)

    def test_uniform_range(self):
        u = words_to_uniforms(draw_words(3, 0, 100, 4).ravel())
        assert np.all((0.0 <= u) & (u < 1.0))

    def test_signs_are_pm_one(self):
        s = words_to_signs(draw_words(3, 0, 100, 4).ravel())
        assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_seed_changes_stream(self):
        assert not np.array_equal(draw_words(1, 0, 4, 4), draw_words(2, 0, 4, 4))

    def test_draw_budget_counts_values_before_drawing(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_DRAW_ELEMENTS", 60)
        assert draw_words(1, 0, 12, 5).shape == (12, 5)
        assert complexity._sign_words(1, 0, 1, 60).shape == (1, 1)
        dist = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])

        def refuse(*args, **kwargs):
            raise AssertionError("words were drawn")

        monkeypatch.setattr(core, "_philox", refuse)
        over = (
            lambda: draw_words(1, 0, 13, 5),
            lambda: complexity._sign_words(1, 0, 1, 61),  # 61 signs, though they fit in one word
            lambda: dist.draw_index_trials(1, 0, 7, 9),
        )
        for draw in over:
            with pytest.raises(DrawBudgetExceeded):
                draw()

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(0, 12), st.integers(1, 13))
    @example(0, 0, 5, 5)
    @example(2**64 - 1, 2**40, 3, 13)
    @example(7, 3, 5, 1)  # starts at word 3 of block 0
    @example(7, 5, 4, 3)  # starts at word 3 of block 3
    def test_draw_words_equal_a_fresh_philox(self, seed, first, count, words_per_draw):
        # draw j is words [j * w, (j + 1) * w) of the stream: word i is word i % 4 of block i // 4
        block, skip = divmod(first * words_per_draw, 4)
        fresh = Philox(key=seed, counter=[block, 0, 0, 0]).random_raw(skip + count * words_per_draw)
        expected = fresh[skip:].reshape(count, words_per_draw)
        words = draw_words(seed, first, count, words_per_draw)
        assert words.dtype == np.uint64 and np.array_equal(words, expected)

    @pytest.mark.parametrize("words_per_draw", [1, 2, 3, 4, 5, 9, 10])
    def test_draw_j_is_window_j_of_the_stream_under_any_chunking(self, words_per_draw):
        w, total = words_per_draw, 23
        stream = Philox(key=2026).random_raw(total * w).reshape(total, w)
        for cuts in ([0, 23], [0, 1, 23], [0, 3, 4, 5, 11, 22, 23], list(range(24))):
            parts = [draw_words(2026, a, b - a, w) for a, b in zip(cuts, cuts[1:])]
            np.testing.assert_array_equal(np.concatenate(parts), stream)

    def test_threads_drawing_interleaved_seeds_get_the_serial_words(self):
        calls = [(seed, first, 3, 5) for first in range(0, 120, 3) for seed in (0, 2**64 - 1, 77)]
        serial = [draw_words(*call) for call in calls]
        threads, rounds = 4, 20  # more threads than cores, each starting at another call
        mismatches = []

        def work(offset):
            for _ in range(rounds):
                for i in range(len(calls)):
                    j = (i + offset) % len(calls)
                    if not np.array_equal(draw_words(*calls[j]), serial[j]):
                        mismatches.append(calls[j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t * 7,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert mismatches == []

    def test_index_trials_chunking(self):
        dist = DiscreteDistribution([0.0, 1.0, 2.0], [0.1, 0.4, 0.5])
        full = dist.draw_index_trials(13, 0, 10, 4)
        parts = np.vstack(
            [dist.draw_index_trials(13, 0, 4, 4), dist.draw_index_trials(13, 4, 6, 4)]
        )
        assert np.array_equal(full, parts)
