"""Packed Rademacher signs (64 per Philox word) and the long-lived chunk pool."""

import sys
import threading

import numpy as np
import pytest

from genbound.complexity import _MC_CHUNK, _run_chunks, empirical_rademacher_mc
from genbound.core import EvaluatedClass, draw_signs, draw_words
from genbound.instances import random_evaluated_class


def bit_reference(seed, first, count, n):
    """Sign k of draw j from bit k % 64 of word k // 64, one bit at a time."""
    words = draw_words(seed, first, count, -(-n // 64))
    return np.array(
        [[1.0 if int(words[j, k // 64]) >> (k % 64) & 1 else -1.0 for k in range(n)]
         for j in range(count)]
    )


def as_int(row):
    return sum(1 << k for k, sign in enumerate(row) if sign > 0)


class TestDrawSigns:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 256, 257])
    def test_equals_bit_extraction(self, n):
        got = draw_signs(17, 5, 9, n)
        assert got.shape == (9, n) and got.dtype == np.float64
        np.testing.assert_array_equal(got, bit_reference(17, 5, 9, n))

    @pytest.mark.parametrize("n", [1, 70, 129])
    def test_chunks_equal_full_draw(self, n):
        full = draw_signs(3, 0, 100, n)
        cuts = [0, 1, 8, 40, 99, 100]
        parts = [draw_signs(3, a, b - a, n) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), full)
        assert draw_signs(3, 7, 0, n).shape == (0, n)

    def test_pinned_stream(self):
        # bit k of each integer is sign k of the draw (set means +1); a change
        # to these values changes every Monte Carlo Rademacher estimate
        rows = draw_signs(0, 0, 3, 70)
        assert [hex(as_int(row)) for row in rows] == [
            "0x3202f4ba6408e4d89b",
            "0x1d809bf322883987c3",
            "0x1240fa86f0f781945d",
        ]


class TestMonteCarloRademacher:
    def test_thread_invariance_at_n70(self):
        cls = random_evaluated_class(4, m=5, n=70)
        results = [empirical_rademacher_mc(cls, 20_000, 9, threads=t) for t in (1, 2, 3)]
        assert len({(r.value, r.std_error) for r in results}) == 1

    def test_reads_the_packed_stream(self):
        cls = EvaluatedClass(np.random.default_rng(1).uniform(-1, 1, (3, 70)), 1.0)
        draws = 3 * _MC_CHUNK // 2
        got = empirical_rademacher_mc(cls, draws, 12, threads=2)
        corr = draw_signs(12, 0, draws, 70) @ cls.evals.T / 70
        values = np.abs(corr).max(axis=1)
        assert got.value == pytest.approx(values.mean(), abs=1e-12)
        assert got.std_error == pytest.approx(values.std(ddof=1) / np.sqrt(draws), abs=1e-12)


class TestRunChunks:
    def test_calls_reuse_worker_threads(self):
        def fill(start, stop):
            return threading.current_thread()

        workers = [t for _ in range(5) for t in _run_chunks(fill, 4 * _MC_CHUNK, 2)]
        assert threading.main_thread() not in workers
        assert len(set(workers)) <= 2  # a pool per call would start at least 5

    def test_concurrent_callers_get_their_own_chunks(self):
        # more workers than cores, callers sharing one pool, frequent switches
        total = 6 * _MC_CHUNK + 5
        expected = [(s, min(s + _MC_CHUNK, total)) for s in range(0, total, _MC_CHUNK)]
        outcomes = {}

        def caller(key):
            outcomes[key] = [
                _run_chunks(lambda a, b: (a + key, b + key), total, 3) for _ in range(20)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(key,)) for key in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        for key in range(4):
            shifted = [(a + key, b + key) for a, b in expected]
            assert outcomes[key] == [shifted] * 20
