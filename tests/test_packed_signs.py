"""Packed Rademacher signs (64 per Philox word), their byte-table sums and the chunk pool."""

import math
import sys
import threading

import numpy as np
import pytest
from numpy.random import Philox

from genbound import complexity
from genbound.complexity import (
    _MC_CHUNK,
    _TABLE_VALUES,
    _run_chunks,
    _sign_sums,
    _sign_words,
    empirical_rademacher_mc,
)
from genbound.core import EvaluatedClass, draw_words
from genbound.instances import random_evaluated_class

from conftest import unpack_signs


def bit_reference(seed, first, count, n):
    """Sign k of draw j from bit k % 64 of word k // 64, one bit at a time."""
    words = draw_words(seed, first, count, -(-n // 64))
    return np.array(
        [[1.0 if int(words[j, k // 64]) >> (k % 64) & 1 else -1.0 for k in range(n)]
         for j in range(count)]
    )


def as_int(row):
    return sum(1 << k for k, sign in enumerate(row) if sign > 0)


class TestSignWords:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 256, 257])
    def test_equals_bit_extraction(self, n):
        words = _sign_words(17, 5, 9, n)
        assert words.shape == (9, -(-n // 64)) and words.dtype == np.uint64
        np.testing.assert_array_equal(unpack_signs(words, n), bit_reference(17, 5, 9, n))

    @pytest.mark.parametrize("n", [1, 70, 129])
    def test_chunks_equal_full_draw(self, n):
        full = _sign_words(3, 0, 100, n)
        cuts = [0, 1, 8, 40, 99, 100]
        parts = [_sign_words(3, a, b - a, n) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.concatenate(parts), full)
        assert _sign_words(3, 7, 0, n).shape == (0, -(-n // 64))

    def test_pinned_stream(self):
        # bit k of each integer is sign k of the draw (set means +1); at n = 70
        # draw j is words 2j and 2j + 1 of Philox(key=0), so draw 0 keeps its
        # 0.2.0 signs and draw 2 has those of 0.2.0's draw 1 (words 4 and 5).  A
        # change to these values changes every Monte Carlo Rademacher estimate
        rows = unpack_signs(_sign_words(0, 0, 3, 70), 70)
        assert [hex(as_int(row)) for row in rows] == [
            "0x3202f4ba6408e4d89b",
            "0x1c1c8667a55d902e79",
            "0x1d809bf322883987c3",
        ]
        words = Philox(key=0).random_raw(6)
        assert [as_int(row) for row in rows] == [
            int(words[2 * j]) | (int(words[2 * j + 1]) & 63) << 64 for j in range(3)
        ]


class TestSignSums:
    def test_byte_tables_match_fsum_on_the_unpacked_signs(self):
        rng = np.random.default_rng(5)
        for n in range(1, 131):
            m = 1 + n % 4
            evals = rng.uniform(-1.0, 1.0, (m, n))
            words = _sign_words(n, 11, 40, n)
            signs = unpack_signs(words, n)
            expected = [[math.fsum(signs[j] * evals[i]) for j in range(40)] for i in range(m)]
            np.testing.assert_allclose(_sign_sums(evals, words), expected, rtol=0, atol=1e-12)

    def test_sums_add_bytes_left_to_right(self):
        # 0.5 + 2**-53 rounds to 0.5, but (2**-53 + 2**-53) + 0.5 does not: the order shows
        evals = np.zeros((1, 24))
        evals[0, 0] = evals[0, 8] = 2.0**-53
        evals[0, 16] = 0.5
        words = np.array([[0xFFFFFF]], dtype=np.uint64)  # every sign +1
        assert _sign_sums(evals, words)[0, 0] == 0.5 + 2.0**-52

    @pytest.mark.parametrize("m, n", [(1, 3), (7, 64), (512, 9), (1000, 20), (8, 2000)])
    def test_table_blocks_hold_at_most_2_17_values(self, monkeypatch, m, n):
        built = []

        def spy(columns):
            tables = build(columns)
            built.append(tables.size)
            return tables

        build = complexity._byte_tables
        monkeypatch.setattr(complexity, "_byte_tables", spy)
        evals = np.random.default_rng(m).uniform(-1.0, 1.0, (m, n))
        words = _sign_words(1, 0, 50, n)
        got = _sign_sums(evals, words)
        assert _TABLE_VALUES == 1 << 17
        assert max(built) <= _TABLE_VALUES
        # a block is all byte positions of at most 512 rows, or as many positions as fit
        rows, width = min(m, 512), -(-n // 8)
        assert max(built) == 256 * rows * min(width, _TABLE_VALUES // (256 * rows))
        assert sum(built) == 256 * m * width
        np.testing.assert_allclose(got, (unpack_signs(words, n) @ evals.T).T, rtol=0, atol=1e-12 * n)


class TestMonteCarloRademacher:
    def test_thread_invariance_at_n70(self):
        cls = random_evaluated_class(4, m=5, n=70)
        results = [empirical_rademacher_mc(cls, 20_000, 9, threads=t) for t in (1, 2, 3)]
        assert len({(r.value, r.std_error) for r in results}) == 1

    def test_reads_the_packed_stream(self):
        cls = EvaluatedClass(np.random.default_rng(1).uniform(-1, 1, (3, 70)), 1.0)
        draws = 3 * _MC_CHUNK // 2
        got = empirical_rademacher_mc(cls, draws, 12, threads=2)
        corr = unpack_signs(draw_words(12, 0, draws, 2), 70) @ cls.evals.T / 70
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
