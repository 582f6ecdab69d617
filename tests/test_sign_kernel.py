"""The batched exact sign kernel, its tree reducer, and the paths routed through it."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound.cli import canonical_report, run_experiment
from genbound.complexity import (
    _sign_averages,
    check_without_abs_le_abs,
    empirical_rademacher,
    expected_rademacher,
)
from genbound.core import (
    DiscreteDistribution,
    EvaluatedClass,
    ExactEnumerationLimit,
    _tree_sums,
    deterministic_sum,
    derive_seed,
    product_orbits,
    sign_block,
)
from genbound.entropy import _dedup, _distance_matrix
from genbound.instances import random_discrete_instance

from conftest import oracle_sign_average

SIGN_CAP = 20


@st.composite
def stacks(draw, n=st.integers(1, 12)):
    n = draw(n)
    k = draw(st.integers(1, 40))
    m = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (k, m, n))


def sign_average_reference(evals, absolute):
    """The per-class computation the kernel replaced: divide, abs, max, one tree sum."""
    n = evals.shape[1]
    corr = sign_block(n, 0, 1 << n) @ evals.T / n
    return deterministic_sum((np.abs(corr) if absolute else corr).max(axis=1)) / (1 << n)


def reference_sign_rows(n, start, stop):
    """Rows [start, stop) of the 2**n-by-n sign matrix, from a (rows, n) table of word bits."""
    words = np.arange(start, stop, dtype=np.uint64)
    bits = (words[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)
    return bits.astype(np.float64) * 2.0 - 1.0


def reference_sign_averages(stack):
    """The kernel before sign-flip halving: every one of the 2**n sign words, the
    classes' rows one after another, and the max and min over each class's rows
    along the middle axis."""
    K, m, n = stack.shape
    total = 1 << n
    rows = min(total, 1 << 14)
    low = rows.bit_length() - 1
    per = (1 << 14) // rows
    flat = np.ascontiguousarray(stack, dtype=np.float64).reshape(K * m, n)
    sums = np.empty((2, K, total // rows))
    signs = np.empty((n, rows))
    signs[:low] = reference_sign_rows(low, 0, rows).T
    for b in range(total // rows):
        if n > low:
            signs[low:] = reference_sign_rows(n - low, b, b + 1).T
        for k in range(0, K, per):
            block = flat[k * m : (k + per) * m]
            corr = (np.vstack([block, block]) @ signs)[:1] if len(block) == 1 else block @ signs
            corr = corr.reshape(-1, m, rows)
            absolute, hi = both = np.empty((2, corr.shape[0], rows))
            np.negative(corr.min(axis=1, out=absolute), out=absolute)
            np.maximum(absolute, corr.max(axis=1, out=hi), out=absolute)
            np.abs(absolute, out=absolute)
            both /= n
            sums[:, k : k + per, b] = _tree_sums(both)
    return _tree_sums(sums) / total


def assert_same_bits(stack):
    """The kernel equals the full-enumeration reference bit for bit, signbit included."""
    got, want = _sign_averages(stack, SIGN_CAP), reference_sign_averages(stack)
    assert got.shape == want.shape == (2, stack.shape[0])
    assert got.tobytes() == want.tobytes()


def classes_per_block(n):
    """Classes per block of the halved kernel: 2**14 over its sign rows per block."""
    return (1 << 14) // min(1 << (n - 1), 1 << 14)


VALUE_KINDS = ("uniform", "integers", "zero classes", "signed zeros and ties")


def kernel_values(rng, kind, shape):
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, shape)
    if kind == "integers":  # many tied correlations
        return rng.integers(-2, 3, shape).astype(np.float64)
    if kind == "zero classes":
        values = rng.uniform(-1.0, 1.0, shape)
        values[rng.random(shape[0]) < 0.5] = 0.0
        return values
    return rng.choice([0.0, -0.0, 0.5, -0.5, 1.0], shape)


@st.composite
def halving_stacks(draw):
    """Stacks with n from 1 to 18 and K on either side of the class-block edges."""
    n = draw(st.integers(1, 18))
    m = draw(st.integers(1, 6))
    edge = classes_per_block(n)
    # stay near a million correlations at the largest n
    most = max(3, (1 << 20) // (m << n))
    K = draw(st.sampled_from(sorted({1, 2, min(edge - 1, most) or 1, min(edge, most), min(edge + 1, most),
                                     min(2 * edge + 1, most)})))
    kind = draw(st.sampled_from(VALUE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return kernel_values(rng, kind, (K, m, n))


def assert_matches_oracle(evals, absolute, signed):
    assert absolute == pytest.approx(oracle_sign_average(evals, absolute=True), abs=1e-12)
    assert signed == pytest.approx(oracle_sign_average(evals, absolute=False), abs=1e-12)


class TestKernel:
    @given(stacks(), st.data())
    def test_stack_matches_single_calls_and_oracle(self, stack, data):
        absolute, signed = _sign_averages(stack, SIGN_CAP)
        assert absolute.shape == signed.shape == (stack.shape[0],)
        for k, evals in enumerate(stack):
            one_abs, one_signed = _sign_averages(evals[None], SIGN_CAP)
            assert (one_abs[0], one_signed[0]) == (absolute[k], signed[k])
        # the pure-python oracle is slow, so each example checks one class of its stack
        k = data.draw(st.integers(0, stack.shape[0] - 1))
        assert_matches_oracle(stack[k], absolute[k], signed[k])

    @pytest.mark.parametrize("n", [15, 16])
    def test_across_sign_blocks(self, n):
        # 2**15 and 2**16 sign rows span two and four blocks of 2**14
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (3, 2, n))
        absolute, signed = _sign_averages(stack, SIGN_CAP)
        for k, evals in enumerate(stack):
            one_abs, one_signed = _sign_averages(evals[None], SIGN_CAP)
            assert (one_abs[0], one_signed[0]) == (absolute[k], signed[k])
        assert_matches_oracle(stack[0], absolute[0], signed[0])

    @pytest.mark.parametrize("n", [3, 9, 15, 16])
    def test_bit_identical_to_per_class_reference(self, n):
        stack = np.random.default_rng(100 + n).uniform(-1.0, 1.0, (4, 3, n))
        absolute, signed = _sign_averages(stack, SIGN_CAP)
        for k, evals in enumerate(stack):
            assert absolute[k] == sign_average_reference(evals, absolute=True)
            assert signed[k] == sign_average_reference(evals, absolute=False)

    def test_block_sums_combine_as_one_tree(self):
        # two dominant columns among the high sign bits make the four block sums of
        # 2**16 rows differ in size, so any other order of adding them shows
        rng = np.random.default_rng(4)
        stack = rng.uniform(-1e-3, 1e-3, (16, 2, 16))
        stack[:, :, 14:] = rng.uniform(0.5, 1.0, (16, 2, 2))
        absolute, signed = _sign_averages(stack, SIGN_CAP)
        for k, evals in enumerate(stack):
            assert absolute[k] == sign_average_reference(evals, absolute=True)
            assert signed[k] == sign_average_reference(evals, absolute=False)

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_single_row_classes_do_not_depend_on_the_stack(self, n):
        stack = np.random.default_rng(n).uniform(-1.0, 1.0, (24, 1, n))
        absolute, signed = _sign_averages(stack, SIGN_CAP)
        for k, evals in enumerate(stack):
            one_abs, one_signed = _sign_averages(evals[None], SIGN_CAP)
            assert (one_abs[0], one_signed[0]) == (absolute[k], signed[k])

    def test_zero_class_gives_positive_zero(self):
        absolute, signed = _sign_averages(np.zeros((2, 3, 4)), SIGN_CAP)
        assert all(math.copysign(1.0, v) == 1.0 for v in absolute)
        assert list(absolute) == list(signed) == [0.0, 0.0]

    def test_cap(self):
        with pytest.raises(ExactEnumerationLimit):
            _sign_averages(np.zeros((2, 1, 6)), 5)
        cls = EvaluatedClass(np.zeros((1, 6)), 1.0)
        with pytest.raises(ExactEnumerationLimit):
            check_without_abs_le_abs(cls, sign_cap=5)
        inst = random_discrete_instance(1, m=2, support_size=2)
        with pytest.raises(ExactEnumerationLimit):
            expected_rademacher(inst.support_class, inst.dist, 6, sign_cap=5)

    def test_comparison_is_one_pass_of_both_variants(self):
        cls = EvaluatedClass(np.random.default_rng(3).uniform(-1.0, 1.0, (4, 9)), 1.0)
        comparison = check_without_abs_le_abs(cls)
        absolute, signed = _sign_averages(cls.evals[None], SIGN_CAP)
        assert (comparison.with_abs, comparison.without_abs) == (absolute[0], signed[0])
        assert comparison.with_abs == empirical_rademacher(cls).value


class TestSignFlipHalving:
    """The halved kernel against a copy of the full-enumeration kernel it replaced."""

    @given(halving_stacks())
    def test_equals_full_enumeration_bitwise(self, stack):
        assert_same_bits(stack)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_every_n_across_the_class_block_edge(self, n):
        K = classes_per_block(n) + 1
        rng = np.random.default_rng(300 + n)
        for kind in VALUE_KINDS:
            m = 1 if kind == "uniform" and n % 2 else 3
            assert_same_bits(kernel_values(rng, kind, (K, m, n)))

    @pytest.mark.parametrize("n", [3, 9, 13])
    def test_class_block_edges_at_small_n(self, n):
        # the halved kernel puts twice as many classes in a block as the reference
        edge = classes_per_block(n)
        rng = np.random.default_rng(n)
        for K in (edge - 1, edge, edge + 1, 2 * edge + 3):
            assert_same_bits(rng.uniform(-1.0, 1.0, (K, 2, n)))

    def test_all_zero_and_single_row_classes(self):
        for n in (1, 2, 5, 15, 16):
            assert_same_bits(np.zeros((3, 4, n)))
            assert_same_bits(-np.zeros((2, 1, n)))
            assert_same_bits(np.random.default_rng(n).uniform(-1.0, 1.0, (5, 1, n)))

    @given(st.integers(2, 4), st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_orbit_stacks(self, s, n, m, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.1, 1.0, s)
        reps, _ = product_orbits(probs / probs.sum(), n)
        table = rng.integers(-2, 3, (m, s)).astype(np.float64) if seed % 2 else rng.uniform(-1.0, 1.0, (m, s))
        assert_same_bits(table[:, reps].transpose(1, 0, 2))

    @pytest.mark.parametrize("n", [1, 2, 14, 15, 16, 17])
    def test_only_words_with_the_top_bit_clear_are_built(self, n, monkeypatch):
        import genbound.complexity as module

        built = []

        def counting(bits, start, stop):
            built.append(stop - start)
            return sign_block(bits, start, stop)

        monkeypatch.setattr(module, "sign_block", counting)
        _sign_averages(np.ones((1, 2, n)), SIGN_CAP)
        # the 2**(n-1) low words of block 0, then one row of high bits per further block
        rows = min(1 << (n - 1), 1 << 14)
        assert built == [rows] + [1] * ((1 << (n - 1)) // rows - 1)


class TestTreeSums:
    @given(
        st.integers(1, 4),
        st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=70),
        st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_deterministic_sum(self, rows, values, seed):
        arr = np.random.default_rng(seed).permuted(np.tile(values, (rows, 1)), axis=1)
        sums = _tree_sums(arr)
        assert sums.shape == (rows,)
        assert list(sums) == [deterministic_sum(row) for row in arr]

    @given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_aligned_power_of_two_chunks_combine_exactly(self, log_chunk, log_count, seed):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, 1 << (log_chunk + log_count))
        partial = _tree_sums(values.reshape(1 << log_count, 1 << log_chunk))
        assert deterministic_sum(partial) == deterministic_sum(values)

    def test_expectation_rows(self):
        rng = np.random.default_rng(7)
        probs = rng.uniform(0.1, 1.0, 5)
        dist = DiscreteDistribution(np.arange(5.0), probs / probs.sum())
        table = rng.uniform(-1.0, 1.0, (6, 5))
        rows = dist.expectation(table)
        assert list(rows) == [deterministic_sum(dist.probs * row) for row in table]
        assert dist.expectation(table[0]) == rows[0]
        assert isinstance(dist.expectation(table[0]), float)


def dedup_reference(dm):
    """The pairwise loop that selected representatives before vectorization."""
    reps = []
    for i in range(dm.shape[0]):
        if not any(dm[i, r] == 0.0 for r in reps):
            reps.append(i)
    return np.asarray(reps, dtype=np.intp)


class TestDedup:
    @given(
        st.integers(1, 12),
        st.integers(1, 25),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_with_planted_duplicates(self, distinct, rows, n, seed):
        rng = np.random.default_rng(seed)
        base = rng.uniform(-1.0, 1.0, (distinct, n))
        evals = base[rng.integers(0, distinct, rows)]
        dm = _distance_matrix(evals)
        assert list(_dedup(dm)) == list(dedup_reference(dm))

    def test_zero_distance_that_is_not_transitive(self):
        # d(0, 1) and d(1, 2) underflow to zero but d(0, 2) does not: row 2 is kept
        # because row 1, its only zero-distance neighbour, is not a representative
        dm = np.array([[0.0, 0.0, 1e-300], [0.0, 0.0, 0.0], [1e-300, 0.0, 0.0]])
        assert list(_dedup(dm)) == list(dedup_reference(dm)) == [0, 2]


class TestMonteCarloFallback:
    CONFIG = {
        "command": "tail",
        "instance": {"random": {"m": 3, "support_size": 4, "seed": 11}},
        "n": 10,  # 4**10 tuples, above the default product cap
        "epsilon": 0.4,
        "trials": 1000,
        "seed": 23,
        "rademacher_draws": 100,
    }

    def test_values_match_per_draw_oracle(self):
        row = run_experiment(dict(self.CONFIG))["results"][0]
        assert row["method"] == "monte_carlo"
        inst = random_discrete_instance(11, m=3, support_size=4)
        draws = self.CONFIG["rademacher_draws"]
        idx = inst.dist.draw_index_trials(derive_seed(23, "rn"), 0, draws, 10)
        values = [oracle_sign_average(inst.table[:, sample]) for sample in idx]
        mean = math.fsum(values) / draws
        variance = math.fsum((v - mean) ** 2 for v in values) / (draws - 1)
        assert row["rademacher_value"] == pytest.approx(mean, abs=1e-12)
        assert row["rademacher_std_error"] == pytest.approx(math.sqrt(variance / draws), abs=1e-12)

    def test_thread_count_does_not_change_report(self):
        one = run_experiment(dict(self.CONFIG), threads=1)
        two = run_experiment(dict(self.CONFIG), threads=2)
        assert canonical_report(one) == canonical_report(two)
