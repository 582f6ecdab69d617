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
