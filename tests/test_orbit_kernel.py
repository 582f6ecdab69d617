"""The orbit-class kernel: exact sign averages summed over binomial count terms,
and the orbit tables a measure builds once per n."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound import complexity, core
from genbound.complexity import (
    _orbit_counts,
    _orbit_sign_averages,
    _sign_averages,
    expected_rademacher,
    expected_rademacher_mc,
)
from genbound.concentration import simulate_tail
from genbound.core import DiscreteDistribution, product_orbits
from genbound.deviation import audit_bounded_difference, verify_expectation_bound
from genbound.instances import random_discrete_instance

from conftest import oracle_sign_average


@st.composite
def orbit_classes(draw):
    """A (m, s) table at a random scale and up to 8 count vectors of one n, some with zero counts."""
    s, n, m = draw(st.integers(1, 6)), draw(st.integers(1, 14)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 5.0)
    table = rng.uniform(-scale, scale, (m, s))
    probs = rng.dirichlet(np.full(s, 0.3))  # small concentrations leave points out
    counts = rng.multinomial(n, probs, size=int(rng.integers(1, 9)))
    return table, counts


def representatives(counts):
    """The sorted (K, n) representative of each count vector."""
    return np.stack([np.repeat(np.arange(len(c)), c) for c in counts])


class TestOrbitSignAverages:
    @given(orbit_classes())
    def test_matches_the_row_kernel_and_the_fsum_oracle(self, case):
        table, counts = case
        got = _orbit_sign_averages(table, counts)
        reps = representatives(counts)
        rows = _sign_averages(table[:, reps].transpose(1, 0, 2), 20)[0]
        np.testing.assert_allclose(got, rows, rtol=1e-12, atol=0.0)
        if reps.shape[1] <= 12:  # the oracle enumerates all 2**n sign vectors in Python
            oracle = oracle_sign_average(table[:, reps[0]])
            assert got[0] == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @given(orbit_classes(), orbit_classes(), st.integers(0, 2**32 - 1))
    def test_an_orbit_keeps_its_bits_whatever_shares_its_call(self, case, other, seed):
        table, counts = case
        got = _orbit_sign_averages(table, counts)
        alone = np.concatenate([_orbit_sign_averages(table, c[None]) for c in counts])
        assert got.tobytes() == alone.tobytes()
        # among orbits of other sizes, in another order, and past a block edge
        s = table.shape[1]
        extra = np.zeros((len(other[1]), s), dtype=np.intp)
        width = min(s, other[1].shape[1])
        extra[:, :width] = other[1][:, :width]
        extra = extra[extra.sum(axis=1) > 0]
        mixed = np.concatenate([extra, counts, counts[::-1]])
        order = np.random.default_rng(seed).permutation(len(mixed))
        shuffled = _orbit_sign_averages(table, mixed[order])
        back = np.empty_like(shuffled)
        back[order] = shuffled
        assert back[len(extra) : len(extra) + len(counts)].tobytes() == got.tobytes()
        assert back[len(extra) + len(counts) :].tobytes() == got[::-1].tobytes()

    @given(orbit_classes())
    def test_every_form_of_the_counts_gives_the_same_bits(self, case):
        table, counts = case
        want = _orbit_sign_averages(table, counts).tobytes()
        reps = representatives(counts)
        runs, points = _orbit_counts(reps, reps.shape[1] + 1)  # s > n: counted at each run's first cell
        np.testing.assert_array_equal(points, reps)
        assert _orbit_sign_averages(table, runs, points).tobytes() == want
        # each row's distinct points packed to the left, padded with count 0 at point 0
        packed = np.zeros((2, len(counts), table.shape[1]), dtype=np.intp)
        for k, rep in enumerate(reps):
            distinct, how_often = np.unique(rep, return_counts=True)
            packed[:, k, : len(distinct)] = how_often, distinct
        assert _orbit_sign_averages(table, packed[0], packed[1]).tobytes() == want
        if reps.shape[1] >= table.shape[1]:  # s <= n: the count vectors themselves
            dense, none = _orbit_counts(reps, table.shape[1])
            assert none is None and np.array_equal(dense, counts)

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_blocks_of_orbits_give_the_same_bits(self, budget, monkeypatch):
        rng = np.random.default_rng(budget)
        table = rng.uniform(-1.0, 1.0, (3, 4))
        reps, _ = product_orbits(np.full(4, 0.25), 7)
        counts, points = _orbit_counts(reps, 4)
        whole = _orbit_sign_averages(table, counts, points)
        monkeypatch.setattr(complexity, "_ORBIT_VALUES", budget)
        assert _orbit_sign_averages(table, counts, points).tobytes() == whole.tobytes()

    def test_closed_forms(self):
        # n copies of one point x: E|x * (2 Bin(n, 1/2) - n)| / n
        for n, mean_abs in ((1, 1.0), (2, 0.5), (3, 0.5), (4, 0.375)):
            assert _orbit_sign_averages(np.array([[2.0]]), np.array([[n]]))[0] == 2.0 * mean_abs
        # two distinct points of values 1 and 1: |s1 + s2| / 2 averages to 1/2
        assert _orbit_sign_averages(np.array([[1.0, 1.0]]), np.array([[1, 1]]))[0] == 0.5
        # the zero class is +0.0
        assert _orbit_sign_averages(np.zeros((2, 3)), np.array([[2, 0, 1]])).tobytes() == np.zeros(1).tobytes()

    @pytest.mark.parametrize(
        "support_size, n, kernel",
        # C(n + s - 1, n) * 2**n sign rows against 10 * C(n + 2s - 1, n) + 2**13: 372,736 against 70,072,
        # 292,864 against 202,672; then 1,792 against 12,812, 2,016 against 21,842 and 5,120 against 10,392
        [(3, 12, "_orbit_sign_averages"), (4, 10, "_orbit_sign_averages"), (3, 6, "_sign_averages"),
         (6, 4, "_sign_averages"), (2, 9, "_sign_averages")],
    )
    def test_every_orbit_path_takes_the_kernel_its_shape_picks(self, monkeypatch, support_size, n, kernel):
        other = {"_orbit_sign_averages": "_sign_averages", "_sign_averages": "_orbit_sign_averages"}[kernel]
        calls = []
        monkeypatch.setattr(complexity, kernel, lambda *a, _f=getattr(complexity, kernel): calls.append(1) or _f(*a))
        monkeypatch.setattr(complexity, other, lambda *a: pytest.fail(f"{other} ran"))
        inst = random_discrete_instance(3, m=3, support_size=support_size)
        expected_rademacher(inst.support_class, inst.dist, n, product_cap=10**7)
        verify_expectation_bound(inst.support_class, inst.dist, n, product_cap=10**7)
        # within the orbit budget; at 100 draws, above it for s = 4 and s = 6
        expected_rademacher_mc(inst.support_class, inst.dist, n, 2000, 1)
        expected_rademacher_mc(inst.support_class, inst.dist, n, 100, 1)
        assert len(calls) == 4

    @pytest.mark.parametrize("support_size, n, by_counts", [(2, 4, False), (2, 9, False), (2, 12, True), (3, 6, False), (4, 10, True)])
    def test_both_kernels_agree_where_the_choice_flips(self, support_size, n, by_counts):
        inst = random_discrete_instance(5, m=4, support_size=support_size)
        reps, _ = product_orbits(inst.dist.probs, n)
        rows = _sign_averages(inst.table[:, reps].transpose(1, 0, 2), n)[0]
        counts = _orbit_sign_averages(inst.table, *_orbit_counts(reps, support_size))
        np.testing.assert_allclose(counts, rows, rtol=1e-12, atol=0.0)
        got = complexity._orbit_averages(inst.table, reps)
        assert got.tobytes() == (counts if by_counts else rows).tobytes()


class TestOrbitMemo:
    def counting(self, monkeypatch):
        built = []
        monkeypatch.setattr(core, "product_orbits", lambda probs, n: built.append(n) or product_orbits(probs, n))
        return built

    def test_each_n_is_built_once_per_measure(self, monkeypatch):
        built = self.counting(monkeypatch)
        inst = random_discrete_instance(6, m=2, support_size=3)
        cls, dist = inst.support_class, inst.dist
        verify_expectation_bound(cls, dist, 4)
        audit_bounded_difference(cls, dist, 4)
        expected_rademacher(cls, dist, 4)
        simulate_tail(cls, dist, 4, 0.3, 2000, 1, 0.1)
        assert built == [4]
        # the Monte Carlo R_n and the tail simulation above the product cap share theirs too
        rn = expected_rademacher_mc(cls, dist, 9, 400, 2)
        simulate_tail(cls, dist, 9, 0.3, 2000, 1, rn.value)
        assert built == [4, 9]
        # a new measure with the same probabilities builds its own
        DiscreteDistribution(dist.support, dist.probs).orbits(4)
        assert built == [4, 9, 4]

    def test_memoized_tables_are_read_only(self):
        dist = DiscreteDistribution([0.0, 1.0], [0.25, 0.75])
        reps, weights = dist.orbits(3)
        sampled_reps, law = dist.orbit_sampler(3)
        assert sampled_reps is reps and dist.orbits(3)[0] is reps
        for array in (reps, weights):
            with pytest.raises(ValueError):
                array[0] = 0
        np.testing.assert_array_equal(law.probs, weights / core.deterministic_sum(weights))
