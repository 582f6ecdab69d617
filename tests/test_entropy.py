import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genbound import complexity, entropy
from genbound.complexity import empirical_rademacher_without_abs
from genbound.core import (
    DegenerateClass,
    EvaluatedClass,
    ExactEnumerationLimit,
    GenboundError,
    InvalidRadius,
)
from genbound.entropy import (
    DEFAULT_COVER_CAP,
    CoverMethod,
    covering_number_exact,
    covering_number_greedy,
    default_radii,
    dudley_bound,
    largest_norm,
    verify_dudley,
    _CoverProfile,
    _breakpoints,
    _cover_profile,
    _riemann,
    _distance_matrix,
    _distinct,
)
from genbound.instances import random_evaluated_class

from conftest import oracle_cover, oracle_distance_matrix


def reference_cover_positions(sub, epsilon):
    """The former exact search: sizes in increasing order, index tuples in
    lexicographic order, the first full cover wins."""
    r = sub.shape[0]
    within = sub <= epsilon
    masks = [int(sum(1 << j for j in np.flatnonzero(within[c]))) for c in range(r)]
    full = (1 << r) - 1
    for size in range(1, r + 1):
        for combo in itertools.combinations(range(r), size):
            covered = 0
            for c in combo:
                covered |= masks[c]
            if covered == full:
                return combo
    raise AssertionError("a set always covers itself")


def reference_profile(cls):
    """The former exact profile: one search per distinct distance."""
    reps, sub = _distinct(cls)
    thresholds = np.unique(sub)
    sizes = np.empty(thresholds.size, dtype=np.int64)
    for j, value in enumerate(thresholds):
        sizes[j] = reps.size if value <= 0.0 else len(reference_cover_positions(sub, value))
    return thresholds, sizes


def tied_class(seed, distinct, rows, n):
    """Integer-valued rows (distance ties) drawn with repetition (duplicate rows)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, (distinct, n)).astype(np.float64)
    return EvaluatedClass(base[rng.integers(0, distinct, rows)], 2.0)


def line_class():
    # three constant rows at heights 0, 1, 2: pairwise distances 1, 1, 2
    return EvaluatedClass([[0.0], [1.0], [2.0]], 2.0)


def row_distance(a, b) -> float:
    """The empirical distance of two rows, read off their distance matrix."""
    return _distance_matrix(np.array([a, b], dtype=np.float64))[0, 1]


def triangle_holds(evals) -> bool:
    """dist(f_i, f_k) <= dist(f_i, f_j) + dist(f_j, f_k) over all row triples (i, j, k)."""
    dm = _distance_matrix(evals)
    return bool((dm[:, None, :] <= dm[:, :, None] + dm[None, :, :] + 1e-12).all())


class TestPseudometric:
    def test_zero_row(self):
        assert row_distance([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 0.0

    def test_three_four(self):
        assert row_distance([3.0, 4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5), abs=1e-15)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8), st.floats(-3, 3))
    def test_homogeneity(self, row, c):
        zero = [0.0] * len(row)
        scaled = [c * v for v in row]
        assert row_distance(scaled, zero) == pytest.approx(abs(c) * row_distance(row, zero), abs=1e-9)

    def test_identical_rows(self):
        assert row_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_distance(self):
        assert row_distance([0.0, 0.0], [1.0, 1.0]) == 1.0

    @given(st.integers(0, 10**6))
    def test_triangle_inequality(self, seed):
        assert triangle_holds(np.random.default_rng(seed).uniform(-1, 1, (3, 6)))

    def test_triangle_inequality_bulk(self):
        assert triangle_holds(np.random.default_rng(424242).uniform(-1, 1, (100, 5)))

    def test_distance_matrix_matches_oracle(self):
        rng = np.random.default_rng(8)
        evals = rng.uniform(-1, 1, (5, 4))
        assert np.allclose(_distance_matrix(evals), oracle_distance_matrix(evals), atol=1e-12)

    # several triangle blocks, each lane count of the column planes up to 128, and numpy's own
    # reduction above
    @given(st.integers(1, 200), st.integers(1, 300), st.integers(0, 10**6))
    @example(200, 300, 0)
    @example(130, 129, 1)
    @example(57, 8, 2)
    @example(3, 7, 3)
    def test_distance_matrix_equals_mean_form_bitwise(self, rows, n, seed):
        evals = np.random.default_rng(seed).uniform(-1, 1, (rows, n))
        reference = np.empty((rows, rows))
        for start in range(0, rows, 16):  # the whole difference array, 16 rows at a time
            diff = evals[start : start + 16, None, :] - evals[None, :, :]
            reference[start : start + 16] = np.sqrt(np.mean(diff * diff, axis=2))
        np.testing.assert_array_equal(_distance_matrix(evals), reference)

    @given(st.integers(1, 200), st.integers(1, 40), st.integers(0, 10**6))
    def test_distance_matrix_is_symmetric_with_a_positive_zero_diagonal(self, rows, n, seed):
        dm = _distance_matrix(np.random.default_rng(seed).normal(size=(rows, n)))
        assert dm.tobytes() == np.ascontiguousarray(dm.T).tobytes()
        assert dm.diagonal().tobytes() == np.zeros(rows).tobytes()  # +0.0, not -0.0

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (1000, 8), (64, 200), (300, 33)])
    def test_row_blocks_give_the_bits_of_the_whole_difference_array(self, monkeypatch, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        evals = rng.normal(size=shape)
        diff = evals[:, None, :] - evals[None, :, :]
        np.multiply(diff, diff, out=diff)
        whole = np.add.reduce(diff, axis=2)
        whole /= shape[1]
        np.sqrt(whole, out=whole)
        m, n = shape
        # blocks of 1, 2, 5 and all rows
        for rows in (1, 2, 5, m):
            monkeypatch.setattr(entropy, "_DIFFERENCE_BLOCK", rows * m * n)
            assert _distance_matrix(evals).tobytes() == whole.tobytes()

    def test_distinct_rows_peak_near_their_distance_matrix(self):
        # 3,000 rows: a 72 MB matrix, its upper triangle filled in 1 MB blocks of squared
        # differences and mirrored, not copied
        cls = random_evaluated_class(1, m=3000, n=8)
        tracemalloc.start()
        try:
            reps, sub = _distinct(cls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reps.size == 3000 and sub.shape == (3000, 3000)
        assert peak < 200 * 2**20, peak

    def test_refuses_a_matrix_above_the_budget(self, monkeypatch):
        monkeypatch.setattr(entropy, "MAX_DRAW_ELEMENTS", 99)
        with pytest.raises(GenboundError) as raised:
            _distance_matrix(np.zeros((10, 3)))
        assert str(raised.value) == "the distance matrix of 10 rows holds 10^2 = 100 values, above the budget of 99"
        assert _distance_matrix(np.zeros((9, 3))).shape == (9, 9)


class TestCoveringExact:
    def test_singleton(self):
        cls = EvaluatedClass([[0.3, 0.4]], 1.0)
        assert covering_number_exact(cls, 0.1).size == 1

    def test_line_small_radius(self):
        assert covering_number_exact(line_class(), 0.5).size == 3

    def test_line_radius_one_center_is_middle(self):
        result = covering_number_exact(line_class(), 1.0)
        assert result.size == 1
        assert result.center_indices == (1,)

    def test_closed_ball_at_exact_radius(self):
        cls = EvaluatedClass([[0.0, 0.0], [1.0, 1.0]], 1.0)
        assert covering_number_exact(cls, 1.0).size == 1

    def test_duplicates_do_not_inflate(self):
        cls = EvaluatedClass([[0.0], [0.0], [1.0]], 1.0)
        assert covering_number_exact(cls, 0.5).size == 2

    def test_cap(self):
        cls = random_evaluated_class(0, m=6, n=3)
        with pytest.raises(ExactEnumerationLimit):
            covering_number_exact(cls, 0.1, cap=4)

    def test_invalid_radius(self):
        with pytest.raises(InvalidRadius):
            covering_number_exact(line_class(), 0.0)

    @given(st.integers(0, 10**6), st.integers(2, 7), st.floats(0.05, 2.0))
    def test_matches_all_subsets_oracle(self, seed, m, eps):
        cls = random_evaluated_class(seed, m=m, n=4)
        result = covering_number_exact(cls, eps)
        size, centers = oracle_cover(_distance_matrix(cls.evals), eps)
        assert result.size == size
        assert result.center_indices == centers

    @settings(deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 10), st.integers(0, 4), st.integers(1, 4))
    def test_profile_and_centers_match_oracle_at_every_distance(self, seed, distinct, extra, n):
        cls = tied_class(seed, distinct, min(distinct + extra, 10), n)
        dm = _distance_matrix(cls.evals)
        profile = _cover_profile(cls, CoverMethod.EXACT_MINIMAL, DEFAULT_COVER_CAP)
        np.testing.assert_array_equal(profile.thresholds, np.unique(_distinct(cls)[1]))
        for u, size in zip(profile.thresholds, profile.sizes):
            expected_size, centers = oracle_cover(dm, u)
            assert size == expected_size
            if u > 0.0:
                result = covering_number_exact(cls, float(u))
                assert (result.size, result.center_indices) == (expected_size, centers)

    def test_profile_equals_per_threshold_search_bitwise(self):
        for r in range(1, 13):
            for cls in (random_evaluated_class(r, m=r, n=5), tied_class(r, r, r + 2, 3)):
                profile = _cover_profile(cls, CoverMethod.EXACT_MINIMAL, DEFAULT_COVER_CAP)
                thresholds, sizes = reference_profile(cls)
                np.testing.assert_array_equal(profile.thresholds, thresholds)
                np.testing.assert_array_equal(profile.sizes, sizes)
                assert profile.sizes.dtype == sizes.dtype

    def test_cap_plus_one_distinct_rows_raise(self):
        cls = random_evaluated_class(5, m=DEFAULT_COVER_CAP + 1, n=4)
        assert _distinct(cls)[0].size == DEFAULT_COVER_CAP + 1
        with pytest.raises(ExactEnumerationLimit):
            covering_number_exact(cls, 0.1)
        with pytest.raises(ExactEnumerationLimit):
            dudley_bound(cls, 0.1 * largest_norm(cls))
        # at the cap itself the exact cover still runs
        at_cap = EvaluatedClass(cls.evals[:DEFAULT_COVER_CAP], cls.envelope_b)
        assert covering_number_exact(at_cap, 0.1).size >= 1


class TestCoveringGreedy:
    def test_singleton(self):
        assert covering_number_greedy(EvaluatedClass([[0.5]], 1.0), 0.2).size == 1

    def test_radius_beyond_diameter(self):
        cls = random_evaluated_class(3, m=5, n=4)
        diameter = float(_distance_matrix(cls.evals).max())
        assert covering_number_greedy(cls, diameter + 0.01).size == 1

    def test_first_center_is_row_zero(self):
        cls = random_evaluated_class(4, m=5, n=4)
        assert covering_number_greedy(cls, 0.01).center_indices[0] == 0

    @given(st.integers(0, 10**6), st.integers(1, 7), st.floats(0.05, 2.0))
    def test_at_least_exact_size(self, seed, m, eps):
        cls = random_evaluated_class(seed, m=m, n=4)
        greedy = covering_number_greedy(cls, eps)
        exact = covering_number_exact(cls, eps)
        assert greedy.size >= exact.size
        # a greedy cover is still a valid cover
        dm = _distance_matrix(cls.evals)
        assert dm[:, list(greedy.center_indices)].min(axis=1).max() <= eps

    @given(st.integers(0, 10**6))
    def test_sizes_nonincreasing_in_radius(self, seed):
        cls = random_evaluated_class(seed, m=6, n=5)
        radii = np.linspace(0.05, 2.5, 10)
        exact_sizes = [covering_number_exact(cls, r).size for r in radii]
        greedy_sizes = [covering_number_greedy(cls, r).size for r in radii]
        assert all(a >= b for a, b in zip(exact_sizes, exact_sizes[1:]))
        assert all(a >= b for a, b in zip(greedy_sizes, greedy_sizes[1:]))
        assert all(1 <= s <= cls.m for s in exact_sizes + greedy_sizes)

    def test_small_radius_counts_distinct_rows(self):
        cls = EvaluatedClass([[0.0], [0.0], [1.0], [2.0]], 2.0)
        dm = _distance_matrix(cls.evals)
        positive = dm[dm > 0]
        eps = 0.5 * positive.min()
        assert covering_number_exact(cls, eps).size == 3


class TestDudley:
    def test_single_function_bound_is_four_eps(self):
        cls = EvaluatedClass([[1.0, 0.5]], 1.0)
        for eps in (0.05, 0.1, 0.3):
            result = dudley_bound(cls, eps)
            assert result.bound == 4.0 * eps
            assert result.integral == 0.0

    def test_grid_refinement_nonincreasing(self):
        cls = random_evaluated_class(17, m=6, n=6)
        eps = 0.1 * float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        bounds = [
            dudley_bound(cls, eps, grid_points=g).bound for g in (16, 64, 256)
        ]
        assert bounds[0] >= bounds[1] >= bounds[2]

    def test_integrand_comes_from_libm(self):
        # sqrt(log(9170)) is the first integer value at which numpy's log loops may round
        # differently from libm; a profile of 9,170 centers below radius 0.5, one above
        profile = _CoverProfile(np.array([0.0, 0.5]), np.array([9170, 1]))
        root = math.sqrt(math.log(9170))
        grid, sizes, integrals = _riemann(profile, 2.0, np.array([0.25]), 4)
        assert sizes.tolist() == [[9170, 9170, 1, 1]]
        assert integrals.tolist() == [(root + root) * 0.1875]
        radii, sizes, integral = _breakpoints(profile, 2.0, 0.25)
        assert sizes.tolist() == [9170, 1] and integral == root * 0.25

    def test_exact_breakpoint_integration_below_grid_sums(self):
        cls = random_evaluated_class(23, m=5, n=5)
        eps = 0.1 * float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        exact = dudley_bound(cls, eps, grid_points=None).bound
        coarse = dudley_bound(cls, eps, grid_points=64).bound
        assert exact <= coarse + 1e-15

    def test_bound_at_least_four_eps(self):
        cls = random_evaluated_class(29, m=5, n=5)
        eps = 0.2 * float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        assert dudley_bound(cls, eps).bound >= 4.0 * eps

    def test_degenerate(self):
        with pytest.raises(DegenerateClass):
            dudley_bound(EvaluatedClass([[0.0, 0.0]], 0.0), 0.1)

    def test_invalid_radius(self):
        cls = EvaluatedClass([[1.0, 1.0]], 1.0)
        with pytest.raises(InvalidRadius):
            dudley_bound(cls, 0.5)  # needs eps < c/2 = 0.5

    def test_greedy_never_below_exact_bound(self):
        cls = random_evaluated_class(31, m=6, n=6)
        eps = 0.15 * float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        exact = dudley_bound(cls, eps, CoverMethod.EXACT_MINIMAL).bound
        greedy = dudley_bound(cls, eps, CoverMethod.GREEDY).bound
        assert greedy >= exact - 1e-12

    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(2, 8))
    def test_verify_dudley_random_classes(self, seed, m, n):
        cls = random_evaluated_class(seed, m=m, n=n)
        c = float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        if c <= 0.0:
            return
        grid = [(c / 2.0) * i / 9 for i in range(1, 9)]
        for method in (CoverMethod.EXACT_MINIMAL, CoverMethod.GREEDY):
            report = verify_dudley(cls, grid, cover_method=method)
            assert all(entry.slack >= -1e-10 for entry in report.entries)
            assert report.without_abs == empirical_rademacher_without_abs(cls).value

    def test_single_nonzero_row_without_abs_zero(self):
        cls = EvaluatedClass([[0.8, -0.4]], 1.0)
        report = verify_dudley(cls, [0.1])
        assert report.without_abs == pytest.approx(0.0, abs=1e-15)
        assert report.entries[0].bound == pytest.approx(0.4, abs=1e-15)

    def test_verify_dudley_degenerate_class(self):
        with pytest.raises(DegenerateClass):
            verify_dudley(EvaluatedClass([[0.0, 0.0]], 0.0), [0.1])

    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 8), st.integers(1, 20))
    def test_default_radii_split_half_the_largest_norm(self, seed, m, n, count):
        cls = random_evaluated_class(seed, m=m, n=n)
        c = float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        assert largest_norm(cls) == c
        assert default_radii(cls, count) == [(c / 2.0) * i / (count + 1) for i in range(1, count + 1)]

    def test_default_radii_of_a_degenerate_class(self):
        with pytest.raises(DegenerateClass):
            default_radii(EvaluatedClass([[0.0, 0.0]], 0.0), 4)

    @given(st.integers(0, 10**6))
    def test_profile_matches_direct_cover_calls(self, seed):
        # the step-function profile used inside the integral must agree with
        # evaluating a cover from scratch at every queried radius
        cls = random_evaluated_class(seed, m=6, n=5)
        eps = 0.1 * float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        result = dudley_bound(cls, eps, grid_points=32)
        for u, size in zip(result.radii, result.cover_sizes):
            assert covering_number_exact(cls, float(u)).size == size
        greedy = dudley_bound(cls, eps, CoverMethod.GREEDY, grid_points=32)
        for u, size in zip(greedy.radii, greedy.cover_sizes):
            assert covering_number_greedy(cls, float(u)).size == size

    @pytest.mark.parametrize("grid_points", [1, 7, 256, None])
    @pytest.mark.parametrize("method", list(CoverMethod))
    @given(st.integers(0, 10**6), st.integers(1, 10), st.integers(1, 8))
    def test_each_entry_has_the_bits_of_its_own_bound(self, method, grid_points, seed, m, n):
        cls = random_evaluated_class(seed, m=m, n=n)
        if largest_norm(cls) <= 0.0:
            return
        radii = default_radii(cls, 9) + [0.499 * largest_norm(cls), 1e-9]
        report = verify_dudley(cls, radii, cover_method=method, grid_points=grid_points)
        for eps, entry in zip(radii, report.entries, strict=True):
            bound = dudley_bound(cls, eps, method, grid_points=grid_points).bound
            assert entry.epsilon == eps and entry.bound.hex() == bound.hex()

    @pytest.mark.parametrize("block", [1, 14, 35, 7 * 16])  # 1, 2, 5 and 16 radii per array
    def test_riemann_arrays_of_few_radii_give_the_bits_of_one_array(self, monkeypatch, block):
        cls = random_evaluated_class(4, m=9, n=5)
        radii = default_radii(cls, 16)
        separate = [dudley_bound(cls, eps, "greedy", grid_points=7).bound for eps in radii]
        monkeypatch.setattr(entropy, "_GRID_BLOCK", block)
        report = verify_dudley(cls, radii, cover_method="greedy", grid_points=7)
        assert [entry.bound.hex() for entry in report.entries] == [bound.hex() for bound in separate]

    def test_riemann_cells_peak_near_one_array_of_radii(self):
        # 16 radii of 2^16 cells: 8 MB a temporary over all radii, 512 KB per array of one
        cls = random_evaluated_class(4, m=9, n=5)
        radii = default_radii(cls, 16)
        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(entropy, "_GRID_BLOCK", 1 << 16)
                verify_dudley(cls, radii, cover_method="greedy", grid_points=1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak  # all radii at once peak at 32 MB

    @pytest.mark.parametrize("method", list(CoverMethod))
    def test_radii_are_checked_before_the_sign_kernel_or_the_cover(self, monkeypatch, method):
        def refuse(*args, **kwargs):
            raise AssertionError("the sign kernel or the cover ran")

        monkeypatch.setattr(complexity, "_sign_averages", refuse)
        monkeypatch.setattr(entropy, "_cover_profile", refuse)
        cls = EvaluatedClass([[1.0, 1.0], [0.0, 1.0]], 1.0)  # c = 1
        cases = {
            (): "epsilon grid is empty",
            (0.1, 0.0): "epsilon must lie in (0, 0.5), got 0.0",
            (0.5,): "epsilon must lie in (0, 0.5), got 0.5",
            (0.2, -1.0, 0.7): "epsilon must lie in (0, 0.5), got -1.0",
        }
        for radii, message in cases.items():
            with pytest.raises(InvalidRadius) as raised:
                verify_dudley(cls, radii, cover_method=method)
            assert str(raised.value) == message

    def test_integral_sandwiched_by_direct_riemann_sums(self):
        import math

        cls = random_evaluated_class(41, m=6, n=5)
        c = float(np.sqrt(np.mean(cls.evals**2, axis=1)).max())
        eps = 0.12 * c
        exact = dudley_bound(cls, eps, grid_points=None)
        # direct sums over fresh covers, bypassing the profile machinery
        grid_count = 512
        width = (c / 2.0 - eps) / grid_count
        values = [
            math.sqrt(math.log(covering_number_exact(cls, eps + width * t).size))
            for t in range(grid_count + 1)
        ]
        left = math.fsum(values[:-1]) * width
        right = math.fsum(values[1:]) * width
        assert right - 1e-12 <= exact.integral <= left + 1e-12
