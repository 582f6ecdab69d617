import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbound.complexity import empirical_rademacher, empirical_rademacher_without_abs
from genbound.cli import run_experiment
from genbound import core, linear
from genbound.core import (
    DimensionMismatch,
    DrawBudgetExceeded,
    EvaluatedClass,
    InvariantViolation,
    derive_seed,
    draw_words,
)
from genbound.linear import (
    L1Linf,
    L2Ball,
    LinearBoundReport,
    LinearInstance,
    l1_bound,
    l2_bound,
    massart_bound,
    random_linear_instance,
    random_linear_instances,
    verify_linear_bound,
    verify_linear_bounds,
    _sample_balls,
)


class TestClosedForms:
    def test_l2_values(self):
        assert l2_bound(1.0, 1.0, 4) == 0.5
        assert l2_bound(2.0, 3.0, 9) == 2.0
        assert l2_bound(1.0, 0.0, 3) == 0.0

    def test_l1_value(self):
        assert l1_bound(1.0, 1.0, 1, 1) == pytest.approx(math.sqrt(2 * math.log(2)), abs=1e-15)
        assert l1_bound(1.0, 0.0, 4, 8) == 0.0

    def test_l1_monotone_in_dimension(self):
        values = [l1_bound(1.0, 1.0, 4, d) for d in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.1, 4.0), st.integers(1, 20))
    def test_homogeneity(self, X, W, c, n):
        assert l2_bound(c * X, W, n) == pytest.approx(c * l2_bound(X, W, n), rel=1e-12, abs=1e-12)
        assert l1_bound(X, c * W, n, 4) == pytest.approx(
            c * l1_bound(X, W, n, 4), rel=1e-12, abs=1e-12
        )


class TestMassart:
    def test_singleton_class(self):
        assert massart_bound(EvaluatedClass([[0.7, -0.2]], 1.0)) == 0.0

    def test_two_row_value(self):
        cls = EvaluatedClass([[1.0, 1.0], [-1.0, -1.0]], 1.0)
        expected = 0.5 * math.sqrt(2.0) * math.sqrt(2.0 * math.log(2.0))
        assert massart_bound(cls) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 8))
    def test_dominates_without_abs(self, seed, m, n):
        rng = np.random.default_rng(seed)
        cls = EvaluatedClass(rng.uniform(-1, 1, (m, n)), 1.0)
        assert empirical_rademacher_without_abs(cls).value <= massart_bound(cls) + 1e-10

    def test_negation_augmentation_bounds_abs_version(self):
        rng = np.random.default_rng(77)
        cls = EvaluatedClass(rng.uniform(-1, 1, (3, 5)), 1.0)
        doubled = EvaluatedClass(np.vstack([cls.evals, -cls.evals]), cls.envelope_b)
        abs_value = empirical_rademacher(cls).value
        assert empirical_rademacher_without_abs(doubled).value == pytest.approx(
            abs_value, abs=1e-15
        )
        assert abs_value <= massart_bound(doubled) + 1e-10


class TestSampleBall:
    @pytest.mark.parametrize("kind", ["l2", "l1", "linf"])
    def test_norm_constraint(self, kind):
        pts = _sample_balls(kind, 1.5, 3, 500, [13])
        if kind == "l2":
            norms = np.sqrt((pts**2).sum(axis=1))
        elif kind == "l1":
            norms = np.abs(pts).sum(axis=1)
        else:
            norms = np.abs(pts).max(axis=1)
        assert norms.max() <= 1.5 + 1e-12

    def test_zero_radius(self):
        assert np.all(_sample_balls("l2", 0.0, 4, 50, [1]) == 0.0)

    def test_deterministic(self):
        a = _sample_balls("l1", 1.0, 5, 64, [21])
        b = _sample_balls("l1", 1.0, 5, 64, [21])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["l2", "l1"])
    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_radius_law_is_r_to_the_d(self, kind, d):
        # the largest of d uniforms has P(r <= t) = t**d, the law of a uniform point's radius
        pts = _sample_balls(kind, 1.0, d, 4000, [5])
        norms = np.sort(np.sqrt((pts**2).sum(axis=1)) if kind == "l2" else np.abs(pts).sum(axis=1))
        cdf = norms**d
        ks = max((np.arange(1, 4001) / 4000 - cdf).max(), (cdf - np.arange(4000) / 4000).max())
        assert norms[-1] < 1.0
        assert ks < 1.63 / math.sqrt(4000)  # the 1% critical value

    @pytest.mark.parametrize("kind", ["l2", "l1"])
    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_points_are_exact_directions_times_radii(self, kind, d):
        directions, radials = oracle_ball_directions(kind, d, 300, 8)
        for direction in directions:
            if kind == "l1":  # signed spacings of sorted uniforms, summing to exactly 1
                assert math.fsum(map(abs, direction)) == 1.0 and sum(map(abs, direction)) == 1.0
            else:
                assert abs(math.sqrt(math.fsum(x * x for x in direction)) - 1.0) <= 4 * 2.0**-53
        want = np.array([[x * (1.5 * r) for x in direction] for direction, r in zip(directions, radials)])
        assert _sample_balls(kind, 1.5, d, 300, [8]).tobytes() == want.tobytes()

    def test_a_zero_cube_vector_takes_the_first_axis(self, monkeypatch):
        # u = 1/2 in every coordinate gives the cube vector 0
        monkeypatch.setattr(linear, "draw_words", lambda seed, first, count, width: np.full((count, width), 2**63, np.uint64))
        assert np.array_equal(_sample_balls("l2", 2.0, 3, 4, [1]), np.tile([1.0, 0.0, 0.0], (4, 1)))


def oracle_ball_directions(kind, d, count, seed):
    """Each l2 or l1 point's direction and radius over 1 from its words, one Python float
    at a time."""
    directions, radials = [], []
    for row in draw_words(seed, 0, count, 2 * d if kind == "l2" else 3 * d - 1).tolist():
        u = [(word >> 11) * 2.0**-53 for word in row]
        if kind == "l2":
            cube = [2.0 * x - 1.0 for x in u[:d]]
            norm = math.sqrt(sum(x * x for x in cube))
            directions.append([x / norm for x in cube])
        else:
            cuts = sorted(u[: d - 1])
            signs = [1.0 if word >> 63 else -1.0 for word in row[d - 1 : 2 * d - 1]]
            directions.append([sign * (b - a) for sign, a, b in zip(signs, [0.0, *cuts], [*cuts, 1.0])])
        radials.append(max(u[-d:]))
    return directions, radials


class TestLinearInstance:
    def test_validates_weight_norms(self):
        with pytest.raises(InvariantViolation):
            LinearInstance([[2.0, 0.0]], [[1.0, 0.0]], L2Ball(1.0, 1.0))

    def test_validates_input_norms(self):
        with pytest.raises(InvariantViolation):
            LinearInstance([[0.5, 0.5]], [[2.0, 0.0]], L1Linf(1.0, 1.0))

    def test_names_the_norm_as_a_float(self):
        with pytest.raises(InvariantViolation, match=r"^input norm 2\.0 exceeds radius 1\.0$"):
            LinearInstance([[0.5, 0.5]], [[2.0, 0.0]], L1Linf(1.0, 1.0))

    def test_aligned_instance(self):
        instance = LinearInstance([[1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], L2Ball(1.0, 1.0))
        report = verify_linear_bound(instance)
        assert report.exact == pytest.approx(0.5, abs=1e-15)
        assert report.bound == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_zero_weights(self):
        instance = LinearInstance(
            np.zeros((2, 3)), np.eye(3)[:2], L2Ball(1.0, 1.0)
        )
        report = verify_linear_bound(instance)
        assert report.exact == 0.0

    @given(st.integers(0, 10**6))
    def test_random_l2_instances_pass(self, seed):
        instance = random_linear_instance(seed, L2Ball(1.0, 1.0), 4, 6, 4)
        report = verify_linear_bound(instance)
        assert report.slack >= -1e-10

    @given(st.integers(0, 10**6))
    def test_random_l1_instances_pass(self, seed):
        instance = random_linear_instance(seed, L1Linf(1.0, 1.0), 6, 5, 4)
        report = verify_linear_bound(instance)
        assert report.slack >= -1e-10


class TestProducts:
    @pytest.mark.parametrize("regime", [L2Ball(1.0, 1.0), L1Linf(1.0, 1.0)])
    def test_classes_match_fsum_and_the_stack_bitwise(self, monkeypatch, regime):
        instances = random_linear_instances([3, 4, 5], regime, 7, 6, 5)
        stacks, sign_averages_of = [], linear._sign_averages

        def sign_averages(stack, cap):
            stacks.append(stack)
            return sign_averages_of(stack, cap)

        monkeypatch.setattr(linear, "_sign_averages", sign_averages)
        verify_linear_bounds(instances)
        for instance, stacked in zip(instances, stacks[0], strict=True):
            evals = instance.evaluated_class().evals
            want = [[math.fsum(w * x) for x in instance.inputs] for w in instance.weights]
            np.testing.assert_allclose(evals, want, rtol=0, atol=1e-12)
            assert evals.tobytes() == stacked.tobytes()


class TestL1Duality:
    @given(st.integers(0, 10**6), st.integers(1, 10), st.floats(0.1, 3.0))
    def test_signed_coordinate_class_realizes_linf_norm(self, seed, d, W):
        z = np.random.default_rng(seed).uniform(-2, 2, d)
        corners = np.vstack([W * np.eye(d), -W * np.eye(d)])
        best = (corners @ z).max()
        assert best == pytest.approx(W * np.abs(z).max(), abs=1e-12)


def reference_instance(seed, regime, d, n, m):
    """One instance drawn on its own: two one-seed ball draws on its sub-seeds."""
    kinds = ("l2", "l2") if isinstance(regime, L2Ball) else ("l1", "linf")
    weights = _sample_balls(kinds[0], regime.weight_radius, d, m, [derive_seed(seed, "weights")])
    inputs = _sample_balls(kinds[1], regime.input_radius, d, n, [derive_seed(seed, "inputs")])
    return LinearInstance(weights, inputs, regime)


def reference_report(instance, tol=1e-10):
    """One instance certified on its own: one class, one exact sign average."""
    exact = empirical_rademacher(instance.evaluated_class()).value
    regime = instance.regime
    if isinstance(regime, L2Ball):
        bound, name = l2_bound(regime.input_radius, regime.weight_radius, instance.n), "l2"
    else:
        bound, name = l1_bound(regime.input_radius, regime.weight_radius, instance.n, instance.d), "l1"
    return LinearBoundReport(
        exact, bound, bound - exact, name, instance.d, instance.n, instance.m, exact <= bound + tol
    )


def bits(report):
    """A report's fields with floats as exact hex, so -0.0 and 0.0 differ."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report))


regimes = st.sampled_from([L2Ball, L1Linf]).flatmap(
    lambda kind: st.builds(kind, st.floats(0.0, 3.0), st.floats(0.0, 3.0))
)


class TestStackedVerification:
    @given(regimes, st.integers(1, 10), st.integers(1, 9), st.integers(1, 6), st.integers(1, 25),
           st.integers(0, 2**63))
    def test_equals_per_instance_recomputation_bitwise(self, regime, d, n, m, count, seed):
        seeds = [derive_seed(seed, f"linear:{i}") for i in range(count)]
        instances = random_linear_instances(seeds, regime, d, n, m)
        references = [reference_instance(s, regime, d, n, m) for s in seeds]
        for got, want in zip(instances, references, strict=True):
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.inputs.tobytes() == want.inputs.tobytes()
        reports = verify_linear_bounds(instances)
        assert [bits(r) for r in reports] == [bits(reference_report(i)) for i in references]
        assert bits(verify_linear_bound(instances[-1])) == bits(reports[-1])

    @pytest.mark.parametrize("regime", ["l2", "l1"])
    def test_cli_rows_equal_per_instance_reports(self, regime):
        config = {"command": "linear", "regime": regime, "seed": 9, "d": 5, "n": 7, "m": 3, "count": 12,
                  "weight_radius": 0.8, "input_radius": 1.7}
        rows = run_experiment(config)["results"]
        kind = L2Ball if regime == "l2" else L1Linf
        for i, row in enumerate(rows):
            instance = reference_instance(derive_seed(9, f"linear:{i}"), kind(0.8, 1.7), 5, 7, 3)
            want = reference_report(instance)
            assert row["x"] == i
            got = (row["value"], row["bound"], row["slack"], row["method"], row["passed"])
            assert got == (want.exact, want.bound, want.slack, want.regime, want.passed)
            assert math.copysign(1.0, row["value"]) == math.copysign(1.0, want.exact)

    def test_empty_batch(self):
        assert verify_linear_bounds([]) == []
        assert random_linear_instances([], L2Ball(1.0, 1.0), 3, 4, 2) == []

    def test_draw_budget_counts_the_batch_over_all_seeds(self, monkeypatch):
        # l2 points in d = 3 take 6 words: 2 seeds of 4 inputs are 48 values, each seed alone 24
        regime = L2Ball(1.0, 1.0)
        monkeypatch.setattr(core, "MAX_DRAW_ELEMENTS", 48)
        assert len(random_linear_instances([1, 2], regime, 3, 4, 2)) == 2
        monkeypatch.setattr(core, "MAX_DRAW_ELEMENTS", 47)
        assert len(random_linear_instances([1], regime, 3, 4, 2)) == 1
        with pytest.raises(DrawBudgetExceeded):
            random_linear_instances([1, 2], regime, 3, 4, 2)

    def test_instances_of_different_shapes_are_rejected(self):
        regime = L2Ball(1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            verify_linear_bounds(
                [random_linear_instance(1, regime, 3, 4, 2), random_linear_instance(2, regime, 3, 5, 2)]
            )

    @pytest.mark.parametrize("regime", [L2Ball(1.0, 1.0), L1Linf(1.0, 1.0)])
    def test_instances_of_one_shape_and_different_dimensions_verify(self, regime):
        instances = [random_linear_instance(1, regime, 3, 4, 2), random_linear_instance(2, regime, 6, 4, 2)]
        assert [bits(r) for r in verify_linear_bounds(instances)] == [bits(reference_report(i)) for i in instances]

    @pytest.mark.parametrize("regime", [L2Ball(1.0, 1.0), L1Linf(1.0, 1.0)])
    @pytest.mark.parametrize("kind, at", [("weight", 0), ("input", 2), ("weight", 5)])
    def test_a_planted_out_of_ball_row_raises_the_per_instance_message(self, monkeypatch, regime, kind, at):
        seeds = [derive_seed(4, f"linear:{i}") for i in range(6)]
        d, n, m = 3, 4, 2
        sample = linear._sample_balls
        batches = []  # the weights, then the inputs

        def sample_balls(ball, radius, d, count, seeds_of_ball):
            points = sample(ball, radius, d, count, seeds_of_ball)
            batches.append(points)
            if len(batches) == (1 if kind == "weight" else 2):
                points[at * count + 1] = [1.5, 0.0, 0.0]  # one row of instance ``at`` leaves its ball
            return points

        monkeypatch.setattr(linear, "_sample_balls", sample_balls)
        with pytest.raises(InvariantViolation) as raised:
            random_linear_instances(seeds, regime, d, n, m)
        weights, inputs = batches[0].reshape(-1, m, d), batches[1].reshape(-1, n, d)
        assert str(raised.value) == f"{kind} norm 1.5 exceeds radius 1.0"
        # the checked constructor names the same norm for that instance
        with pytest.raises(InvariantViolation) as checked:
            LinearInstance(weights[at], inputs[at], regime)
        assert str(checked.value) == str(raised.value)

    def test_drawn_instances_are_read_only_views_of_one_checked_batch(self):
        instances = random_linear_instances([1, 2, 3], L2Ball(1.0, 1.0), 3, 4, 2)
        for instance in instances:
            assert not instance.weights.flags.writeable and not instance.inputs.flags.writeable

    def test_nan_weights_are_rejected(self):
        with pytest.raises(InvariantViolation):
            LinearInstance([[float("nan"), 0.0]], [[1.0, 0.0]], L2Ball(1.0, 1.0))
