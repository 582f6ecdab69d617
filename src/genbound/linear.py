"""Closed-form complexity bounds for norm-constrained linear predictors.

For the class {x -> <w, x>} the empirical complexity obeys

    l2 regime  (||w||_2 <= W, ||x||_2 <= X):      X * W / sqrt(n)
    l1 regime  (||w||_1 <= W, ||x||_inf <= Xinf): (Xinf * W / sqrt(n)) * sqrt(2 ln(2d))

and any finite class obeys the Massart bound on the without-abs quantity,

    (1/n) * max_i ||evals[i]||_2 * sqrt(2 ln m).

Ball samplers generate valid instances from exactly rounded operations only;
the verifier pits the exact sign enumeration of a whole batch of instances, in
one stacked kernel call, against each instance's closed form.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np

from .complexity import DEFAULT_SIGN_CAP, _check_sign_cap, _sign_averages
from .core import (
    DimensionMismatch,
    EvaluatedClass,
    InvalidRadius,
    InvariantViolation,
    _check_draw_budget,
    derive_seed,
    draw_words,
    words_to_signs,
    words_to_uniforms,
)

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class L2Ball:
    """Weights in an l2 ball of radius W, inputs in an l2 ball of radius X."""

    weight_radius: float
    input_radius: float


@dataclass(frozen=True)
class L1Linf:
    """Weights in an l1 ball of radius W, inputs in an l-infinity ball of radius Xinf."""

    weight_radius: float
    input_radius: float


NormRegime = L2Ball | L1Linf


@dataclass(frozen=True, eq=False)
class LinearInstance:
    """m weight vectors and n inputs in R^d under one norm regime.

    ``validate=False`` takes float64 (m, d) and (n, d) arrays as they are, without a
    copy or a norm check, for a caller that has checked them (``random_linear_instances``).
    """

    weights: np.ndarray  # (m, d)
    inputs: np.ndarray  # (n, d)
    regime: NormRegime
    _: KW_ONLY
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not validate:
            return
        weights = np.atleast_2d(np.array(self.weights, dtype=np.float64))
        inputs = np.atleast_2d(np.array(self.inputs, dtype=np.float64))
        if weights.shape[1] != inputs.shape[1]:
            raise InvariantViolation("weights and inputs must share the dimension d")
        _check_norms(weights[None], inputs[None], self.regime)
        weights.setflags(write=False)
        inputs.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "inputs", inputs)

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def evaluated_class(self) -> EvaluatedClass:
        evals = _dot(self.weights[:, None], self.inputs[None])
        return EvaluatedClass(evals, float(np.abs(evals).max(initial=0.0)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, broadcast over the others: one multiply and
    one add per coordinate in coordinate order, so no BLAS kernel picks the bits."""
    total = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        total = total + a[..., j] * b[..., j]
    return total


def _check_norms(weights: np.ndarray, inputs: np.ndarray, regime: NormRegime) -> None:
    """Refuse the first of a batch of instances, (count, m, d) weights and (count, n, d)
    inputs, with a weight norm or else an input norm above its radius (also NaN)."""
    if isinstance(regime, L2Ball):
        w_norms = np.sqrt((weights**2).sum(axis=2)).max(axis=1)
        x_norms = np.sqrt((inputs**2).sum(axis=2)).max(axis=1)
    else:
        w_norms = np.abs(weights).sum(axis=2).max(axis=1)
        x_norms = np.abs(inputs).max(axis=2).max(axis=1)
    checks = (("weight", w_norms, regime.weight_radius), ("input", x_norms, regime.input_radius))
    bad = [~(norms <= radius + _NORM_TOL) for _, norms, radius in checks]
    if np.any(bad):
        i = int(np.argmax(bad[0] | bad[1]))
        kind, norms, radius = checks[0] if bad[0][i] else checks[1]
        raise InvariantViolation(f"{kind} norm {float(norms[i])!r} exceeds radius {radius!r}")


def l2_bound(X: float, W: float, n: int) -> float:
    """X * W / sqrt(n)."""
    if X < 0.0 or W < 0.0:
        raise InvalidRadius("radii must be nonnegative")
    if n < 1:
        raise InvariantViolation("n must be at least 1")
    return X * W / math.sqrt(n)


def l1_bound(Xinf: float, W: float, n: int, d: int) -> float:
    """(Xinf * W / sqrt(n)) * sqrt(2 * ln(2d))."""
    if Xinf < 0.0 or W < 0.0:
        raise InvalidRadius("radii must be nonnegative")
    if n < 1 or d < 1:
        raise InvariantViolation("n and d must be at least 1")
    return (Xinf * W / math.sqrt(n)) * math.sqrt(2.0 * math.log(2.0 * d))


def massart_bound(cls: EvaluatedClass) -> float:
    """(1/n) * max_i ||evals[i]||_2 * sqrt(2 ln m); 0 for a singleton class."""
    largest = float(np.sqrt((cls.evals**2).sum(axis=1)).max())
    return largest * math.sqrt(2.0 * math.log(cls.m)) / cls.n


def _sample_balls(kind: str, radius: float, d: int, count: int, seeds) -> np.ndarray:
    """``count`` points in the ``kind`` ball ("l2", "l1" or "linf") of ``radius`` from
    each seed's own words, all transformed in one batch.

    l2 divides a uniform cube vector 2u - 1 by its norm; l1 signs the spacings
    of d - 1 sorted uniforms, which are exact and sum to exactly 1.  Both scale
    by radius times the largest of d uniforms, which has the law of
    radius * u**(1/d) and stays below radius.  linf is coordinatewise uniform.
    Only sort, +, -, *, /, sqrt and max are used, which numpy rounds exactly on
    every CPU.  Points satisfy the norm constraint to within 1e-12.  Rows come
    seed by seed; every row is transformed on its own, so each seed's points are
    those it would give alone.
    """
    if radius < 0.0:
        raise InvalidRadius("radius must be nonnegative")
    if d < 1:
        raise InvariantViolation("d must be at least 1")
    words_per_point = {"l2": 2 * d, "l1": 3 * d - 1, "linf": d}[kind]
    _check_draw_budget(len(seeds) * count, words_per_point)  # the batch over all seeds
    words = np.concatenate([draw_words(seed, 0, count, words_per_point) for seed in seeds])
    u = words_to_uniforms(words)
    if kind == "linf":
        return radius * (2.0 * u - 1.0)
    if kind == "l2":
        cube = 2.0 * u[:, :d] - 1.0
        norms = np.sqrt(_dot(cube, cube))
        flat = norms == 0.0  # every coordinate drew u = 1/2
        cube[flat, 0] = norms[flat] = 1.0
        direction = cube / norms[:, None]
    else:
        cuts = np.sort(u[:, : d - 1], axis=1)
        spacings = np.diff(cuts, axis=1, prepend=0.0, append=1.0)
        direction = words_to_signs(words[:, d - 1 : 2 * d - 1]) * spacings
    return direction * (radius * u[:, -d:].max(axis=1))[:, None]


def random_linear_instances(
    seeds, regime: NormRegime, d: int, n: int, m: int
) -> list[LinearInstance]:
    """One valid instance per seed, weights and inputs sampled in the regime's balls.

    Each instance draws from sub-seeds of its own seed, and the draws of all
    instances are transformed in one batch per ball, so every instance equals
    ``random_linear_instance`` of its seed.
    """
    if not seeds:
        return []
    kinds = ("l2", "l2") if isinstance(regime, L2Ball) else ("l1", "linf")
    weights = _sample_balls(kinds[0], regime.weight_radius, d, m, [derive_seed(s, "weights") for s in seeds])
    inputs = _sample_balls(kinds[1], regime.input_radius, d, n, [derive_seed(s, "inputs") for s in seeds])
    weights, inputs = weights.reshape(-1, m, d), inputs.reshape(-1, n, d)
    _check_norms(weights, inputs, regime)  # the whole batch in one pass, as each instance would check it
    weights.setflags(write=False)
    inputs.setflags(write=False)
    return [LinearInstance(w, x, regime, validate=False) for w, x in zip(weights, inputs)]


def random_linear_instance(
    seed: int, regime: NormRegime, d: int, n: int, m: int
) -> LinearInstance:
    """A valid instance with weights and inputs sampled in the regime's balls."""
    return random_linear_instances([seed], regime, d, n, m)[0]


@dataclass(frozen=True)
class LinearBoundReport:
    exact: float
    bound: float
    slack: float
    regime: str
    d: int
    n: int
    m: int
    passed: bool  # exact <= bound + tol


def verify_linear_bounds(
    instances, *, tol: float = 1e-10, sign_cap: int = DEFAULT_SIGN_CAP
) -> list[LinearBoundReport]:
    """Exact complexity of each instance's induced class against its regime's closed form.

    The instances share one (m, n) shape, and all their classes go through
    one stacked call of the exact sign kernel; their dimensions d may differ.
    """
    if not instances:
        return []
    if len({(instance.m, instance.n) for instance in instances}) > 1:
        raise DimensionMismatch("stacked linear instances must share m and n")
    stack = np.stack([_dot(instance.weights[:, None], instance.inputs[None]) for instance in instances])
    reports = []
    for instance, exact in zip(instances, _sign_averages(stack, sign_cap)[0].tolist()):
        regime = instance.regime
        if isinstance(regime, L2Ball):
            bound, name = l2_bound(regime.input_radius, regime.weight_radius, instance.n), "l2"
        else:
            bound, name = l1_bound(regime.input_radius, regime.weight_radius, instance.n, instance.d), "l1"
        reports.append(LinearBoundReport(
            exact, bound, bound - exact, name, instance.d, instance.n, instance.m, exact <= bound + tol
        ))
    return reports


def verify_linear_bound(
    instance: LinearInstance, *, tol: float = 1e-10, sign_cap: int = DEFAULT_SIGN_CAP
) -> LinearBoundReport:
    """Exact complexity of the induced class against the regime's closed form."""
    return verify_linear_bounds([instance], tol=tol, sign_cap=sign_cap)[0]


def verify_random_linear_bounds(
    seeds, regime: NormRegime, d: int, n: int, m: int, *, tol: float = 1e-10, sign_cap: int = DEFAULT_SIGN_CAP
) -> list[LinearBoundReport]:
    """``verify_linear_bounds`` of ``random_linear_instances``; the sign cap is tested before any draw."""
    _check_sign_cap(n, sign_cap)
    return verify_linear_bounds(random_linear_instances(seeds, regime, d, n, m), tol=tol, sign_cap=sign_cap)
