"""McDiarmid tail bound, the high-probability radius, and tail simulation.

For classes uniformly bounded by b, the deviation functional concentrates:

    P( UD >= 2 * R_n + eps )  <=  exp(-eps**2 * n / (2 * b**2))

The simulator draws seeded samples, counts exceedances of the fixed threshold
2 * R_n + eps, and compares the frequency against the closed form through a
one-sided Clopper-Pearson interval, so a reported failure requires a
statistically significant exceedance rather than sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .complexity import _check_support_class, _run_chunks
from .core import (
    DiscreteDistribution,
    EvaluatedClass,
    InvalidDelta,
    InvalidEnvelope,
    InvariantViolation,
)
from .deviation import _sample_deviations


def mcdiarmid_bound(epsilon: float, n: int, b: float) -> float:
    """exp(-eps**2 * n / (2 * b**2)), the bounded-differences tail bound; where
    eps**2 or b**2 leaves the float range, the exponent is taken from logarithms."""
    if b <= 0.0:
        raise InvalidEnvelope(f"envelope must be positive, got {b}")
    if epsilon < 0.0:
        raise InvariantViolation("epsilon must be nonnegative")
    if n < 1:
        raise InvariantViolation("n must be at least 1")
    try:
        return math.exp(-(epsilon**2) * n / (2.0 * b**2))
    except (OverflowError, ZeroDivisionError):
        if epsilon == 0.0:
            return 1.0
        log_exponent = 2.0 * (math.log(epsilon) - math.log(b)) + math.log(n / 2.0)
        return math.exp(-math.exp(min(log_exponent, 709.0)))  # exp(709) is still finite


def high_probability_epsilon(delta: float, n: int, b: float) -> float:
    """The radius b * sqrt(2 * ln(1/delta) / n) at confidence 1 - delta.

    Round-trips through mcdiarmid_bound back to delta.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(f"delta must lie in (0, 1), got {delta}")
    if b <= 0.0:
        raise InvalidEnvelope(f"envelope must be positive, got {b}")
    if n < 1:
        raise InvariantViolation("n must be at least 1")
    return b * math.sqrt(2.0 * math.log(1.0 / delta) / n)


def clopper_pearson_upper(successes: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided upper confidence bound for a binomial proportion."""
    _check_counts(successes, trials, confidence)
    if successes >= trials:
        return 1.0
    return float(betaincinv(successes + 1, trials - successes, confidence))


def clopper_pearson_lower(successes: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided lower confidence bound for a binomial proportion."""
    _check_counts(successes, trials, confidence)
    if successes <= 0:
        return 0.0
    return float(betaincinv(successes, trials - successes + 1, 1.0 - confidence))


def _check_counts(successes: int, trials: int, confidence: float) -> None:
    if trials < 1 or not 0 <= successes <= trials:
        raise InvariantViolation(f"bad binomial counts: {successes}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise InvalidDelta(f"confidence must lie in (0, 1), got {confidence}")


@dataclass(frozen=True)
class TailExperiment:
    """Parameters and outcome of one seeded tail simulation."""

    n: int
    b: float
    epsilon: float
    trials: int
    seed: int
    exceed_count: int
    empirical_freq: float
    ci_upper: float  # one-sided 99% Clopper-Pearson upper bound
    theoretical: float
    rademacher_value: float

    def __post_init__(self):
        if self.empirical_freq != self.exceed_count / self.trials:
            raise InvariantViolation("empirical_freq must equal exceed_count / trials")
        if self.ci_upper < self.empirical_freq:
            raise InvariantViolation("ci_upper must dominate the empirical frequency")


def simulate_tail(
    cls: EvaluatedClass,
    dist: DiscreteDistribution,
    n: int,
    epsilon: float,
    trials: int,
    seed: int,
    rademacher_value: float,
    *,
    threads: int = 1,
) -> TailExperiment:
    """Count how often UD >= 2 * rademacher_value + epsilon over seeded trials.

    The complexity value is an input, fixed once for the whole experiment; the
    caller reports its provenance.  ``cls`` is the class on the whole support
    of ``dist``, whose population means ``dist`` gives, and trials are vectorized.
    """
    if trials < 1000:
        raise InvariantViolation("tail simulation needs at least 1000 trials")
    threshold = 2.0 * rademacher_value + epsilon
    _check_support_class(cls, dist)
    means = dist.expectation(cls.evals)

    def fill(start: int, stop: int) -> int:
        idx = dist.draw_index_trials(seed, start, stop - start, n)
        return int(np.count_nonzero(_sample_deviations(cls, means, idx) >= threshold))

    exceed = sum(_run_chunks(fill, trials, threads))
    return TailExperiment(
        n=n,
        b=cls.envelope_b,
        epsilon=epsilon,
        trials=trials,
        seed=seed,
        exceed_count=exceed,
        empirical_freq=exceed / trials,
        ci_upper=clopper_pearson_upper(exceed, trials),
        theoretical=mcdiarmid_bound(epsilon, n, cls.envelope_b),
        rademacher_value=rademacher_value,
    )


@dataclass(frozen=True)
class TailBoundReport:
    """The verdict on a ``TailExperiment``, whose fields hold every other number."""

    passed: bool
    freq_lower: float  # one-sided lower confidence bound on the frequency


def verify_tail_bound(experiment: TailExperiment, confidence: float = 0.99) -> TailBoundReport:
    """Pass unless the simulated frequency exceeds the bound significantly.

    The experiment fails only when the one-sided lower confidence bound of the
    frequency is itself above the closed-form tail probability.
    """
    freq_lower = clopper_pearson_lower(experiment.exceed_count, experiment.trials, confidence)
    passed = (
        experiment.empirical_freq <= experiment.theoretical
        or experiment.theoretical >= freq_lower
    )
    return TailBoundReport(passed, freq_lower)
