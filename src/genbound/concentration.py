"""McDiarmid tail bound, the high-probability radius, and tail simulation.

For classes uniformly bounded by b, the deviation functional concentrates:

    P( UD >= 2 * R_n + eps )  <=  exp(-eps**2 * n / (2 * b**2))

The simulator draws seeded samples, counts exceedances of the fixed threshold
2 * R_n + eps, and compares the frequency against the closed form through a
one-sided Clopper-Pearson interval, so a reported failure requires a
statistically significant exceedance rather than sampling noise.  UD depends
on a sample only through its count vector, so where the table of permutation
orbits is small each trial draws its orbit, not its n support indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .complexity import _MC_CHUNK, _check_support_class, _orbit_table_fits, _run_chunks
from .core import (
    DiscreteDistribution,
    EvaluatedClass,
    InvalidDelta,
    InvalidEnvelope,
    InvariantViolation,
)
from .deviation import _check_count_matrix, _sample_deviations


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
    """One-sided upper confidence bound for a binomial proportion: the beta quantile at confidence."""
    _check_counts(successes, trials, confidence)
    if successes >= trials:
        return 1.0
    return _beta_quantile(successes + 1, trials - successes, 1.0 - confidence, upper=True)


def clopper_pearson_lower(successes: int, trials: int, confidence: float = 0.99) -> float:
    """One-sided lower confidence bound for a binomial proportion: the beta quantile at 1 - confidence."""
    _check_counts(successes, trials, confidence)
    if successes <= 0:
        return 0.0
    return _beta_quantile(successes, trials - successes + 1, 1.0 - confidence, upper=False)


def _beta_quantile(a: int, b: int, alpha: float, *, upper: bool) -> float:
    """With ``upper``, the smallest evaluated p whose computed 1 - I_p(a, b) is at most alpha, else
    the largest evaluated p whose computed I_p(a, b) is at most alpha: the conservative end of a
    closed bracket, searched from ``_beta_start``."""
    start = _beta_start(a, b, alpha, upper)
    return _beta_search(a, b, alpha, upper, start if 0.0 < start < 1.0 else a / (a + b))


def _beta_start(a: int, b: int, alpha: float, upper: bool) -> float:
    """AS109's first approximation to the quantile (Cran, Martin & Thomas 1977), from the normal
    quantile of its smaller tail probability: Abramowitz & Stegun 26.5.22 where both parameters
    exceed 1, else a Wilson-Hilferty chi-square form or the leading term of a far tail.  It
    saves the search about half its tail evaluations over a start at the mean."""
    tail = min(alpha, 1.0 - alpha)
    # with swap, the quantile of Beta(b, a) whose lower tail is the smaller one, reflected
    swap = upper == (tail == alpha)
    pp, qq = (b, a) if swap else (a, b)
    y = -NormalDist().inv_cdf(tail)  # P(Z > y) = tail, by AS241
    if pp > 1 and qq > 1:
        r = (y * y - 3.0) / 6.0
        s, t = 1.0 / (2 * pp - 1), 1.0 / (2 * qq - 1)
        h = 2.0 / (s + t)
        w = y * math.sqrt(h + r) / h - (t - s) * (r + 5.0 / 6.0 - 2.0 / (3.0 * h))
        x = pp / (pp + qq * math.exp(min(2.0 * w, 709.0)))
    else:
        log_beta = math.lgamma(pp) + math.lgamma(qq) - math.lgamma(pp + qq)
        ninth = 1.0 / (9.0 * qq)
        t = 2.0 * qq * (1.0 - ninth + y * math.sqrt(ninth)) ** 3
        if t <= 0.0:
            x = 1.0 - math.exp((math.log1p(-tail) + math.log(qq) + log_beta) / qq)
        else:
            t = (4.0 * pp + 2.0 * qq - 2.0) / t
            x = math.exp((math.log(tail * pp) + log_beta) / pp) if t <= 1.0 else 1.0 - 2.0 / (t + 1.0)
    return 1.0 - x if swap else x


def _beta_search(a: int, b: int, alpha: float, upper: bool, p: float) -> float:
    """``_beta_quantile`` from the start p in (0, 1).  Newton steps on the log tail (against log p
    for the lower tail) fall back to bisection outside the bracket and to one ulp where they stall."""
    lo, hi = 0.0, 1.0
    while True:
        lower_tail, upper_tail, density = _beta_tails(p, a, b)
        tail = upper_tail if upper else lower_tail
        lo, hi = (lo, p) if (tail <= alpha) == upper else (p, hi)
        if math.nextafter(lo, 1.0) >= hi:
            return hi if upper else lo
        if not (tail > 0.0 and density > 0.0):
            guess = lo
        elif upper:
            guess = p + math.log(tail / alpha) * tail / density
        else:
            guess = p * math.exp(min(math.log(alpha / tail) * tail / (p * density), 709.0))
        if guess == p:
            guess = math.nextafter(p, lo if p == hi else hi)
        p = guess if lo < guess < hi else 0.5 * (lo + hi)


def _beta_tails(x: float, a: int, b: int) -> tuple[float, float, float]:
    """(I_x(a, b), 1 - I_x(a, b), dI/dx), the smaller tail from its continued fraction.

    The prefactor x**a * y**b / B(a, b) is Stirling's form with Loader's deviance terms, so
    neither it nor the fraction forms 1 - x from a small x (TOMS 708's ``brcomp`` and ``bfrac``).
    """
    y, s = 1.0 - x, a + b
    stirling = _stirling_error(a) + _stirling_error(b) - _stirling_error(s)
    front = math.sqrt(a * b / s / (2.0 * math.pi)) * math.exp(
        -_deviance(a, x * s) - _deviance(b, y * s) - stirling
    )
    swap = x * s > a
    tail = front * (_beta_fraction(b, a, y, x) if swap else _beta_fraction(a, b, x, y))
    return (1.0 - tail, tail, front / (x * y)) if swap else (tail, 1.0 - tail, front / (x * y))


def _stirling_error(x: int) -> float:
    """log Gamma(x) - ((x - 1/2) * log(x) - x + log(2 pi) / 2), from its series from 15 on."""
    if x < 15:
        return math.lgamma(x) - ((x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi))
    r = 1.0 / (x * x)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / x


def _deviance(k: int, mean: float) -> float:
    """k * log(k / mean) + mean - k, near k == mean from its series in (k - mean) / (k + mean)."""
    d = k - mean
    if abs(d) >= 0.1 * (k + mean):
        return k * math.log(k / mean) - d
    v = d / (k + mean)
    total, term, odd = d * v, 2.0 * k * v, 3
    while True:
        term *= v * v
        grown = total + term / odd
        if grown == total:
            return total
        total, odd = grown, odd + 2


def _beta_fraction(a: int, b: int, x: float, y: float) -> float:
    """I_x(a, b) over its prefactor, for x * (a + b) <= a: the continued fraction of TOMS 708's ``bfrac``."""
    lam = a - (a + b) * x if x < y else (a + b) * y - b  # never 1 - small
    c, c0, c1 = lam + 1.0, b / a, 1.0 / a + 1.0
    p, s = 1.0, a + 1.0
    an, bn = 0.0, c1 / c  # the last two convergents' terms, scaled to a last denominator of 1
    r = bn
    for n in range(1, 10_000):
        t = n / a
        w = n * (b - n) * x
        alpha = p * (p + c0) * (a / s) ** 2 * (w * x)
        beta = n + w / s + (t + 1.0) / (c1 + t + t) * (c + n * (y + 1.0))
        p, s = t + 1.0, s + 2.0
        num, den = alpha * an + beta * r, alpha * bn + beta
        r0, r = r, num / den
        if abs(r - r0) <= 1e-16 * r:
            break
        an, bn = r0 / den, 1.0 / den
    return r


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


def check_tail_trials(support_size: int, trials: int) -> None:
    """Refuse, from the support size alone, the count matrix of a chunk of
    trials that ``simulate_tail`` would refuse: a caller can check an instance
    before building it."""
    _check_count_matrix(support_size, min(trials, _MC_CHUNK))


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

    Where the orbit table holds no more index cells than there are trials
    (``_orbit_table_fits(s, n, trials)``) the exceedance of each orbit of
    ``dist.orbits(n)`` is computed once, and trial j draws one orbit from the
    word of ``draw_words`` it owns, by the inverse CDF of the orbit weights.
    Above it, trial j draws its n support indices (``draw_index_trials``).
    """
    if trials < 1000:
        raise InvariantViolation("tail simulation needs at least 1000 trials")
    threshold = 2.0 * rademacher_value + epsilon
    _check_support_class(cls, dist)
    check_tail_trials(dist.size, trials)
    means = dist.expectation(cls.evals)

    if _orbit_table_fits(dist.size, n, trials):
        reps, orbits = dist.orbit_sampler(n)
        exceeds = np.concatenate(_run_chunks(
            lambda start, stop: _sample_deviations(cls, means, reps[start:stop]) >= threshold,
            len(reps), threads,
        ))

        def fill(start: int, stop: int) -> int:
            return int(np.count_nonzero(exceeds[orbits.draw_index_trials(seed, start, stop - start, 1)]))
    else:
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
