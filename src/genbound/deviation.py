"""Uniform deviation and its exactly checkable properties.

The uniform deviation of a class on a sample is the largest gap between an
empirical mean and the population mean under the data measure P (``dist``):

    max_i | (1/n) * sum_k evals[i, k]  -  E_P f_i |

On finite data models three of its properties can be certified by sheer
enumeration: the sign-symmetrization identity for paired samples, the bound
E[deviation] <= 2 * expected complexity, and the 2b/n bounded-differences
property under single-coordinate replacement.  Every quantity involved is
invariant under permuting the sample, so each is enumerated over permutation
orbits of the product measure, with caps still counted in tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import _capped_orbits, _orbit_rademacher
from .core import (
    DEFAULT_PRODUCT_CAP,
    DEFAULT_SIGN_CAP,
    MAX_DRAW_ELEMENTS,
    DiscreteDistribution,
    EvaluatedClass,
    GenboundError,
    deterministic_sum,
)


def _sample_deviations(cls: EvaluatedClass, means: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Uniform deviation on each row of a (K, n) array of support indices.

    ``cls`` is the class on the whole support and ``means`` its population
    means.  A sample's empirical means are summed from its count vector in
    support order, elementwise: the result is the same for every permutation
    of a sample and for any position of it in ``samples``.  This costs
    K * s * m, not the K * n * m of gathering the columns: less while s < n.
    The (s, K) count matrix may hold at most MAX_DRAW_ELEMENTS values.
    """
    K, n = samples.shape
    s = cls.n
    _check_count_matrix(s, K)
    # counts[a, k]: how often sample k holds support point a
    cells = samples * K
    cells += np.arange(K, dtype=np.intp)[:, None]
    counts = np.bincount(cells.ravel(), minlength=s * K).reshape(s, K).astype(np.float64)
    gaps = np.multiply.outer(cls.evals[:, 0], counts[0])  # (m, K)
    term = np.empty_like(gaps)
    for a in range(1, s):
        gaps += np.multiply.outer(cls.evals[:, a], counts[a], out=term)
    gaps /= n
    gaps -= means[:, None]
    return np.abs(gaps, out=gaps).max(axis=0)


def _check_count_matrix(s: int, K: int) -> None:
    if s * K > MAX_DRAW_ELEMENTS:
        raise GenboundError(
            f"the count matrix of {K} samples on {s} support points holds {s} * {K} = {s * K} values, "
            f"above the budget of {MAX_DRAW_ELEMENTS}"
        )


@dataclass(frozen=True)
class DeviationAudit:
    """Outcome of the exhaustive single-coordinate perturbation audit."""

    max_observed_delta: float
    theoretical_cap: float  # 2b/n
    perturbations_checked: int
    passed: bool  # max_observed_delta <= theoretical_cap + 1e-12


def audit_bounded_difference(
    cls: EvaluatedClass,
    dist: DiscreteDistribution,
    n: int,
    *,
    cap: int = DEFAULT_PRODUCT_CAP,
) -> DeviationAudit:
    """Check |UD(S) - UD(S with one coordinate replaced)| <= 2b/n exhaustively.

    ``cls`` is the class on the whole support.  A sample and its replacement
    share the multiset d of their other n - 1 coordinates, so both are among
    the s extensions d + (r,), and the largest change over every sample,
    coordinate and replacement value is the largest spread max_r UD(d + r) -
    min_r UD(d + r) over all d.  Rounding is monotone, so that spread has the
    bits of the largest |difference| within its extensions.  The cap and
    ``perturbations_checked`` count the s**n * n * s replacements.  A violation
    is reported, not raised: it is exactly how an understated envelope surfaces.
    """
    s = dist.size
    reps, _weights = _capped_orbits(
        cls, dist, n, cap, "bounded-difference audit needs {} perturbations", per_tuple=n * s
    )
    # the sorted representatives that start with 0, less that 0, are every (n-1)-multiset d
    rest = reps[reps[:, 0] == 0, 1:]
    extensions = np.column_stack([np.repeat(rest, s, axis=0), np.tile(np.arange(s), len(rest))])
    deviations = _sample_deviations(cls, dist.expectation(cls.evals), extensions).reshape(-1, s)
    max_delta = float((deviations.max(axis=1) - deviations.min(axis=1)).max())
    theoretical_cap = 2.0 * cls.envelope_b / n
    return DeviationAudit(
        max_observed_delta=max_delta,
        theoretical_cap=theoretical_cap,
        perturbations_checked=s**n * n * s,
        passed=max_delta <= theoretical_cap + 1e-12,
    )


@dataclass(frozen=True)
class SymmetrizationReport:
    lhs: float
    rhs: float
    abs_diff: float
    passed: bool  # abs_diff <= tol


def check_symmetrization_identity(
    cls: EvaluatedClass,
    dist: DiscreteDistribution,
    n: int,
    *,
    tol: float = 1e-10,
    cap: int = DEFAULT_PRODUCT_CAP,
) -> SymmetrizationReport:
    """Exact two-sample symmetrization identity, by full enumeration.

    Over all paired samples (S, S') from the n-fold support and all 2**n sign
    vectors:

        E max_i |sum_k (f_i(S_k) - f_i(S'_k))|
          == E (1/2**n) sum_sigma max_i |sum_k sigma_k (f_i(S_k) - f_i(S'_k))|

    ``cls`` is the class on the whole support.  Both sides depend only on the
    multiset of pairs (S_k, S'_k), so they are summed over permutation orbits
    of the pair sequence, whose values range over the s**2 pairs; the right
    side is n times the expected complexity of the class of pair differences.
    The cap counts the s**(2n) * 2**n terms of the tuple enumeration.  The
    check passes when both sides agree within ``tol``.
    """
    s = dist.size
    reps, weights = _capped_orbits(
        cls, dist, n, cap, "symmetrization check needs {} enumerated terms", paired=True
    )
    table = cls.evals
    # pair value a * s + b stands for (S_k, S'_k) = (a, b)
    pair_diffs = (table[:, :, None] - table[:, None, :]).reshape(table.shape[0], s * s)
    lhs = deterministic_sum(weights * np.abs(pair_diffs[:, reps].sum(axis=2)).max(axis=0))
    # the cap already bounds the 2**n sign vectors, so no sign cap is tested
    rhs = n * _orbit_rademacher(pair_diffs, reps, weights)
    gap = abs(lhs - rhs)
    return SymmetrizationReport(lhs, rhs, gap, gap <= tol)


@dataclass(frozen=True)
class ExpectationBoundReport:
    expected_deviation: float
    twice_rademacher: float
    slack: float
    passed: bool  # expected_deviation <= twice_rademacher + tol


def verify_expectation_bound(
    cls: EvaluatedClass,
    dist: DiscreteDistribution,
    n: int,
    *,
    tol: float = 1e-10,
    product_cap: int = DEFAULT_PRODUCT_CAP,
    sign_cap: int = DEFAULT_SIGN_CAP,
) -> ExpectationBoundReport:
    """Certify E[uniform deviation] <= 2 * expected complexity, both sides exact.

    Both expectations are summed over the same permutation orbits of the
    samples, each read off ``cls``, the class on the whole support.
    """
    s = dist.size
    if s ** min(n, product_cap.bit_length()) <= product_cap:  # the product cap holds: budget the count matrix
        _check_count_matrix(s, math.comb(n + s - 1, s - 1))
    reps, weights = _capped_orbits(cls, dist, n, product_cap, sign_cap=sign_cap)
    lhs = deterministic_sum(weights * _sample_deviations(cls, dist.expectation(cls.evals), reps))
    rhs = 2.0 * _orbit_rademacher(cls.evals, reps, weights)
    return ExpectationBoundReport(lhs, rhs, rhs - lhs, lhs <= rhs + tol)
