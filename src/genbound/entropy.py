"""Empirical pseudometric, covering numbers, and the entropy integral.

Rows of an evaluated class live in the sample-dependent pseudometric

    dist(f, g) = sqrt((1/n) * sum_k (f(S_k) - g(S_k))**2),

under which N(eps) is the least number of CLOSED balls of radius eps, centered
at rows of the class itself, that cover it.  The entropy integral bound reads

    without-abs complexity  <=  4*eps + (12 / sqrt(n)) * integral_eps^{c/2} sqrt(ln N(u)) du

with c the largest empirical row norm.  N is a nonincreasing step function of
the radius, constant between breakpoints, so both the default left-endpoint
upper Riemann sum and the optional exact breakpoint integration evaluate it
without approximating the covering numbers themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complexity import empirical_rademacher_without_abs
from .core import (
    DEFAULT_SIGN_CAP,
    MAX_DRAW_ELEMENTS,
    DegenerateClass,
    EvaluatedClass,
    ExactEnumerationLimit,
    GenboundError,
    InvalidRadius,
    InvariantViolation,
    deterministic_sum,
)

DEFAULT_COVER_CAP = 16  # exact minimal covers up to this many distinct rows
MAX_COVER_CAP = 20  # the subset table of 20 distinct rows takes 2**20 * 20 * 8 bytes, 168 MB
_DIFFERENCE_BLOCK = 1 << 22  # row differences per block of the distance matrix: 32 MB


class CoverMethod(str, Enum):
    EXACT_MINIMAL = "exact"
    GREEDY = "greedy"


def _distance_matrix(evals: np.ndarray) -> np.ndarray:
    """Pairwise empirical distances; the same bits as sqrt(mean(diff**2)), in place.

    The m x m matrix may hold at most MAX_DRAW_ELEMENTS values.  It is filled
    in blocks of rows with at most _DIFFERENCE_BLOCK differences, or of one
    row; each distance is reduced alone, so blocking changes no bit.
    """
    m, n = evals.shape
    if m * m > MAX_DRAW_ELEMENTS:
        raise GenboundError(
            f"the distance matrix of {m} rows holds {m}^2 = {m * m} values, "
            f"above the budget of {MAX_DRAW_ELEMENTS}"
        )
    dm = np.empty((m, m))
    step = max(1, _DIFFERENCE_BLOCK // (m * n))
    for start in range(0, m, step):
        diff = evals[start : start + step, None, :] - evals[None, :, :]
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=2, out=dm[start : start + step])
    dm /= n
    return np.sqrt(dm, out=dm)


def _dedup(dm: np.ndarray) -> np.ndarray:
    """Representatives (lowest index first) of the distance-zero classes: a row
    is kept unless it lies at distance zero from an earlier kept row."""
    earlier_zero = np.tril(dm == 0.0, -1)
    keep = ~earlier_zero.any(axis=1)
    for i in np.flatnonzero(~keep):
        keep[i] = not np.any(earlier_zero[i] & keep)
    return np.flatnonzero(keep)


def _distinct(cls: EvaluatedClass) -> tuple[np.ndarray, np.ndarray]:
    """(representative rows, their distance submatrix: ``dm`` itself if no row repeats)."""
    dm = _distance_matrix(cls.evals)
    reps = _dedup(dm)
    return reps, dm if reps.size == len(dm) else dm[np.ix_(reps, reps)]


def _check_cover_cap(reps: np.ndarray, cap: int) -> None:
    if reps.size > cap:
        raise ExactEnumerationLimit(
            f"{reps.size} distinct rows exceed the exact-cover cap of {cap}; use the greedy cover"
        )


@dataclass(frozen=True)
class CoverResult:
    """An internal cover: centers are row indices of the class itself."""

    radius: float
    size: int
    center_indices: tuple[int, ...]
    method: CoverMethod


def _subset_radii(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covering radius and size of every subset of the deduplicated rows.

    Bit b of a subset's index stands for row r-1-b, so among subsets of one
    size the largest index holds the lexicographically smallest rows.  The
    distances to each subset's nearest member fill a 2^r x r table one bit at
    a time, with min and max of existing distances only: 2^r * r * 8 bytes.
    """
    r = sub.shape[0]
    near = np.empty((1 << r, r))
    near[0] = np.inf
    sizes = np.zeros(1 << r, dtype=np.int8)
    for b in range(r):
        h = 1 << b
        np.minimum(near[:h], sub[r - 1 - b], out=near[h : 2 * h])
        np.add(sizes[:h], 1, out=sizes[h : 2 * h])
    return near.max(axis=1), sizes


def covering_number_exact(
    cls: EvaluatedClass, epsilon: float, *, cap: int = DEFAULT_COVER_CAP
) -> CoverResult:
    """Minimal internal cover by closed balls, found by subset enumeration.

    Duplicate rows (distance zero) are collapsed first; among all minimum-size
    covers the lexicographically smallest center set wins.
    """
    if epsilon <= 0.0:
        raise InvalidRadius("cover radius must be positive")
    reps, sub = _distinct(cls)
    _check_cover_cap(reps, cap)
    radius, sizes = _subset_radii(sub)
    fits = radius <= epsilon
    size = int(sizes[fits].min())
    mask = int(np.flatnonzero(fits & (sizes == size))[-1])
    # the r-digit binary form of a subset's index lists rows 0, 1, ..., r-1
    centers = tuple(int(reps[p]) for p, bit in enumerate(f"{mask:0{reps.size}b}") if bit == "1")
    return CoverResult(float(epsilon), size, centers, CoverMethod.EXACT_MINIMAL)


def _greedy_sequence(sub: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Farthest-point-first center order over deduplicated rows.

    Returns the center positions and the max-min coverage radius after each
    prefix; the chosen prefix for radius eps is the shortest one whose
    coverage radius is <= eps.  The order does not depend on the radius.
    """
    order = [0]
    nearest = sub[0].copy()
    radii = []
    while True:
        farthest = int(np.argmax(nearest))
        radius = float(nearest[farthest])
        radii.append(radius)
        if radius <= 0.0:
            break
        order.append(farthest)
        np.minimum(nearest, sub[farthest], out=nearest)
    return order, np.asarray(radii)


def covering_number_greedy(cls: EvaluatedClass, epsilon: float) -> CoverResult:
    """Farthest-point-first cover; always valid, size at least the minimum."""
    if epsilon <= 0.0:
        raise InvalidRadius("cover radius must be positive")
    reps, sub = _distinct(cls)
    order, radii = _greedy_sequence(sub)
    size = int(np.argmax(radii <= epsilon)) + 1
    centers = tuple(int(reps[p]) for p in order[:size])
    return CoverResult(float(epsilon), size, centers, CoverMethod.GREEDY)


@dataclass(frozen=True, eq=False)
class _CoverProfile:
    """N(u) as a step function: sizes[j] holds on [thresholds[j], thresholds[j+1])."""

    thresholds: np.ndarray  # ascending, starting at 0
    sizes: np.ndarray

    def size_at(self, radii) -> np.ndarray:
        idx = np.searchsorted(self.thresholds, np.asarray(radii, dtype=np.float64), side="right")
        return self.sizes[np.maximum(idx - 1, 0)]


def _cover_profile(cls: EvaluatedClass, method: CoverMethod, cap: int) -> _CoverProfile:
    reps, sub = _distinct(cls)
    if method is CoverMethod.EXACT_MINIMAL:
        _check_cover_cap(reps, cap)
        radius, sizes = _subset_radii(sub)
        # radii[k-1]: the least covering radius of k centers, nonincreasing in k
        radii = np.full(reps.size + 1, np.inf)
        np.minimum.at(radii, sizes, radius)
        radii = radii[1:]
        thresholds = np.unique(sub)
    else:
        _order, radii = _greedy_sequence(sub)
        thresholds = np.unique(np.concatenate([[0.0], radii]))
    # size at u is 1 + the number of radii still above u
    sizes = 1 + radii.size - np.searchsorted(np.sort(radii), thresholds, side="right")
    return _CoverProfile(thresholds, sizes)


# ---------------------------------------------------------------------------
# Entropy integral
# ---------------------------------------------------------------------------


def largest_norm(cls: EvaluatedClass) -> float:
    """c, the largest empirical row norm; a class whose rows all vanish has no scale."""
    c = float(np.sqrt(np.mean(cls.evals * cls.evals, axis=1)).max())
    if c <= 0.0:
        raise DegenerateClass("all rows vanish on the sample")
    return c


def default_radii(cls: EvaluatedClass, count: int) -> list[float]:
    """``count`` evenly spaced radii inside (0, c/2): (c/2) * i / (count + 1), i = 1..count."""
    c = largest_norm(cls)
    return [(c / 2.0) * i / (count + 1) for i in range(1, count + 1)]


@dataclass(frozen=True, eq=False)
class DudleyResult:
    bound: float
    epsilon: float
    c: float
    integral: float
    radii: np.ndarray  # left endpoints of the integration cells
    cover_sizes: np.ndarray
    cover_method: CoverMethod
    grid_points: int | None  # None means exact breakpoint integration


def _bound_from_profile(
    profile: _CoverProfile,
    c: float,
    n_sample: int,
    epsilon: float,
    method: CoverMethod,
    grid_points: int | None,
) -> DudleyResult:
    if not 0.0 < epsilon < c / 2.0:
        raise InvalidRadius(f"epsilon must lie in (0, {c / 2.0}), got {epsilon}")
    if grid_points is None:
        inner = [float(v) for v in profile.thresholds if epsilon < v < c / 2.0]
        knots = np.asarray([epsilon, *inner, c / 2.0])
        radii = knots[:-1]
        sizes = profile.size_at(radii)
        integral = deterministic_sum(np.sqrt(np.log(sizes)) * np.diff(knots))
    else:
        if grid_points < 1:
            raise InvariantViolation("grid_points must be at least 1")
        width = (c / 2.0 - epsilon) / grid_points
        radii = epsilon + width * np.arange(grid_points, dtype=np.float64)
        sizes = profile.size_at(radii)
        integral = deterministic_sum(np.sqrt(np.log(sizes))) * width
    bound = 4.0 * epsilon + (12.0 / math.sqrt(n_sample)) * integral
    return DudleyResult(bound, float(epsilon), c, integral, radii, sizes, method, grid_points)


def dudley_bound(
    cls: EvaluatedClass,
    epsilon: float,
    cover_method: CoverMethod | str = CoverMethod.EXACT_MINIMAL,
    *,
    grid_points: int | None = 256,
    cover_cap: int = DEFAULT_COVER_CAP,
) -> DudleyResult:
    """4*eps + (12/sqrt(n)) * integral of sqrt(ln N(u)) over [eps, c/2].

    The default scheme is a left-endpoint upper Riemann sum, an upper bound of
    the integral because the integrand is nonincreasing; ``grid_points=None``
    integrates the step function exactly at its breakpoints.  Greedy covers
    only enlarge N, so either way the returned value stays a valid bound.
    """
    method = CoverMethod(cover_method)
    c = largest_norm(cls)
    profile = _cover_profile(cls, method, cover_cap)
    return _bound_from_profile(profile, c, cls.n, float(epsilon), method, grid_points)


@dataclass(frozen=True)
class DudleyEntry:
    epsilon: float
    bound: float
    slack: float
    passed: bool  # the without-abs complexity <= bound + tol


@dataclass(frozen=True, eq=False)
class DudleyReport:
    without_abs: float
    entries: tuple[DudleyEntry, ...]
    best_epsilon: float
    cover_method: CoverMethod


def verify_dudley(
    cls: EvaluatedClass,
    epsilon_grid,
    *,
    cover_method: CoverMethod | str = CoverMethod.EXACT_MINIMAL,
    tol: float = 1e-10,
    grid_points: int | None = 256,
    sign_cap: int = DEFAULT_SIGN_CAP,
    cover_cap: int = DEFAULT_COVER_CAP,
) -> DudleyReport:
    """Certify the entropy integral bound at every admissible radius in the grid.

    Every radius gets an entry with its own verdict.  The covering-number step
    function is computed once and shared by the whole radius grid; its values
    are exactly those a direct cover evaluation gives.
    """
    method = CoverMethod(cover_method)
    lhs = empirical_rademacher_without_abs(cls, sign_cap=sign_cap).value
    c = largest_norm(cls)
    profile = _cover_profile(cls, method, cover_cap)
    entries = []
    for eps in epsilon_grid:
        bound = _bound_from_profile(profile, c, cls.n, float(eps), method, grid_points).bound
        entries.append(DudleyEntry(float(eps), bound, bound - lhs, lhs <= bound + tol))
    if not entries:
        raise InvalidRadius("epsilon grid is empty")
    best = min(entries, key=lambda e: e.bound)
    return DudleyReport(lhs, tuple(entries), best.epsilon, method)
