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
    _tree_sums,
    deterministic_sum,
)

DEFAULT_COVER_CAP = 16  # exact minimal covers up to this many distinct rows
MAX_COVER_CAP = 20  # the subset table of 20 distinct rows takes 2**20 * 20 * 8 bytes, 168 MB
_DIFFERENCE_BLOCK = 1 << 17  # squared differences per block of the distance matrix: 1 MB
_PLANE_TERMS = 128  # widest class whose distances are summed across column planes
_GRID_BLOCK = 1 << 24  # Riemann cells per array of radii: 128 MB a temporary


class CoverMethod(str, Enum):
    EXACT_MINIMAL = "exact"
    GREEDY = "greedy"


def _sum_planes(terms: np.ndarray) -> np.ndarray:
    """terms[0] + ... + terms[-1], summed in place in the order numpy's add.reduce
    sums at most _PLANE_TERMS values.

    numpy sums fewer than 8 values in order; up to 128 values it keeps 8 lanes,
    lane j summing values j, j + 8, ..., combines them as ((0 + 1) + (2 + 3)) +
    ((4 + 5) + (6 + 7)) and adds the rest in order.  Each plane here is one
    value of many reductions at once.
    """
    count = len(terms)
    rest = 1
    if count >= 8:
        lanes = terms[:8]
        rest = count - count % 8
        for i in range(8, rest, 8):
            lanes += terms[i : i + 8]
        lanes[0::2] += lanes[1::2]
        lanes[0::4] += lanes[2::4]
        terms[0] += terms[4]
    for i in range(rest, count):
        terms[0] += terms[i]
    return terms[0]


def _distance_matrix(evals: np.ndarray) -> np.ndarray:
    """Pairwise empirical distances; the same bits as sqrt(mean(diff**2, axis=2)).

    The m x m matrix may hold at most MAX_DRAW_ELEMENTS values.  Its upper
    triangle is filled in blocks of rows, each with at most _DIFFERENCE_BLOCK
    squared differences, or of one row, and each block is mirrored below the
    diagonal: (x - y)**2 and (y - x)**2 are equal bit for bit.  Up to
    _PLANE_TERMS columns a block holds one plane of squared differences per
    column, summed across planes in numpy's order (``_sum_planes``; numpy
    starts from 0.0, and 0.0 + x is x for a square): n vector additions
    instead of one n-term reduction per distance.  Wider blocks are reduced
    by numpy itself.  Each distance is summed alone, so blocking changes no bit.
    """
    m, n = evals.shape
    if m * m > MAX_DRAW_ELEMENTS:
        raise GenboundError(
            f"the distance matrix of {m} rows holds {m}^2 = {m * m} values, "
            f"above the budget of {MAX_DRAW_ELEMENTS}"
        )
    dm = np.empty((m, m))
    columns = np.ascontiguousarray(evals.T) if n <= _PLANE_TERMS else None
    # one buffer serves every block: a block of one row holds n * m values at most
    buffer = np.empty(min(n * m * m, max(_DIFFERENCE_BLOCK, n * m)))
    start = 0
    while start < m:
        stop = min(m, start + max(1, _DIFFERENCE_BLOCK // (n * (m - start))))
        block = buffer[: n * (stop - start) * (m - start)]
        if columns is not None:
            terms = block.reshape(n, stop - start, m - start)
            np.subtract(columns[:, start:stop, None], columns[:, None, start:], out=terms)
            np.multiply(terms, terms, out=terms)
            sums = _sum_planes(terms)
        else:
            diff = block.reshape(stop - start, m - start, n)
            np.subtract(evals[start:stop, None, :], evals[None, start:, :], out=diff)
            np.multiply(diff, diff, out=diff)
            sums = np.add.reduce(diff, axis=2)
        np.divide(sums, n, out=dm[start:stop, start:])
        dm[stop:, start:stop] = dm[start:stop, stop:].T
        start = stop
    return np.sqrt(dm, out=dm)


def _dedup(dm: np.ndarray) -> np.ndarray:
    """Representatives (lowest index first) of the distance-zero classes: a row
    is kept unless it lies at distance zero from an earlier kept row."""
    zero = dm == 0.0
    if np.count_nonzero(zero) == len(dm):  # a finite class's diagonal is 0, and no other entry is
        return np.arange(len(dm))
    earlier_zero = np.tril(zero, -1)
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
        farthest = int(nearest.argmax())
        radius = nearest.item(farthest)
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
    """N(u) as a step function: sizes[j] holds on [thresholds[j], thresholds[j+1]),
    where the integrand sqrt(ln N) is roots[j], from libm (numpy's log loops depend on the CPU)."""

    thresholds: np.ndarray  # ascending, starting at 0
    sizes: np.ndarray

    def __post_init__(self):
        root = {k: math.sqrt(math.log(k)) for k in set(self.sizes.tolist())}
        object.__setattr__(self, "roots", np.array([root[k] for k in self.sizes.tolist()]))

    def step_at(self, radii) -> np.ndarray:
        return np.maximum(np.searchsorted(self.thresholds, np.asarray(radii, dtype=np.float64), side="right") - 1, 0)


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


def _check_radii(epsilons: list[float], c: float, grid_points: int | None) -> None:
    """Refuse an empty grid, a radius outside (0, c/2) or a grid of no cells."""
    if not epsilons:
        raise InvalidRadius("epsilon grid is empty")
    for epsilon in epsilons:
        if not 0.0 < epsilon < c / 2.0:
            raise InvalidRadius(f"epsilon must lie in (0, {c / 2.0}), got {epsilon}")
    if grid_points is not None and grid_points < 1:
        raise InvariantViolation("grid_points must be at least 1")


def _breakpoints(
    profile: _CoverProfile, c: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The step function's pieces on [eps, c/2]: left endpoints, N there, and the exact integral."""
    inner = [float(v) for v in profile.thresholds if epsilon < v < c / 2.0]
    knots = np.asarray([epsilon, *inner, c / 2.0])
    steps = profile.step_at(knots[:-1])
    return knots[:-1], profile.sizes[steps], deterministic_sum(profile.roots[steps] * np.diff(knots))


def _riemann(
    profile: _CoverProfile, c: float, eps: np.ndarray, grid_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-endpoint Riemann sums on [eps, c/2], one row per radius: cells, N there, integrals.

    Each row sum is the tree of ``deterministic_sum``, so a radius gets the
    bits of its grid alone, whichever radii share the array.
    """
    width = (c / 2.0 - eps) / grid_points
    grid = eps[:, None] + width[:, None] * np.arange(grid_points, dtype=np.float64)
    steps = profile.step_at(grid)
    return grid, profile.sizes[steps], _tree_sums(profile.roots[steps]) * width


def _integrals(
    profile: _CoverProfile, c: float, epsilons: list[float], grid_points: int | None
) -> np.ndarray:
    """The integral over [eps, c/2] of each radius.

    Breakpoint integration takes one radius at a time; Riemann grids are taken
    together, in arrays of at most _GRID_BLOCK cells or of one radius.
    """
    if grid_points is None:
        return np.asarray([_breakpoints(profile, c, eps)[2] for eps in epsilons])
    eps = np.asarray(epsilons)
    step = max(1, _GRID_BLOCK // grid_points)
    # only the integrals are kept, so one array of cells is alive at a time
    return np.concatenate(
        [_riemann(profile, c, eps[i : i + step], grid_points)[2] for i in range(0, eps.size, step)]
    )


def _bounds(integrals: np.ndarray, epsilons: list[float], n_sample: int) -> list[float]:
    """4*eps + (12/sqrt(n)) * integral, per radius."""
    return (4.0 * np.asarray(epsilons) + (12.0 / math.sqrt(n_sample)) * integrals).tolist()


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
    epsilons = [float(epsilon)]
    c = largest_norm(cls)
    _check_radii(epsilons, c, grid_points)
    profile = _cover_profile(cls, method, cover_cap)
    if grid_points is None:
        radii, sizes, integral = _breakpoints(profile, c, epsilons[0])
    else:
        grid, counts, integrals = _riemann(profile, c, np.asarray(epsilons), grid_points)
        radii, sizes, integral = grid[0], counts[0], float(integrals[0])
    bound = _bounds(np.asarray([integral]), epsilons, cls.n)[0]
    return DudleyResult(bound, epsilons[0], c, integral, radii, sizes, method, grid_points)


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

    Every radius gets an entry with its own verdict.  The radii are checked
    before any complexity or cover is computed.  The covering-number step
    function is computed once and shared by the whole radius grid; its values
    are exactly those a direct cover evaluation gives.
    """
    method = CoverMethod(cover_method)
    epsilons = [float(eps) for eps in epsilon_grid]
    c = largest_norm(cls)
    _check_radii(epsilons, c, grid_points)
    lhs = empirical_rademacher_without_abs(cls, sign_cap=sign_cap).value
    profile = _cover_profile(cls, method, cover_cap)
    bounds = _bounds(_integrals(profile, c, epsilons, grid_points), epsilons, cls.n)
    entries = [
        DudleyEntry(eps, bound, bound - lhs, lhs <= bound + tol)
        for eps, bound in zip(epsilons, bounds)
    ]
    best = min(entries, key=lambda e: e.bound)
    return DudleyReport(lhs, tuple(entries), best.epsilon, method)
