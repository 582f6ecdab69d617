"""Core types, exact enumerators, deterministic reduction, and seeded RNG streams.

Everything downstream works on finite models: a function class restricted to a
sample is an m-by-n matrix of values plus an envelope bound, and data
distributions have finite support, so expectations over the sample measure and
its n-fold product are exactly computable.  Monte Carlo paths draw their
randomness from counter-based Philox streams in which draw ``j`` owns a fixed
window of words.  Results at a fixed seed therefore do not depend on
how work is chunked across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np
from numpy.random import Philox

DEFAULT_SIGN_CAP = 20       # exact sign enumeration up to 2**20 vectors
DEFAULT_PRODUCT_CAP = 10**6  # exact product-measure enumeration budget, in tuples
MAX_DRAW_ELEMENTS = 1 << 27  # values in one drawn batch: 1 GiB as float64

_U64 = np.uint64
_MAX_SEED = (1 << 64) - 1
_ENVELOPE_TOL = 1e-12
_GUIDE_BITS = 12  # a word's top bits index the guide table of DiscreteDistribution


class GenboundError(Exception):
    """Base class for library errors."""


class ExactEnumerationLimit(GenboundError):
    """An exact enumeration would exceed its configured cap."""


class DrawBudgetExceeded(GenboundError):
    """A batch of seeded draws would hold more than MAX_DRAW_ELEMENTS values."""


class InvariantViolation(GenboundError):
    """A structural invariant of an input failed."""


class InvalidEnvelope(GenboundError):
    """The envelope bound b must be strictly positive."""


class InvalidDelta(GenboundError):
    """The confidence parameter delta must lie in (0, 1)."""


class DimensionMismatch(GenboundError):
    """Vectors of unequal length or ragged point lists."""


class DegenerateClass(GenboundError):
    """All rows vanish on the sample; the empirical geometry is trivial."""


class InvalidRadius(GenboundError):
    """A radius parameter is outside its admissible range."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _as_point_array(points, what: str) -> np.ndarray:
    try:
        arr = np.array(points, dtype=np.float64)
    except ValueError as exc:
        raise DimensionMismatch(f"{what} must share one dimensionality: {exc}") from None
    if arr.ndim not in (1, 2):
        raise DimensionMismatch(f"{what} must be scalars or fixed-length vectors")
    if arr.shape[0] < 1:
        raise InvariantViolation(f"{what} must contain at least one point")
    return arr


@dataclass(frozen=True, eq=False)
class Sample:
    """An ordered sample of n data points with identical dimensionality."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_point_array(self.points, "sample points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite-support probability measure; expectations over it (and over its
    n-fold product) are exact sums."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = _as_point_array(self.support, "support points")
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.shape[0] != support.shape[0]:
            raise DimensionMismatch("probs must be a vector matching the support length")
        if np.any(probs < 0.0):
            raise InvariantViolation("probabilities must be nonnegative")
        total = float(deterministic_sum(probs))
        if abs(total - 1.0) > 1e-12:
            raise InvariantViolation(f"probabilities sum to {total!r}, not 1 within 1e-12")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        cumulative = np.cumsum(probs)
        cumulative.setflags(write=False)
        object.__setattr__(self, "_cumulative", cumulative)
        object.__setattr__(self, "_memo", {})  # orbit tables per n, built on first use

    @property
    def size(self) -> int:
        return self.support.shape[0]

    def expectation(self, values) -> float | np.ndarray:
        """Exact expectation of values given on the support (last axis)."""
        sums = _tree_sums(self.probs * np.asarray(values, dtype=np.float64))
        return float(sums) if sums.ndim == 0 else sums

    def orbits(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``product_orbits(self.probs, n)``, built once per n for the lifetime of this
        measure; both arrays are read-only."""
        key = ("orbits", n)
        if key not in self._memo:
            reps, weights = product_orbits(self.probs, n)
            reps.setflags(write=False)
            weights.setflags(write=False)
            self._memo[key] = reps, weights
        return self._memo[key]

    def orbit_sampler(self, n: int) -> tuple[np.ndarray, "DiscreteDistribution"]:
        """The representatives of ``orbits(n)`` and the law of a sample's orbit over
        their row indices, built once per n.  The weights are normalized: they sum to
        (sum of probs)**n, which may leave 1 by n times the tolerance of this measure."""
        key = ("sampler", n)
        if key not in self._memo:
            reps, weights = self.orbits(n)
            self._memo[key] = reps, DiscreteDistribution(np.arange(len(weights)), weights / deterministic_sum(weights))
        return self._memo[key]

    def draw_index_trials(self, seed: int, first_trial: int, count: int, n: int) -> np.ndarray:
        """(count, n) support indices; trial j consumes a fixed word window."""
        return self._indices(draw_words(seed, first_trial, count, n))

    def _indices(self, words: np.ndarray) -> np.ndarray:
        """Support index of each word: the inverse CDF at ``words_to_uniforms(words)``.

        A guide table over the top _GUIDE_BITS bits of a word (indexed search,
        Chen & Asau 1974) holds the index every uniform in that bucket maps to;
        only words in a bucket that contains a cumulative threshold are searched.
        The result equals the plain search bit for bit.
        """
        idx = self._guide.take((words >> _U64(64 - _GUIDE_BITS)).astype(np.intp))
        split = idx < 0
        if split.any():
            idx[split] = self._search(words_to_uniforms(words[split]))
        return idx

    def _search(self, u: np.ndarray) -> np.ndarray:
        return np.minimum(np.searchsorted(self._cumulative, u, side="right"), self.size - 1)

    @functools.cached_property
    def _guide(self) -> np.ndarray:
        """Per top-bits bucket, its one support index, or -1 where a threshold splits it.

        The search is monotone in the uniform, so a bucket maps to one index
        exactly when its smallest and largest uniforms do (``_GUIDE_EDGES``).
        """
        low = self._search(_GUIDE_EDGES[0])
        return np.where(low == self._search(_GUIDE_EDGES[1]), low, -1)


@dataclass(frozen=True, eq=False)
class EvaluatedClass:
    """A function class restricted to a sample: evals[i, k] = f_i(S_k).

    This matrix plus the envelope bound is the universal representation every
    complexity, deviation, and entropy computation works on.  Its population
    means belong to the data measure, which the checks that need them take.
    """

    evals: np.ndarray
    envelope_b: float
    _: KW_ONLY
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        evals = np.atleast_2d(np.array(self.evals, dtype=np.float64))
        evals.setflags(write=False)
        object.__setattr__(self, "evals", evals)
        object.__setattr__(self, "envelope_b", float(self.envelope_b))
        if validate:
            self._check()

    def _check(self) -> None:
        if self.evals.ndim != 2 or self.evals.shape[0] < 1 or self.evals.shape[1] < 1:
            raise InvariantViolation("evals must be a nonempty m-by-n matrix")
        if not np.all(np.isfinite(self.evals)):
            raise InvariantViolation("evals must be finite")
        if self.envelope_b < 0.0:
            raise InvariantViolation("envelope bound must be nonnegative")
        worst = float(np.abs(self.evals).max())
        if worst > self.envelope_b + _ENVELOPE_TOL:
            raise InvariantViolation(f"|evals| reaches {worst!r}, above envelope {self.envelope_b!r}")

    @property
    def m(self) -> int:
        return self.evals.shape[0]

    @property
    def n(self) -> int:
        return self.evals.shape[1]


# ---------------------------------------------------------------------------
# Product-measure orbits
# ---------------------------------------------------------------------------


def product_orbits(probs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutation orbits of the n-fold product of a probability vector.

    Returns ``(reps, weights)``.  Row j of the (K, n) index array ``reps`` is
    the sorted representative of orbit j, rows in lexicographic order, and
    ``weights[j] = n! / prod_a c_a! * prod_a p_a**c_a`` is the orbit's
    probability, where ``c`` counts each index in the row.  There are
    K = C(n + s - 1, s - 1) orbits for s = len(probs).  The expectation of any
    function of a sample that is invariant under permuting its coordinates is
    ``sum_j weights[j] * f(reps[j])``.
    """
    if n < 1:
        raise InvariantViolation("n must be at least 1")
    p = np.asarray(probs, dtype=np.float64)
    rows = list(itertools.combinations_with_replacement(range(p.shape[0]), n))
    reps = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    # n! / prod_a c_a! exactly, from the length of each run of equal indices: in
    # int64 while n! fits (n <= 20), in Python ints above, rounded to float once
    last = np.ones(reps.shape, dtype=bool)  # the last cell of each run
    last[:, :-1] = reps[:, 1:] != reps[:, :-1]
    # a row's last cell ends a run, so the gap to the run end before it holds across rows too
    ends = np.flatnonzero(last)
    lengths = ends - np.append(-1, ends[:-1])
    factorial = np.array([math.factorial(k) for k in range(n + 1)], dtype=np.int64 if n <= 20 else object)
    runs = last.sum(axis=1)
    ways = factorial[n] // np.multiply.reduceat(factorial[lengths], np.cumsum(runs) - runs)
    weights = ways.astype(np.float64) * p[reps].prod(axis=1)
    return reps, weights


# ---------------------------------------------------------------------------
# Deterministic reduction
# ---------------------------------------------------------------------------


def _tree_sums(arr: np.ndarray) -> np.ndarray:
    """Fixed-order pairwise (tree) sums along the last axis, one per row."""
    while arr.shape[-1] > 1:
        pairs = arr[..., :-1:2] + arr[..., 1::2]
        arr = np.concatenate([pairs, arr[..., -1:]], axis=-1) if arr.shape[-1] % 2 else pairs
    return arr[..., 0] if arr.shape[-1] else np.zeros(arr.shape[:-1])


def deterministic_sum(values) -> float:
    """Fixed-order pairwise (tree) summation.

    The tree shape depends only on the element count, so splitting the same
    ordered input into chunks, computing them anywhere, and re-joining them in
    index order before the sum reproduces the identical result bit for bit;
    reordering the input may change it.  Combining per-chunk tree sums by a
    further tree sum reproduces it only when every chunk is an aligned block
    of the same power-of-two length.
    """
    return float(_tree_sums(np.asarray(values, dtype=np.float64).ravel()))


# ---------------------------------------------------------------------------
# Seeded randomness contract
# ---------------------------------------------------------------------------


def _check_draw_budget(count: int, per_draw: int) -> None:
    """Refuse, before any word is drawn, a batch of ``count`` draws of ``per_draw``
    values each that holds more than MAX_DRAW_ELEMENTS values."""
    if count * per_draw > MAX_DRAW_ELEMENTS:
        raise DrawBudgetExceeded(
            f"a batch of {count} draws of {per_draw} values exceeds the budget of {MAX_DRAW_ELEMENTS} values"
        )


_THREAD = threading.local()


def _philox() -> Philox:
    """This thread's bit generator, which ``draw_words`` resets on every call.

    One per thread, built once from a fixed seed, so no call draws OS entropy
    for a ``SeedSequence`` and no call sees another thread's state.
    """
    gen = getattr(_THREAD, "philox", None)
    if gen is None:
        gen = _THREAD.philox = Philox(0)
    return gen


def draw_words(seed: int, first_draw: int, count: int, words_per_draw: int) -> np.ndarray:
    """Raw 64-bit words for draws [first_draw, first_draw + count).

    Draw j owns words [j * w, (j + 1) * w) of the ``Philox(key=seed)`` stream,
    for w = ``words_per_draw``, so the words backing draw j are a pure
    function of (seed, j) and any chunking of the draw range reproduces them
    exactly.  A call starts at counter block first_draw * w // 4 and skips the
    first first_draw * w % 4 words of that block, so it generates only the
    words its draws use and the rest of the blocks at its two ends.
    """
    if words_per_draw < 1:
        raise InvariantViolation("words_per_draw must be positive")
    _check_draw_budget(count, words_per_draw)
    if count <= 0:
        return np.empty((0, words_per_draw), dtype=_U64)
    if not 0 <= seed <= _MAX_SEED:
        raise InvariantViolation(f"seed must be an unsigned 64-bit integer, got {seed}")
    block, skip = divmod(first_draw * words_per_draw, 4)
    gen = _philox()
    # a fresh Philox(key=seed, counter=[block, 0, 0, 0]): empty buffer
    gen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (block, 0, 0, 0), "key": (seed, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.random_raw(skip + count * words_per_draw)[skip:].reshape(count, words_per_draw)


def words_to_uniforms(words: np.ndarray) -> np.ndarray:
    """53-bit uniforms in [0, 1)."""
    return (words >> _U64(11)).astype(np.float64) * 2.0**-53


# the smallest and the largest uniform of each guide-table bucket: its first and its last word
_GUIDE_EDGES = words_to_uniforms(
    (np.arange(1 << _GUIDE_BITS, dtype=_U64) << _U64(64 - _GUIDE_BITS))
    | np.array([[0], [(1 << (64 - _GUIDE_BITS)) - 1]], dtype=_U64)
)
_GUIDE_EDGES.setflags(write=False)


def words_to_signs(words: np.ndarray) -> np.ndarray:
    """Fair signs in {-1.0, +1.0} from the top bit, one sign per word."""
    return (words >> _U64(63)).astype(np.float64) * 2.0 - 1.0


def sign_block(n: int, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the 2**n-by-n sign matrix, in ascending bit-word order.

    The matrix is filled one bit at a time in (n, rows) orientation and returned
    as a transposed view, so ``sign_block(...).T`` is C-contiguous.  Bit b runs
    in alternating blocks of 2**b signs, -1 first: a range aligned to pairs of
    blocks is written block by block, a range inside one block is constant, and
    only other ranges read the bit off their words.
    """
    out = np.empty((n, stop - start))
    for bit, row in enumerate(out):
        run = 1 << bit
        if start % (2 * run) == 0 and row.size % (2 * run) == 0:
            runs = row.reshape(-1, 2, run)
            runs[:, 0] = -1.0
            runs[:, 1] = 1.0
        elif start // run == (stop - 1) // run:
            row[:] = 1.0 if start >> bit & 1 else -1.0
        else:
            row[:] = (np.arange(start, stop, dtype=_U64) >> _U64(bit) & _U64(1)) * 2.0 - 1.0
    return out.T


def derive_seed(seed: int, label: str) -> int:
    """A stable 64-bit sub-seed for an independent stream."""
    import hashlib

    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")
