import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from genbound.core import (
    DEFAULT_PRODUCT_CAP,
    DEFAULT_SIGN_CAP,
    ExactEnumerationLimit,
    InvariantViolation,
)

settings.register_profile(
    "ci", max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


# ---------------------------------------------------------------------------
# Independent oracles (pure python, fsum accumulation, no library code paths)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignAssignment:
    """One sign vector in {-1,+1}^n, encoded as an n-bit word (bit k set => +1)."""

    bits: int
    n: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.n):
            raise InvariantViolation(f"bit word {self.bits} out of range for n={self.n}")

    def vector(self) -> np.ndarray:
        k = np.arange(self.n)
        return np.where((self.bits >> k) & 1, 1, -1).astype(np.int64)


def enumerate_signs(n, *, cap=DEFAULT_SIGN_CAP):
    """All 2**n sign assignments in ascending bit-word order."""
    if n < 1:
        raise InvariantViolation("n must be at least 1")
    if n > cap:
        raise ExactEnumerationLimit(
            f"sign enumeration for n={n} exceeds the exact-enumeration cap of {cap}"
        )
    for word in range(1 << n):
        yield SignAssignment(word, n)


def enumerate_product(dist, n, *, cap=DEFAULT_PRODUCT_CAP):
    """All support-index tuples of the n-fold product measure with their weights.

    Tuples come in C order (last coordinate fastest); a weight is the product
    of its coordinate probabilities.  The tuple-by-tuple reference for every
    orbit sum of the library.
    """
    if n < 1:
        raise InvariantViolation("n must be at least 1")
    total = dist.size**n
    if total > cap:
        raise ExactEnumerationLimit(
            f"product enumeration needs {total} tuples, above the cap of {cap}"
        )
    probs = dist.probs
    for idx in itertools.product(range(dist.size), repeat=n):
        yield idx, float(math.prod(probs[k] for k in idx))


def unpack_signs(words, n):
    """(draws, n) signs in {-1.0, +1.0} of packed sign words, the packed-bit contract.

    Sign k of a draw is +1 when bit k % 64 of its word k // 64 is set, least
    significant bit first; the words are unpacked as little-endian bytes, so
    the signs do not depend on the platform.
    """
    octets = np.ascontiguousarray(words).astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little") * 2.0 - 1.0


def oracle_product_orbits(probs, n):
    """``(reps, weights)`` of the n-fold product, each multinomial from its runs in Python ints.

    The row-by-row form that ``core.product_orbits`` computes in one pass; it
    must give the same bits.
    """
    p = np.asarray(probs, dtype=np.float64)
    rows = list(itertools.combinations_with_replacement(range(p.shape[0]), n))

    def multinomial(row):
        # n! / prod_a c_a! as the number of ways to place each run in the positions left
        left, ways = n, 1
        for _, run in itertools.groupby(row):
            count = len(list(run))
            ways *= math.comb(left, count)
            left -= count
        return float(ways)

    reps = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    weights = np.array([multinomial(row) for row in rows]) * p[reps].prod(axis=1)
    return reps, weights


def oracle_orbit_draws(dist, n, seed, draws):
    """``(reps, orbit)``: the orbit representatives of the n-fold product and the orbit
    of each of ``draws`` draws, the plain inverse CDF of the orbit weights (normalized
    by their tree sum) at the one word each draw owns."""
    from genbound.core import deterministic_sum, draw_words, product_orbits, words_to_uniforms

    reps, weights = product_orbits(dist.probs, n)
    cumulative = np.cumsum(weights / deterministic_sum(weights))
    u = words_to_uniforms(draw_words(seed, 0, draws, 1)[:, 0])
    return reps, np.minimum(np.searchsorted(cumulative, u, side="right"), len(reps) - 1)


def oracle_sign_average(evals, absolute=True):
    """Brute-force sign average via itertools; the complexity oracle."""
    evals = np.asarray(evals, dtype=float)
    m, n = evals.shape
    sups = []
    for sigma in itertools.product((-1.0, 1.0), repeat=n):
        best = -math.inf
        for i in range(m):
            corr = math.fsum(s * e for s, e in zip(sigma, evals[i])) / n
            if absolute:
                corr = abs(corr)
            best = max(best, corr)
        sups.append(best)
    return math.fsum(sups) / len(sups)


def oracle_cover(dm, eps):
    """All-subsets minimal cover oracle: (size, lexicographically least centers)."""
    m = dm.shape[0]
    best_size = m + 1
    best_sets = []
    for mask in range(1, 1 << m):
        centers = [i for i in range(m) if (mask >> i) & 1]
        if len(centers) > best_size:
            continue
        if all(any(dm[i, c] <= eps for c in centers) for i in range(m)):
            if len(centers) < best_size:
                best_size = len(centers)
                best_sets = [tuple(centers)]
            elif len(centers) == best_size:
                best_sets.append(tuple(centers))
    return best_size, min(best_sets)


def oracle_distance_matrix(evals):
    evals = np.asarray(evals, dtype=float)
    m, n = evals.shape
    dm = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            dm[i, j] = math.sqrt(
                math.fsum((evals[i, k] - evals[j, k]) ** 2 for k in range(n)) / n
            )
    return dm


def oracle_uniform_deviation(evals, means):
    evals = np.asarray(evals, dtype=float)
    gaps = [
        abs(math.fsum(row) / len(row) - mu) for row, mu in zip(evals, means)
    ]
    return max(gaps)


def oracle_symmetrization(table, probs, n):
    """Exhaustive lhs and rhs of the paired-sample sign identity (fsum)."""
    table = np.asarray(table, dtype=float)
    probs = list(map(float, probs))
    s = len(probs)
    m = table.shape[0]
    lhs_terms, rhs_terms = [], []
    for first in itertools.product(range(s), repeat=n):
        for second in itertools.product(range(s), repeat=n):
            weight = math.prod(probs[k] for k in first) * math.prod(probs[k] for k in second)
            diffs = [[table[i, a] - table[i, b] for a, b in zip(first, second)] for i in range(m)]
            lhs_terms.append(weight * max(abs(math.fsum(d)) for d in diffs))
            inner = []
            for sigma in itertools.product((-1.0, 1.0), repeat=n):
                inner.append(
                    max(abs(math.fsum(sig * v for sig, v in zip(sigma, d))) for d in diffs)
                )
            rhs_terms.append(weight * math.fsum(inner) / len(inner))
    return math.fsum(lhs_terms), math.fsum(rhs_terms)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
