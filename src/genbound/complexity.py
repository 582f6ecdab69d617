"""Empirical and expected Rademacher complexity, exact and Monte Carlo.

The empirical quantity averages, over all 2**n sign vectors, the largest
(absolute) sign-weighted empirical mean any row attains:

    (1 / 2**n) * sum_sigma  max_i | (1/n) * sum_k sigma_k * evals[i, k] |

The expected quantity integrates it over the n-fold product of a finite data
measure.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from math import sqrt
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_PRODUCT_CAP,
    DEFAULT_SIGN_CAP,
    DimensionMismatch,
    DiscreteDistribution,
    EvaluatedClass,
    ExactEnumerationLimit,
    InvariantViolation,
    MAX_DRAW_ELEMENTS,
    _check_draw_budget,
    _tree_sums,
    derive_seed,
    deterministic_sum,
    draw_words,
    product_orbits,
)

# upper bounds of the caps a config may set
MAX_SIGN_CAP = 30  # 2**29 sign words: about 12 s for a class of 4 rows on a 2-vCPU x86-64 VM
MAX_PRODUCT_CAP = 10**7  # up to 5.0M orbits (s = 3,162, n = 2): about a minute and 580 MB

_SIGN_CHUNK = 1 << 14
_SIGNS = np.array([[-1.0], [1.0]])  # a doubling step's sign of the clear bit, then of the set bit
_MC_CHUNK = 1 << 13
_TABLE_VALUES = 1 << 17  # byte-table and build-buffer values alive at once in _sign_sums
_ORBIT_VALUES = 1 << 17  # term values alive at once in _orbit_sign_averages
_ORBIT_CELLS = 1 << 14  # index cells of the largest orbit table a draw takes its orbit from
_ORBIT_TERM_COST = 10  # sign rows the row kernel sums in the time the count kernel takes a term
_ORBIT_CALL_COST = 1 << 13  # sign rows in the time of the count kernel's fixed work per call
_INNER_DRAWS = 2000  # sign draws per sampled tuple above the sign cap


class Method(str, Enum):
    EXACT_ENUMERATION = "exact_enumeration"
    MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class ComplexityResult:
    """A complexity value with its provenance (exact enumeration or sampled)."""

    value: float
    method: Method
    draws: int = 0
    std_error: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.method is Method.EXACT_ENUMERATION and (
            self.draws != 0 or self.std_error != 0.0 or self.seed != 0
        ):
            raise InvariantViolation("exact results carry no draws, std_error, or seed")


def _check_sign_cap(n: int, sign_cap: int) -> None:
    if n > sign_cap:
        raise ExactEnumerationLimit(
            f"exact sign averaging for n={n} exceeds the exact-enumeration cap of {sign_cap}"
        )


def _sign_averages(stack: np.ndarray, sign_cap: int) -> np.ndarray:
    """Exact sign averages of every class in a (K, m, n) stack: rows (absolute, signed).

    Only the 2**(n-1) sign words with the top bit clear are enumerated: word
    2**(n-1) + w is the complement of word 2**(n-1) - 1 - w, so the correlations
    of the upper half are those of the lower half negated, in reverse order.
    The upper half's absolute values are then the lower half's reversed, and
    its signed ones, max_i -c_i = -min_i c_i, the lower half's minima negated
    and reversed.  A tree sum over a power-of-two length does not change under
    reversal, and the full tree's last addition is lower half + upper half, so
    the totals T_abs + T_abs and T_max + T_-min are the full enumeration's bits.

    A word's correlation adds its signed columns left to right from 0.0, with no
    BLAS call: one table per call sums the low bits (``_doubling_table``), and
    each block adds its constant high columns one by one, the top column last
    and subtracted.  Row i of every class forms one slab, so the max and min
    over the m slabs are elementwise;
    max_i |c_i| = max(max_i c_i, -min_i c_i).  Max and abs are exact and
    rounding is monotone, so maximizing before dividing by n changes no bit.
    A block holds at most _SIGN_CHUNK sign words times classes; tree sums of
    aligned power-of-two blocks combine into the tree sum over all words.  Block
    buffers of more than MAX_DRAW_ELEMENTS values each are refused before allocation.
    """
    K, m, n = stack.shape
    _check_sign_cap(n, sign_cap)
    half = 1 << (n - 1)
    rows = min(half, _SIGN_CHUNK)
    low = rows.bit_length() - 1  # bits that vary within a block
    per = _SIGN_CHUNK // rows  # classes per block
    if rows * m * min(per, K) > MAX_DRAW_ELEMENTS:
        block = f"a block of {rows} sign words over {m * min(per, K)} class rows"
        raise ExactEnumerationLimit(f"{block} exceeds the budget of {MAX_DRAW_ELEMENTS} values")
    # (T_abs, T_max, T_-min) of each class and block
    sums = np.empty((3, K, half // rows))
    for k in range(0, K, per):
        c = min(per, K - k)
        # -x and +x of column j of every class row, row i of each class in slab i: (n, 2, m * c)
        signed = np.multiply(stack[k : k + c].transpose(2, 1, 0).reshape(n, 1, m * c), _SIGNS, dtype=np.float64)
        table, work = _doubling_table(signed[:low], rows)
        for b in range(half // rows):
            corr = table
            # the high bits are constant within a block: those of b, whose top bit is clear
            for j in range(low, n - 1):
                corr = np.add(corr, signed[j, b >> (j - low) & 1, :, None], out=work)
            corr = np.add(corr, signed[n - 1, 0, :, None], out=work).reshape(m, c, rows)
            values = absolute, hi, neg_lo = np.empty((3, c, rows))
            corr.max(axis=0, out=hi)
            np.negative(corr.min(axis=0, out=neg_lo), out=neg_lo)
            np.maximum(neg_lo, hi, out=absolute)
            np.abs(absolute, out=absolute)  # a -0.0 maximum becomes +0.0, as with abs first
            values /= n
            sums[:, k : k + c, b] = _tree_sums(values)
    t_abs, t_max, t_neg_min = _tree_sums(sums)
    return np.stack([t_abs + t_abs, t_max + t_neg_min]) / (2 * half)


def _doubling_table(signed: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``(table, work)``: the (R, rows) sums of a (bits, 2, R) stack of -x and +x over
    the 2**bits = ``rows`` words, and a second buffer of that shape.

    Word w's sum adds the term of bit b of w for b = 0, 1, ... to a running sum
    from 0.0: each column doubles the table as [T - x_b, T + x_b], clear bit
    first, both halves in one call.  While the table has fewer words than the R
    rows it is word-major, so a step's inner loops run over the rows; it is then
    turned over once, and the later steps run over the words.
    """
    bits, _, width = signed.shape
    buffers = np.empty((2, rows * width))
    table = np.zeros((1, width))
    bit = 0
    while bit < bits and 1 << bit < width:
        out = buffers[bit & 1, : 2 * table.size].reshape(2, -1, width)
        table = np.add(table, signed[bit, :, None], out=out).reshape(-1, width)
        bit += 1
    turned = buffers[bit & 1, : table.size].reshape(width, -1)
    np.copyto(turned, table.T)
    table = turned
    for bit in range(bit, bits):
        out = buffers[(bit + 1) & 1, : 2 * table.size].reshape(width, 2, -1)
        table = np.add(table[:, None], signed[bit].T[:, :, None], out=out).reshape(width, -1)
    return table, buffers[(bits + 1) & 1].reshape(width, rows)


def _orbit_counts(reps: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray | None]:
    """``(counts, points)`` of each sorted representative in a (K, n) array of indices
    into s support points, as ``_orbit_sign_averages`` takes them.  Where s <= n, the
    (K, s) count vectors and None; else ``reps`` itself as the points, each run of
    equal indices counted at its first cell and the rest of it at count 0."""
    K, n = reps.shape
    if s <= n:
        cells = reps + np.arange(0, K * s, s)[:, None]
        return np.bincount(cells.ravel(), minlength=K * s).reshape(K, s), None
    starts = np.ones(reps.shape, dtype=bool)
    starts[:, 1:] = reps[:, 1:] != reps[:, :-1]
    first = np.flatnonzero(starts)  # every row starts a run, so a run ends where the next one starts
    counts = np.zeros(K * n, dtype=np.intp)
    counts[first] = np.append(first[1:], K * n) - first
    return counts.reshape(K, n), reps


def _orbit_sign_averages(table: np.ndarray, counts: np.ndarray, points: np.ndarray | None = None) -> np.ndarray:
    """Exact sign average of each orbit's class: the sample whose count vector is ``counts[k]``.

    ``table`` is the (m, s) class on the support.  Orbit k holds ``counts[k, a]``
    copies of support point ``points[k, a]``, where each row of ``points`` is
    nondecreasing and names each point of nonzero count once; without it,
    ``counts`` is (K, s) and slot a is point a.  The c_a equal columns of a point
    add (2 j_a - c_a) * table[:, a] for the C(c_a, j_a) sign vectors with j_a plus
    signs among them, so an orbit's average is

        sum_j prod_a C(c_a, j_a) * max_i |sum_a table[i, a] * (2 j_a - c_a)|  /  (n * 2**n)

    over the vectors j <= c in mixed-radix order, the first slot most significant,
    each inner sum taken over the slots in order.  The terms of j and c - j are
    equal.  With h the first slot of odd count, only j_h <= c_h / 2 is kept and each
    term's weight doubled, which keeps one term of each pair; where every count is
    even, h is the first slot of nonzero count and its middle slice j_h = c_h / 2
    keeps weight 1.  An orbit's kept terms are tree-summed on their own: a tree sum
    padded with trailing zeros has the bits of the unpadded one, so an orbit's value
    does not depend on the other orbits in the call.  Slots of count 0 add only
    zeros and change no bit, so every form of an orbit's counts gives its bits.  No
    BLAS call is made.  Blocks of orbits hold about _ORBIT_VALUES term values (at
    least one orbit), and no count may exceed MAX_SIGN_CAP.
    """
    counts = np.asarray(counts, dtype=np.intp)
    if points is None:
        points = np.broadcast_to(np.arange(counts.shape[1]), counts.shape)
    K = counts.shape[0]
    n = counts.sum(axis=1)
    _check_sign_cap(int(n.max()), MAX_SIGN_CAP)  # every weight is an integer below 2**n, exact as a float
    halved = np.zeros(counts.shape, dtype=np.intp)  # 1 at the first odd count, else at the first nonzero one
    halved[np.arange(K), (2 * (counts & 1) + (counts > 0)).argmax(axis=1)] = 1
    digits = counts + 1 - (counts + 1 >> 1) * halved  # the values of each kept j_a
    kept = digits.prod(axis=1)
    scale = np.ldexp(n.astype(np.float64), n)
    ends = np.cumsum(kept)
    budget = max(1, _ORBIT_VALUES // table.shape[0])
    sums = np.empty(K)
    start = 0
    while start < K:
        stop = max(start + 1, int(np.searchsorted(ends, (ends[start - 1] if start else 0) + budget, side="right")))
        block = slice(start, stop)
        sums[block] = _orbit_block(table, counts[block], points[block], halved[block], digits[block], kept[block])
        start = stop
    return sums / scale


def _term_weights(size: int) -> np.ndarray:
    """(2, size, size) weights of a term's digit j at a point of count c: [0, c, j] is
    C(c, j), and [1, c, j] the same doubled where j != c - j, for the point whose upper
    half of digits is dropped.  Pascal's rule adds integers below 2**size, exact floats."""
    binomial = np.zeros((size, size))
    binomial[:, 0] = 1.0
    for c in range(1, size):
        binomial[c, 1:] = binomial[c - 1, 1:] + binomial[c - 1, :-1]
    c, j = np.indices(binomial.shape)
    return np.stack([binomial, np.where(j + j == c, binomial, 2.0 * binomial)])


_WEIGHTS = _term_weights(MAX_SIGN_CAP + 1)
_WEIGHTS.setflags(write=False)


def _orbit_block(
    table: np.ndarray, counts: np.ndarray, points: np.ndarray, halved: np.ndarray, digits: np.ndarray,
    kept: np.ndarray,
) -> np.ndarray:
    """The weighted term sums of ``_orbit_sign_averages`` for one block of orbits, of
    (K, r) ``counts``, ``points``, ``halved`` flags and ``digits`` kept, kept[k] terms each."""
    K, r = counts.shape
    # one item per (point slot, orbit, kept digit j), slot-major: its weight and its column's term
    sizes = digits.T.ravel()
    first = np.cumsum(sizes) - sizes
    cell = np.repeat(np.arange(r * K), sizes)
    j = np.arange(len(cell)) - first[cell]
    c = counts.T.ravel()[cell]
    weight = _WEIGHTS[halved.T.ravel()[cell], c, j]
    terms = table.take(points.T.ravel()[cell], axis=1) * (j + j - c)
    # slot 0's items are each orbit's first terms; every later point follows each partial term with its items
    first, digits = first.reshape(r, K), digits.T.copy()
    width = int(first[1, 0]) if r > 1 else len(cell)
    sums, weights, orbit = terms[:, :width], weight[:width], cell[:width]
    for a in range(1, r):
        children = digits[a].take(orbit)
        offset = np.cumsum(children) - children
        item = np.repeat(first[a].take(orbit) - offset, children)
        item += np.arange(len(item))
        orbit = np.repeat(orbit, children)
        sums = np.repeat(sums, children, axis=1)
        sums += terms.take(item, axis=1)
        weights = np.repeat(weights, children)
        weights *= weight.take(item)
    np.abs(sums, out=sums)
    best = sums[0]
    for row in sums[1:]:
        np.maximum(best, row, out=best)
    best *= weights
    # orbit k's terms fill row k from its start; a power-of-two width makes each tree level one addition
    width = 1 << (int(kept.max()) - 1).bit_length()
    padded = np.zeros(K * width)
    padded.put(np.repeat(np.arange(0, K * width, width) - (np.cumsum(kept) - kept), kept) + np.arange(len(best)), best)
    return _tree_sums(padded.reshape(K, width))


def empirical_rademacher(
    cls: EvaluatedClass, *, sign_cap: int = DEFAULT_SIGN_CAP
) -> ComplexityResult:
    """Exact average over all sign vectors of max_i |(1/n) sum_k sigma_k f_i(S_k)|."""
    value = float(_sign_averages(cls.evals[None], sign_cap)[0, 0])
    return ComplexityResult(value, Method.EXACT_ENUMERATION)


def empirical_rademacher_without_abs(
    cls: EvaluatedClass, *, sign_cap: int = DEFAULT_SIGN_CAP
) -> ComplexityResult:
    """Same average with the absolute value dropped inside the maximum."""
    value = float(_sign_averages(cls.evals[None], sign_cap)[1, 0])
    return ComplexityResult(value, Method.EXACT_ENUMERATION)


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """One long-lived pool per worker count; its threads start on first use."""
    return ThreadPoolExecutor(max_workers=threads, thread_name_prefix="genbound")


def _run_chunks(fill: Callable[[int, int], object], total: int, threads: int) -> list:
    """fill(start, stop) over fixed-size index chunks, results in chunk order; the
    chunking never depends on the worker count, so outputs are identical for any ``threads``.

    Chunks run on a pool shared by every call with the same ``threads``, so
    consecutive calls reuse its worker threads.
    """
    ranges = [(s, min(s + _MC_CHUNK, total)) for s in range(0, total, _MC_CHUNK)]
    if threads <= 1 or len(ranges) == 1:
        return [fill(start, stop) for start, stop in ranges]
    return list(_pool(threads).map(lambda r: fill(*r), ranges))


def _mc_result(values: np.ndarray, draws: int, seed: int) -> ComplexityResult:
    value = deterministic_sum(values) / draws
    centered = values - value
    variance = deterministic_sum(centered * centered) / (draws - 1)
    return ComplexityResult(value, Method.MONTE_CARLO, draws, sqrt(variance / draws), seed)


def _mc_estimate(
    values_of: Callable[[int, int], np.ndarray], draws: int, seed: int, threads: int
) -> ComplexityResult:
    """The Monte Carlo estimate from per-draw values: ``values_of(start, stop)`` returns
    those of draws [start, stop) and runs once per fixed chunk (``_run_chunks``)."""
    if draws < 100:
        raise InvariantViolation("Monte Carlo estimation needs at least 100 draws")
    return _mc_result(np.concatenate(_run_chunks(values_of, draws, threads)), draws, seed)


def _sign_words(seed: int, first_draw: int, count: int, n: int) -> np.ndarray:
    """The packed signs of draws [first_draw, first_draw + count): ceil(n / 64) words each.

    Sign k of a draw is +1 when bit k % 64 of its word k // 64 is set, least
    significant bit first.  The draw budget counts the signs, not their words.
    """
    _check_draw_budget(count, n)
    return draw_words(seed, first_draw, count, -(-n // 64))


def _sign_sums(evals: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(m, draws) sums sum_k sigma_k evals[i, k] of each draw's packed signs (``_sign_words``).

    The words are read as little-endian bytes, so the sums do not depend on the
    platform.  A draw's sum is the rows of its bytes' tables added in byte
    order, with no float sign matrix and no BLAS call: a byte position's table
    sums its 8 columns left to right for each of the 256 byte values
    (``_doubling_table``).  Columns past n are zero, so the bits past sign n of
    the last byte select +0 or -0.  A block of rows and byte positions holds its
    tables and their second build buffer in at most _TABLE_VALUES values,
    whatever m and n are; the (m, draws) sums are under the draw budget.
    """
    m, n = evals.shape
    _check_draw_budget(len(words), m)
    width = -(-n // 8)
    octets = np.ascontiguousarray(words).astype("<u8", copy=False).view(np.uint8)
    index = octets[:, :width].T.astype(np.intp, order="C")  # (byte positions, draws)
    padded = np.zeros((m, 8 * width))
    padded[:, :n] = evals
    rows = min(m, _TABLE_VALUES // 512)
    span = _TABLE_VALUES // (512 * rows)  # byte positions per block: 256 table values a row, twice
    sums = np.empty((m, len(words)))
    term = np.empty((rows, len(words)))
    for i in range(0, m, rows):
        out = sums[i : i + rows]
        part = term[: len(out)]
        for b in range(0, width, span):
            block = padded[i : i + rows, 8 * b : 8 * (b + span)]
            # -x and +x of bit k of every byte position's rows, position-major: (8, 2, positions * rows)
            signed = np.multiply(block.reshape(len(block), -1, 8).T.reshape(8, 1, -1), _SIGNS)
            for position, table in enumerate(_doubling_table(signed, 256)[0].reshape(-1, len(block), 256), b):
                # every index is a byte, so "clip" clips none; unlike "raise", it writes to out unbuffered
                table.take(index[position], axis=1, out=part if position else out, mode="clip")
                if position:
                    out += part
    return sums


def _sign_draw_values(evals: np.ndarray, words: np.ndarray) -> np.ndarray:
    """max_i |(1/n) sum_k sigma_k evals[i, k]| for each draw's packed signs ``words``.

    The maximum is m elementwise passes over the rows of ``|sums|``: exact, and
    for classes of a few rows faster than reducing a short axis once per draw.
    """
    corr = _sign_sums(evals, words)
    corr /= evals.shape[1]
    np.abs(corr, out=corr)
    best = corr[0].copy()
    for row in corr[1:]:
        np.maximum(best, row, out=best)
    return best


def empirical_rademacher_mc(
    cls: EvaluatedClass, draws: int, seed: int, *, threads: int = 1
) -> ComplexityResult:
    """Unbiased sample mean over uniform sign draws, with its standard error.

    Draw j's signs are the packed bits of a fixed RNG word window
    (``_sign_words``), its value is summed from byte tables in a fixed order
    (``_sign_sums``), and per-draw values are reduced by the fixed-order tree
    sum, so the result is bit-identical for a given (seed, draws) at any
    thread count and on any BLAS.
    """
    return _mc_estimate(
        lambda start, stop: _sign_draw_values(cls.evals, _sign_words(seed, start, stop - start, cls.n)),
        draws, seed, threads,
    )


def check_mc_draws(m: int, n: int, draws: int, *, sign_cap: int | None = None) -> None:
    """Refuse, from the class shape alone, the chunk of signs or sums that
    ``empirical_rademacher_mc`` would refuse first, unless the exact kernel under
    ``sign_cap`` takes the class: a caller can check a class before building it."""
    if sign_cap is not None and n <= sign_cap and min(1 << (n - 1), _SIGN_CHUNK) * m <= MAX_DRAW_ELEMENTS:
        return
    chunk = min(draws, _MC_CHUNK)
    _check_draw_budget(chunk, n)
    _check_draw_budget(chunk, m)


def _check_support_class(cls: EvaluatedClass, dist: DiscreteDistribution) -> None:
    """Reject a class that is not on the whole support, one column per support point."""
    if cls.n != dist.size:
        raise DimensionMismatch(f"the support class has {cls.n} columns for {dist.size} support points")


def _orbit_table_fits(support_size: int, n: int, cells: int) -> bool:
    """Whether a draw takes its orbit from the C(n + s - 1, n) orbits of
    ``core.product_orbits``: they hold, at n index cells each, no more than the
    ``cells`` index cells the draws would take, nor more than _ORBIT_CELLS.
    C(n + s - 1, n) >= s, so s * n is tested first and no large binomial is ever formed."""
    cells = min(cells, _ORBIT_CELLS)
    return support_size * n <= cells and math.comb(n + support_size - 1, n) * n <= cells


def _capped_orbits(
    cls: EvaluatedClass, dist: DiscreteDistribution, n: int, cap: int,
    need: str = "product enumeration needs {} tuples", *, per_tuple: int = 1, paired: bool = False,
    sign_cap: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the n-fold product of ``dist``, for a check on its support class ``cls``.

    The cap counts the tuple enumeration the orbits replace: s**n tuples times
    ``per_tuple``, or with ``paired`` (orbits over the s**2 pair values of a
    two-sample check) s**(2n) pairs of tuples times their 2**n sign vectors.
    A check that takes each orbit's sign average passes its ``sign_cap``, which
    is tested after the product cap and before any orbit is built.
    """
    if n < 1:
        raise InvariantViolation("n must be at least 1")
    _check_support_class(cls, dist)
    base = dist.size * dist.size if paired else dist.size
    # any factor of 2**n or more exceeds the cap from n = cap.bit_length() on, so a large n
    # never builds the power; the message names the count in closed form, as its digits may not fit
    huge = (base > 1 or paired) and n >= cap.bit_length()
    if huge or base**n * per_tuple * (2**n if paired else 1) > cap:
        count = f"{base}^{n}" + (f" * {per_tuple}" if per_tuple > 1 else "") + (f" * 2^{n}" if paired else "")
        raise ExactEnumerationLimit(f"{need.format(count)}, above the cap of {cap}")
    if sign_cap is not None:
        _check_sign_cap(n, sign_cap)
    return product_orbits(np.outer(dist.probs, dist.probs).ravel(), n) if paired else dist.orbits(n)


def _orbit_averages(table: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Exact sign average of the class table[:, rep] of each sorted representative
    in a (K, n) array of indices into the s columns of ``table``.

    The C(n + s - 1, n) orbits of n points hold C(n + 2s - 1, n) count terms in all
    (a pair j, c - j is a composition of n into 2s parts), against 2**n sign rows
    each.  Where the rows cost more than the terms do in the count kernel
    ``_orbit_sign_averages`` (_ORBIT_TERM_COST rows a term, plus _ORBIT_CALL_COST),
    it averages each orbit's counts; elsewhere the row kernel ``_sign_averages``
    averages its gathered columns.  The choice depends on (s, n) alone, so an
    orbit's value does not depend on the orbits that share its call.
    """
    n, s = reps.shape[1], table.shape[1]
    terms = math.comb(n + 2 * s - 1, n)
    if _ORBIT_TERM_COST * terms + _ORBIT_CALL_COST <= math.comb(n + s - 1, n) << n:
        return _orbit_sign_averages(table, *_orbit_counts(reps, s))
    return _sign_averages(table[:, reps].transpose(1, 0, 2), n)[0]


def _orbit_rademacher(table: np.ndarray, reps: np.ndarray, weights: np.ndarray) -> float:
    """Weighted sum over orbits of the exact complexity of table[:, rep]."""
    return deterministic_sum(weights * _orbit_averages(table, reps))


def expected_rademacher(
    cls: EvaluatedClass,
    dist: DiscreteDistribution,
    n: int,
    *,
    product_cap: int = DEFAULT_PRODUCT_CAP,
    sign_cap: int = DEFAULT_SIGN_CAP,
) -> ComplexityResult:
    """Exact expectation of the empirical complexity under the product measure.

    ``cls`` is the class on the whole support (``DiscreteInstance.support_class``),
    and every sample's class is read off its columns.  The empirical complexity
    does not change when the sample is permuted, so the expectation is summed
    over permutation orbits with multinomial weights (``core.product_orbits``);
    ``product_cap`` still counts the s**n tuples.
    """
    reps, weights = _capped_orbits(cls, dist, n, product_cap, sign_cap=sign_cap)
    return ComplexityResult(
        _orbit_rademacher(cls.evals, reps, weights), Method.EXACT_ENUMERATION
    )


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` of a 2-D integer array.

    Rows come out in lexicographic order, and ``distinct[inverse]`` is ``rows``.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def expected_rademacher_mc(
    cls: EvaluatedClass,
    dist: DiscreteDistribution,
    n: int,
    draws: int,
    seed: int,
    *,
    threads: int = 1,
    sign_cap: int = DEFAULT_SIGN_CAP,
) -> ComplexityResult:
    """Mean empirical complexity over seeded i.i.d. samples of size n, with its standard error.

    ``cls`` is the class on the whole support (``DiscreteInstance.support_class``),
    and every sample's class is read off its columns; this is the estimate for
    n past ``expected_rademacher``'s caps.  The sign average of a sample depends
    only on its orbit.  Up to ``sign_cap``, where the orbit table holds no more
    index cells than the draws it replaces (``_orbit_table_fits(s, n, draws * n)``),
    draw j takes its orbit from the one word of ``draw_words`` it owns, by the
    inverse CDF of the orbit weights (``DiscreteDistribution.orbit_sampler``).
    Past the table budget draw j takes its n support indices, sorted into its
    orbit's representative.  Each distinct orbit of a chunk is averaged once by
    ``_orbit_averages``.  Past ``sign_cap``, a draw's value is the unbiased
    estimate from ``_INNER_DRAWS`` sign draws.
    """
    _check_support_class(cls, dist)
    if n <= sign_cap and _orbit_table_fits(dist.size, n, draws * n):
        reps, law = dist.orbit_sampler(n)

        def values_of(start: int, stop: int) -> np.ndarray:
            drawn, which = np.unique(law.draw_index_trials(seed, start, stop - start, 1)[:, 0], return_inverse=True)
            return _orbit_averages(cls.evals, reps[drawn])[which]
    else:
        def values_of(start: int, stop: int) -> np.ndarray:
            idx = dist.draw_index_trials(seed, start, stop - start, n)
            if n <= sign_cap:
                orbits, which = _distinct_rows(np.sort(idx, axis=1))
                return _orbit_averages(cls.evals, orbits)[which]
            # empirical_rademacher_mc's value from _INNER_DRAWS sign draws, which fit in one of its chunks
            return np.array([
                deterministic_sum(_sign_draw_values(
                    cls.evals[:, row], _sign_words(derive_seed(seed, f"inner:{start + j}"), 0, _INNER_DRAWS, n)
                )) / _INNER_DRAWS
                for j, row in enumerate(idx)
            ])

    return _mc_estimate(values_of, draws, seed, threads)


# ---------------------------------------------------------------------------
# Comparison of the two empirical variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WithoutAbsComparison:
    with_abs: float
    without_abs: float
    slack: float
    passed: bool  # without_abs <= with_abs + tol


def check_without_abs_le_abs(
    cls: EvaluatedClass, *, tol: float = 1e-12, sign_cap: int = DEFAULT_SIGN_CAP
) -> WithoutAbsComparison:
    """Certify that dropping the absolute value never increases the complexity."""
    with_abs, without = _sign_averages(cls.evals[None], sign_cap)[:, 0].tolist()
    return WithoutAbsComparison(with_abs, without, with_abs - without, without <= with_abs + tol)
