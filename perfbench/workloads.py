"""Certification request streams, one per workload.

A certification request is the fixed bundle of CLI commands a user runs to
certify one model.  Request ``i`` of a workload is a pure function of
``(workload, seed, i)``: its shape (class size, support size, sample size)
follows a fixed cycle of ``CYCLE`` positions, and every input value is drawn
from a generator seeded by ``(seed, workload, i)``.  Inputs go to the CLI
inline, so the program sees only the generated numbers; ``linear`` takes a
derived seed because it has no inline form.

The cycle has an odd length so that the median and the 90th percentile of a
run's request times fall inside one shape's cluster rather than on the gap
between two clusters, which keeps both steady from seed to seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("product-exact", "sample-exact", "monte-carlo")
CYCLE = 5
WARMUP_INDEX = 1 << 20  # request index reserved for warm-up requests

# product-exact: (m, s, n, n_sym); n is near the largest size whose bundle
# finishes in about 0.15 s on a 2-core x86 box.
PRODUCT_SHAPES = ((2, 2, 9, 4), (3, 3, 6, 3), (4, 2, 9, 4), (5, 3, 6, 3), (6, 2, 9, 4))
PRODUCT_TRIALS = 3000

# sample-exact: Rademacher sample size and class size, exact-cover rows and
# how many of them are distinct.
SAMPLE_RADEMACHER = ((14, 3), (15, 5), (16, 8), (16, 4), (17, 6))
SAMPLE_EXACT_COVER = ((10, 8), (12, 9), (14, 11), (11, 10), (13, 10))
DUDLEY_N = 8
GREEDY_ROWS = 300
EPSILON_COUNT = 16
GRID_POINTS = 256
LINEAR = {"d": 4, "n": 6, "m": 5, "count": 20, "weight_radius": 1.0, "input_radius": 1.0}

# monte-carlo: sizes just above the default caps (2**20 sign vectors, 10**6
# product tuples), plus one tail well inside them so that exact_share is
# never zero.
MC_RADEMACHER = ((21, 4), (32, 6), (40, 8), (48, 5), (64, 7))
MC_CLASS_M = (2, 3, 4, 5, 6)
MC_DRAWS = 20_000
MC_TAIL = (4, 10)  # s, n: 4**10 = 1,048,576 tuples, just above the product cap
MC_TAIL_DRAWS = 400
SMALL_TAIL = (3, 4)
MC_TRIALS = 30_000

_WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Command:
    name: str
    config: dict
    threads: int


@dataclass(frozen=True)
class Request:
    index: int
    commands: tuple[Command, ...]


def mc_threads() -> int:
    """Threads for the Monte Carlo workload: 2, but never more than the cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**63))


def _instance(rng, m: int, s: int) -> dict:
    support = np.sort(rng.uniform(-1.0, 1.0, s))
    probs = rng.uniform(0.1, 1.0, s)
    probs /= probs.sum()
    table = rng.uniform(-1.0, 1.0, (m, s))
    return {
        "table": table.tolist(),
        "support": support.tolist(),
        "probs": probs.tolist(),
        "envelope_b": 1.0,
    }


def _evals(rng, rows: int, n: int) -> dict:
    return {"evals": rng.uniform(-1.0, 1.0, (rows, n)).tolist(), "envelope_b": 1.0}


def _product_exact(rng, pos: int) -> tuple[Command, ...]:
    m, s, n, n_sym = PRODUCT_SHAPES[pos]
    inst = _instance(rng, m, s)
    tail = {
        "instance": inst,
        "n": n,
        "seed": _seed(rng),
        "trials": PRODUCT_TRIALS,
        "epsilon": float(rng.uniform(0.2, 0.6)),
    }
    return (
        Command("deviation", {"instance": inst, "n": n}, 1),
        Command("symmetrize", {"instance": inst, "n": n_sym}, 1),
        Command("tail", tail, 1),
    )


def _sample_exact(rng, pos: int) -> tuple[Command, ...]:
    n, m = SAMPLE_RADEMACHER[pos]
    rows, distinct = SAMPLE_EXACT_COVER[pos]
    base = rng.uniform(-1.0, 1.0, (distinct, DUDLEY_N))
    dup = base[rng.integers(0, distinct, rows - distinct)]
    cover_evals = np.vstack([base, dup])[rng.permutation(rows)]
    dudley = {"epsilon_count": EPSILON_COUNT, "grid_points": GRID_POINTS}
    linear_seed = _seed(rng)
    return (
        Command("rademacher", {"class": _evals(rng, m, n), "method": "auto"}, 1),
        Command(
            "dudley",
            {"class": {"evals": cover_evals.tolist(), "envelope_b": 1.0}, "cover": "exact", **dudley},
            1,
        ),
        Command(
            "dudley",
            {"class": _evals(rng, GREEDY_ROWS, DUDLEY_N), "cover": "greedy", **dudley},
            1,
        ),
        Command("linear", {"regime": "l1", "seed": linear_seed, **LINEAR}, 1),
        Command("linear", {"regime": "l2", "seed": linear_seed, **LINEAR}, 1),
    )


def _monte_carlo(rng, pos: int) -> tuple[Command, ...]:
    threads = mc_threads()
    n, m = MC_RADEMACHER[pos]
    s, tail_n = MC_TAIL
    small_s, small_n = SMALL_TAIL
    m_tail = MC_CLASS_M[pos]
    rademacher = {"class": _evals(rng, m, n), "method": "auto", "draws": MC_DRAWS, "seed": _seed(rng)}
    tail = {
        "instance": _instance(rng, m_tail, s),
        "n": tail_n,
        "seed": _seed(rng),
        "trials": MC_TRIALS,
        "epsilon": float(rng.uniform(0.2, 0.6)),
        "rademacher_draws": MC_TAIL_DRAWS,
    }
    small = {
        "instance": _instance(rng, m_tail, small_s),
        "n": small_n,
        "seed": _seed(rng),
        "trials": MC_TRIALS,
        "epsilon": float(rng.uniform(0.2, 0.6)),
    }
    return (
        Command("rademacher", rademacher, threads),
        Command("tail", tail, threads),
        Command("tail", small, threads),
    )


_BUILDERS = {
    "product-exact": _product_exact,
    "sample-exact": _sample_exact,
    "monte-carlo": _monte_carlo,
}


def make_request(workload: str, seed: int, index: int) -> Request:
    """Request ``index`` of the workload's stream for ``seed``."""
    rng = np.random.default_rng([seed, _WORKLOAD_IDS[workload], index])
    return Request(index, _BUILDERS[workload](rng, index % CYCLE))
