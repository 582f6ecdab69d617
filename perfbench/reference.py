"""Independent recomputation of exact report values from their definitions.

Plain numpy, no genbound code: the full sign matrix for empirical complexity,
tuple-by-tuple enumeration of the product measure for E[UD], the expected
complexity, the bounded-differences audit and the symmetrization identity,
and all-subsets minimal covers for the entropy integral.  Monte Carlo values
are not recomputed here; the runner checks them by thread-count invariance.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

TOL = 1e-9


def close(value, expected) -> bool:
    return abs(float(value) - float(expected)) <= TOL * max(1.0, abs(float(expected)))


@functools.lru_cache(maxsize=4)
def sign_matrix(n: int) -> np.ndarray:
    """All 2**n sign vectors as rows (shared; callers must not write to it)."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def sign_average(evals, absolute: bool = True) -> float:
    evals = np.asarray(evals, dtype=np.float64)
    corr = sign_matrix(evals.shape[1]) @ evals.T / evals.shape[1]
    if absolute:
        corr = np.abs(corr)
    return float(corr.max(axis=1).mean())


def _product(inst: dict, n: int):
    """Every support-index tuple with its weight and the class restricted to it."""
    table = np.asarray(inst["table"], dtype=np.float64)
    probs = np.asarray(inst["probs"], dtype=np.float64)
    s = table.shape[1]
    tuples = np.array(list(itertools.product(range(s), repeat=n)))
    weights = probs[tuples].prod(axis=1)
    evals = table[:, tuples].transpose(1, 0, 2)  # (tuples, m, n)
    return table, probs, tuples, weights, evals


def product_reference(inst: dict, n: int) -> dict:
    """E[UD], the expected complexity and the bounded-differences audit."""
    table, probs, tuples, weights, evals = _product(inst, n)
    s = table.shape[1]
    ud = np.abs(evals.mean(axis=2) - table @ probs).max(axis=1)
    corr = np.abs(np.einsum("qk,tmk->tqm", sign_matrix(n), evals)) / n
    rn = corr.max(axis=2).mean(axis=1)
    # tuples come in base-s order, so a tuple's code is its row in ud
    powers = s ** np.arange(n - 1, -1, -1)
    max_delta = 0.0
    for k in range(n):
        for r in range(s):
            other = tuples.copy()
            other[:, k] = r
            max_delta = max(max_delta, float(np.abs(ud - ud[other @ powers]).max()))
    return {
        "expected_deviation": float(weights @ ud),
        "expected_rademacher": float(weights @ rn),
        "max_delta": max_delta,
        "cap": 2.0 * float(inst["envelope_b"]) / n,
        "perturbations": len(tuples) * n * s,
    }


def symmetrization_reference(inst: dict, n: int) -> tuple[float, float]:
    """Both sides of the two-sample sign symmetrization identity."""
    _table, _probs, _tuples, weights, evals = _product(inst, n)
    diff = evals[:, None] - evals[None, :]  # (S, S', m, n)
    pair = weights[:, None] * weights[None, :]
    lhs = float((pair * np.abs(diff.sum(axis=3)).max(axis=2)).sum())
    corr = np.abs(np.einsum("qk,abmk->abqm", sign_matrix(n), diff))
    rhs = float((pair * corr.max(axis=3).mean(axis=2)).sum())
    return lhs, rhs


def _distance_matrix(evals: np.ndarray) -> np.ndarray:
    diff = evals[:, None, :] - evals[None, :, :]
    return np.sqrt((diff * diff).mean(axis=2))


def _distinct_rows(evals: np.ndarray) -> np.ndarray:
    _rows, first = np.unique(evals, axis=0, return_index=True)
    return evals[np.sort(first)]


def min_cover_size(within: np.ndarray) -> int:
    """Smallest set of centers whose closed balls cover every row, over all subsets."""
    r = within.shape[0]
    masks = (within.astype(np.int64) << np.arange(r, dtype=np.int64)).sum(axis=1)
    covered = np.zeros(1 << r, dtype=np.int64)
    sizes = np.zeros(1 << r, dtype=np.int64)
    for j in range(r):
        covered[1 << j : 2 << j] = covered[: 1 << j] | masks[j]
        sizes[1 << j : 2 << j] = sizes[: 1 << j] + 1
    return int(sizes[covered == (1 << r) - 1].min())


def _exact_cover_sizes(dm: np.ndarray):
    thresholds = np.unique(dm)
    sizes = np.array([min_cover_size(dm <= t) for t in thresholds])
    return lambda radii: sizes[np.searchsorted(thresholds, radii, side="right") - 1]


def _greedy_cover_sizes(dm: np.ndarray):
    nearest = dm[0].copy()
    radii = []
    while True:
        farthest = int(np.argmax(nearest))
        radii.append(float(nearest[farthest]))
        if radii[-1] <= 0.0:
            break
        nearest = np.minimum(nearest, dm[farthest])
    radii = np.asarray(radii)
    return lambda u: 1 + (radii[None, :] > np.asarray(u)[:, None]).sum(axis=1)


def dudley_reference(config: dict) -> tuple[float, list[tuple[float, float]]]:
    """Without-abs complexity and (epsilon, entropy bound) on the configured grid."""
    evals = np.asarray(config["class"]["evals"], dtype=np.float64)
    n = evals.shape[1]
    dm = _distance_matrix(_distinct_rows(evals))
    cover_size = (_exact_cover_sizes if config["cover"] == "exact" else _greedy_cover_sizes)(dm)
    c = float(np.sqrt((evals * evals).mean(axis=1)).max())
    count = config["epsilon_count"]
    grid = config["grid_points"]
    entries = []
    for i in range(1, count + 1):
        eps = (c / 2.0) * i / (count + 1)
        width = (c / 2.0 - eps) / grid
        radii = eps + width * np.arange(grid)
        integral = float(np.sqrt(np.log(cover_size(radii))).sum()) * width
        entries.append((eps, 4.0 * eps + (12.0 / math.sqrt(n)) * integral))
    return sign_average(evals, absolute=False), entries


def linear_bound(config: dict) -> float:
    n, d = config["n"], config["d"]
    bound = config["input_radius"] * config["weight_radius"] / math.sqrt(n)
    if config["regime"] == "l1":
        bound *= math.sqrt(2.0 * math.log(2.0 * d))
    return bound


class Checker:
    """Compares exact report values with the recomputations above."""

    def __init__(self):
        self._product = {}

    def _product_ref(self, inst: dict, n: int) -> dict:
        key = (json.dumps(inst, sort_keys=True), n)
        if key not in self._product:
            self._product[key] = product_reference(inst, n)
        return self._product[key]

    def check(self, command: str, config: dict, report: dict) -> list[str]:
        """Mismatches between one command's report and the definitions."""
        problems = []

        def expect(what, value, expected):
            if not close(value, expected):
                problems.append(f"{command} {what}: report {value!r}, reference {expected!r}")

        rows = report["results"]
        if command == "deviation":
            ref = self._product_ref(config["instance"], config["n"])
            bound, audit = rows
            expect("expected_deviation", bound["expected_deviation"], ref["expected_deviation"])
            expect("twice_rademacher", bound["twice_rademacher"], 2.0 * ref["expected_rademacher"])
            expect("max_observed_delta", audit["max_observed_delta"], ref["max_delta"])
            expect("theoretical_cap", audit["theoretical_cap"], ref["cap"])
            expect("perturbations_checked", audit["perturbations_checked"], ref["perturbations"])
        elif command == "symmetrize":
            lhs, rhs = symmetrization_reference(config["instance"], config["n"])
            expect("lhs", rows[0]["lhs"], lhs)
            expect("rhs", rows[0]["rhs"], rhs)
        elif command == "tail":
            n = config["n"]
            for row in rows:
                b = float(config["instance"]["envelope_b"])
                expect("theoretical", row["theoretical"], math.exp(-row["x"] ** 2 * n / (2 * b * b)))
                expect("value", row["value"], row["exceed_count"] / row["trials"])
                if row["method"] == "exact_enumeration":
                    ref = self._product_ref(config["instance"], n)
                    expect("rademacher_value", row["rademacher_value"], ref["expected_rademacher"])
        elif command == "rademacher":
            evals = config["class"]["evals"]
            row = rows[0]
            if row["method"] == "exact_enumeration":
                expect("value", row["value"], sign_average(evals))
                expect("without_abs", row["without_abs"], sign_average(evals, absolute=False))
        elif command == "dudley":
            lhs, entries = dudley_reference(config)
            if len(rows) != len(entries):
                problems.append(f"dudley: {len(rows)} rows, expected {len(entries)}")
            for row, (eps, bound) in zip(rows, entries):
                expect("lhs", row["lhs"], lhs)
                expect("x", row["x"], eps)
                expect(f"bound at {eps:.6g}", row["value"], bound)
        elif command == "linear":
            bound = linear_bound(config)
            if len(rows) != config["count"]:
                problems.append(f"linear: {len(rows)} rows, expected {config['count']}")
            for row in rows:
                expect("bound", row["bound"], bound)
                expect("slack", row["slack"], bound - row["value"])
                if not 0.0 <= row["value"] <= bound + TOL:
                    problems.append(f"linear value {row['value']!r} outside [0, {bound!r}]")
        return problems
