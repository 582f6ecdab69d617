#!/usr/bin/env python3
"""Sweep the entropy-integral bound over its radius and compare with the exact
without-abs complexity of a random class.

Writes a CSV curve (x = radius, value = bound) and prints a short table with
the minimizing radius for both cover methods, plus a VIOLATION line for each
radius whose bound falls below the complexity.
"""

import argparse

from genbound.cli import emit_curve
from genbound.entropy import CoverMethod, default_radii, verify_dudley
from genbound.instances import random_evaluated_class


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--m", type=int, default=8)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--points", type=int, default=24)
    parser.add_argument("--out", default="dudley_sweep.csv")
    args = parser.parse_args()

    cls = random_evaluated_class(args.seed, m=args.m, n=args.n)
    grid = default_radii(cls, args.points)

    rows = []
    for method in (CoverMethod.EXACT_MINIMAL, CoverMethod.GREEDY):
        report = verify_dudley(cls, grid, cover_method=method)
        print(f"cover={method.value:8s} lhs={report.without_abs:.6f} "
              f"best eps={report.best_epsilon:.6f}")
        for entry in report.entries:
            if not entry.passed:
                print(f"eps={entry.epsilon:.6f} bound={entry.bound:.6f} "
                      f"lhs={report.without_abs:.6f} VIOLATION")
        if method is CoverMethod.EXACT_MINIMAL:
            rows = [
                {
                    "kind": "dudley",
                    "x": entry.epsilon,
                    "value": entry.bound,
                    "method": method.value,
                    "seed": args.seed,
                    "slack": entry.slack,
                }
                for entry in report.entries
            ]
    emit_curve(rows, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
