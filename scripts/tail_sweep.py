#!/usr/bin/env python3
"""Sweep the tail threshold and compare simulated exceedance frequencies with
the closed-form bound exp(-eps^2 n / (2 b^2)).

The complexity value is computed once by exact product-measure enumeration at
desk scale; each radius then gets a seeded simulation.
"""

import argparse

from genbound.cli import emit_curve
from genbound.complexity import expected_rademacher
from genbound.concentration import simulate_tail, verify_tail_bound
from genbound.core import derive_seed
from genbound.instances import random_discrete_instance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--support", type=int, default=3)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--points", type=int, default=12)
    parser.add_argument("--out", default="tail_sweep.csv")
    args = parser.parse_args()

    inst = random_discrete_instance(args.seed, m=args.m, support_size=args.support)
    rn = expected_rademacher(inst.support_class, inst.dist, args.n)
    print(f"expected complexity: {rn.value:.6f} ({rn.method.value})")

    rows = []
    for i in range(1, args.points + 1):
        eps = i / args.points
        experiment = simulate_tail(
            inst.support_class,
            inst.dist,
            args.n,
            eps,
            args.trials,
            derive_seed(args.seed, f"tail:{i}"),
            rn.value,
        )
        verdict = verify_tail_bound(experiment)
        rows.append(
            {
                "kind": "tail",
                "x": eps,
                "value": experiment.empirical_freq,
                "method": rn.method.value,
                "seed": experiment.seed,
                "theoretical": experiment.theoretical,
                "ci_upper": experiment.ci_upper,
            }
        )
        flag = "ok" if verdict.passed else "VIOLATION"
        print(f"eps={eps:.3f} freq={experiment.empirical_freq:.5f} "
              f"bound={experiment.theoretical:.5f} {flag}")
    emit_curve(rows, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
