#!/usr/bin/env python3
"""Contention statistic of the sku workload generator.

Each transaction touches every sku independently with probability
alpha/sqrt(n), so two transactions collide on alpha^2 skus in
expectation regardless of n. Prints the measured mean pairwise overlap.

Usage: python3 scripts/run_birthday_check.py [--n 10000] [--alpha 10]
"""

import argparse
from itertools import combinations

from txnrepair.bench import WorkloadConfig, gen_sku


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10000)
    ap.add_argument("--alpha", type=float, default=10.0)
    ap.add_argument("--txns", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = WorkloadConfig(name="sku", n=args.n, alpha=args.alpha,
                         txns=args.txns, seed=args.seed)
    key_sets = [set(s) for s in gen_sku(cfg).locksets]
    overlaps = [len(a & b) for a, b in combinations(key_sets, 2)]
    mean = sum(overlaps) / len(overlaps)
    print(f"n={args.n} alpha={args.alpha} txns={args.txns} "
          f"pairs={len(overlaps)} mean_common_skus={mean:.2f} "
          f"(expected {args.alpha**2:.1f})")


if __name__ == "__main__":
    main()
