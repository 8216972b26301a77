#!/usr/bin/env python3
"""Sweep the sku workload over worker counts and contention levels.

Writes one CSV row per (alpha, workers, mode). CPython threads share the
interpreter lock, so on any core count the repair engine runs one
refresh at a time and cannot show thread speedup; the sweep is still
useful for the refresh-count columns.

Usage: python3 scripts/run_speedup_sweep.py [--out sweep.csv] [--txns 64]
"""

import argparse
import sys

from txnrepair.bench import main as bench_main


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="sweep.csv")
    ap.add_argument("--txns", type=int, default=64)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rc = 0
    for alpha in (0.1, 1.0, 10.0):
        for workers in (1, 2, 4, 8):
            print(f"--- alpha={alpha} workers={workers}")
            rc |= bench_main([
                "--workload", "sku",
                "--n", str(args.n),
                "--alpha", str(alpha),
                "--txns", str(args.txns),
                "--workers", str(workers),
                "--seed", str(args.seed),
                "--csv", args.out,
                "--verify",
            ])
    print(f"wrote {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
