#!/usr/bin/env python3
"""Fingerprint the 1-worker refresh schedule of a checkout.

Imports `txnrepair` from ROOT/src and `perfbench.workloads.SPECS` from
ROOT, so the same script fingerprints any checkout (a clone of the parent
commit, say). For each workload and priority mode it runs the repair
engine at 1 worker and prints one line: the refresh count, the refresh
count of each operator kind (txn, dmerge, smerge, corr), a hash of the
ordered (op_id, changed) refresh list, the count of transactions that
committed and the committed state hash. Two checkouts with the same
schedule and results print the same lines; when a change moves the
schedule, the per-kind counts show which operators it moved.

Usage: python3 scripts/schedule_fingerprint.py ROOT [--workloads a,b] [--txns N]
"""

import argparse
import hashlib
import os
import sys
from collections import Counter

# workload -> (seed, transactions)
RUNS = {"sku_sparse": (3, 64), "transfer_mix": (3, 64), "sku_dense": (3, 16)}
MODES = ("earliest", "inverted")
KINDS = ("txn", "dmerge", "smerge", "corr")


def fingerprint(name, seed, txns, mode):
    from perfbench.workloads import SPECS
    from txnrepair import bench, circuit
    from txnrepair.txn import EVALUATED

    wl = SPECS[name].generate(seed, txns)
    log = []
    originals = []
    for cls in (circuit.DeltaMergeOp, circuit.SensMergeOp, circuit.CorrOp, circuit.TxnOp):
        def refresh(op, _fn=cls.__dict__["refresh"]):
            changed = _fn(op)
            log.append((op.op_id, bool(changed)))
            return changed

        originals.append((cls, cls.__dict__["refresh"]))
        cls.refresh = refresh
    try:
        rep = bench.run_repair(wl, workers=1, priority_mode=mode)
    finally:
        for cls, fn in originals:
            cls.refresh = fn
    schedule = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    committed = sum(1 for s in rep.statuses if s == EVALUATED)
    per_kind = Counter(op_id.split(":")[0] for op_id, _changed in log)
    kinds = " ".join(f"{k}={per_kind[k]}" for k in KINDS)
    return (f"{name} seed={seed} txns={txns} {mode}: refreshes={len(log)} {kinds} "
            f"schedule={schedule} committed={committed} "
            f"state={rep.hash(wl.schema)[:16]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", help="checkout to fingerprint")
    ap.add_argument("--workloads", default=",".join(RUNS),
                    help="comma-separated subset of " + ",".join(RUNS))
    ap.add_argument("--txns", type=int, help="override each workload's transaction count")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), root]
    import txnrepair

    if not os.path.abspath(txnrepair.__file__).startswith(root + os.sep):
        sys.exit(f"txnrepair imported from {txnrepair.__file__}, not from {root}")
    for name in args.workloads.split(","):
        seed, txns = RUNS[name]
        for mode in MODES:
            print(fingerprint(name, seed, args.txns or txns, mode), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
