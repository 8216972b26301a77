#!/usr/bin/env python3
"""Fingerprint the 1-worker refresh schedule of a checkout.

Imports `txnrepair` from ROOT/src and `perfbench.workloads.SPECS` from
ROOT, so the same script fingerprints any checkout (a clone of the parent
commit, say). For each workload and priority mode it runs the repair
engine at 1 worker and prints one line: the refresh count, the refresh
count of each operator kind (txn, dmerge, smerge, corr), the refreshes
of each kind that changed no output (`idle`), a hash of the ordered
(op_id, changed) refresh list, the join's seeks and bindings summed
over every transaction's `TxnExec.stats`, a hash of every sensitivity
entry the join recorded (`recorded`: each `(txn_id, group, vertex, lo,
hi, ctx)` handed to `TxnExec._record`, in order), the count of
transactions that committed and the committed state hash. Two checkouts
with the same schedule and results print the same lines; when a change
moves the schedule, the per-kind counts show which operators it moved,
and when it moves the join's work, the seek and binding counts and the
recorded hash show it.

With --against PARENT it fingerprints both checkouts, each in its own
subprocess, and prints per line `same` or each field that moved as
`field=parent->root`, then ROOT's `idle` counts unless they moved, so
idle traffic shows in every comparison. It exits 1 when a line's
`committed` or `state` differs, or the two checkouts print different
lines.

Usage: python3 scripts/schedule_fingerprint.py ROOT [--against PARENT]
           [--workloads a,b] [--txns N]
"""

import argparse
import hashlib
import os
import subprocess
import sys
from collections import Counter

# workload -> (seed, transactions)
RUNS = {"sku_sparse": (3, 64), "transfer_mix": (3, 64), "sku_dense": (3, 16)}
MODES = ("earliest", "inverted")
KINDS = ("txn", "dmerge", "smerge", "corr")


def fingerprint(name, seed, txns, mode):
    from perfbench.workloads import SPECS
    from txnrepair import bench, circuit, txn
    from txnrepair.txn import EVALUATED

    wl = SPECS[name].generate(seed, txns)
    log = []
    execs = []  # every TxnExec the run builds
    init = txn.TxnExec.__dict__["__init__"]

    def tracked_init(t, *args, **kwargs):
        init(t, *args, **kwargs)
        execs.append(t)

    recorded = hashlib.sha256()
    record = txn.TxnExec.__dict__["_record"]

    def tracked_record(t, group, entries):
        for e in entries:
            recorded.update(repr((t.txn_id, group, e.vertex, e.lo, e.hi, e.ctx)).encode())
        record(t, group, entries)

    originals = [(txn.TxnExec, "__init__", init), (txn.TxnExec, "_record", record)]
    txn.TxnExec.__init__ = tracked_init
    txn.TxnExec._record = tracked_record
    for cls in (circuit.DeltaMergeOp, circuit.SensMergeOp, circuit.CorrOp, circuit.TxnOp):
        def refresh(op, _fn=cls.__dict__["refresh"]):
            changed = _fn(op)
            log.append((op.op_id, bool(changed)))
            return changed

        originals.append((cls, "refresh", cls.__dict__["refresh"]))
        cls.refresh = refresh
    try:
        rep = bench.run_repair(wl, workers=1, priority_mode=mode)
    finally:
        for cls, attr, fn in originals:
            setattr(cls, attr, fn)
    schedule = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    committed = sum(1 for s in rep.statuses if s == EVALUATED)
    per_kind = Counter(op_id.split(":")[0] for op_id, _changed in log)
    kinds = " ".join(f"{k}={per_kind[k]}" for k in KINDS)
    idle = Counter(op_id.split(":")[0] for op_id, changed in log if not changed)
    kinds += " idle=" + ",".join(f"{k}:{idle[k]}" for k in KINDS)
    seeks = sum(t.stats.seeks for t in execs)
    bindings = sum(t.stats.bindings for t in execs)
    return (f"{name} seed={seed} txns={txns} {mode}: refreshes={len(log)} {kinds} "
            f"schedule={schedule} seeks={seeks} bindings={bindings} "
            f"recorded={recorded.hexdigest()[:16]} committed={committed} "
            f"state={rep.hash(wl.schema)[:16]}")


def _fields(line):
    """(label, {field: value}) of one fingerprint line."""
    label, _, rest = line.partition(": ")
    return label, dict(f.split("=", 1) for f in rest.split())


def compare(root, parent, passthrough):
    """Print how ROOT's fingerprint lines differ from PARENT's; returns
    the exit status."""
    def lines(checkout):
        cmd = [sys.executable, os.path.abspath(__file__), checkout, *passthrough]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        return dict(_fields(line) for line in out.splitlines())

    old, new = lines(parent), lines(root)
    status = 0
    if list(old) != list(new):
        print(f"lines differ: {parent} prints {list(old)}, {root} prints {list(new)}")
        return 1
    for label, was in old.items():
        now = new[label]
        moved = [f"{k}={was[k]}->{now[k]}" for k in was if was[k] != now[k]]
        idle = [f"idle={now['idle']}"] if was.get("idle", now["idle"]) == now["idle"] else []
        print(f"{label}: {' '.join(moved) or 'same'}", *idle, flush=True)
        if was["committed"] != now["committed"] or was["state"] != now["state"]:
            status = 1
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", help="checkout to fingerprint")
    ap.add_argument("--against", metavar="PARENT",
                    help="checkout to compare ROOT's fingerprint with")
    ap.add_argument("--workloads", default=",".join(RUNS),
                    help="comma-separated subset of " + ",".join(RUNS))
    ap.add_argument("--txns", type=int, help="override each workload's transaction count")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    if args.against:
        passthrough = ["--workloads", args.workloads]
        if args.txns:
            passthrough += ["--txns", str(args.txns)]
        return compare(root, os.path.abspath(args.against), passthrough)
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
