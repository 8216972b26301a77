"""Workload generators, baselines and the benchmark CLI.

Workloads produce lists of transactions (parsed rule lists plus their
key lock sets). Three executors share them:

  - serial: one transaction at a time against the committed state (the
    correctness oracle);
  - lock: two-phase row locking with ordered acquisition, threaded;
  - repair: the lock-free repair engine.

`--verify` compares each executor's final state hash and every
transaction's status against the serial oracle and names the first
divergence of each.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import Engine, EngineConfig
from .pstore import (
    DbVersion,
    PredicateSig,
    Schema,
    apply_deltas,
    export_snapshot,
    full_scan,
)
from .rulelang import parse_rules
from .txn import EVALUATED, PlanCache, TxnExec
from .values import INT64


@dataclass
class WorkloadConfig:
    name: str = "sku"
    n: int = 1000  # key-space size
    alpha: float = 1.0  # contention knob: each txn touches ~alpha*sqrt(n) keys
    txns: int = 64
    seed: int = 0
    variant: str = "shared"  # counter_chain: "shared" | "shift"


@dataclass
class Workload:
    schema: Schema
    db: DbVersion
    txns: list  # parsed rule lists
    locksets: list  # per txn: sorted tuple of (pred_id, key) it may touch


def state_hash(db: DbVersion, schema: Schema) -> str:
    return hashlib.sha256(export_snapshot(db, schema).encode()).hexdigest()


def _bump_rules(schema, pred, key, delta):
    return parse_rules(
        f"^{pred}[$k] = v <- v = {pred}@start[$k] + $d.",
        schema,
        params={"k": key, "d": delta},
    )


def gen_sku(cfg: WorkloadConfig) -> Workload:
    """Inventory adjustments: each transaction touches every sku
    independently with probability alpha/sqrt(n), so two transactions
    share alpha**2 skus in expectation."""
    if cfg.n < 1:
        raise ValueError(f"sku needs n >= 1 keys, got {cfg.n}")
    rng = np.random.default_rng(cfg.seed)
    schema = Schema.from_sigs([PredicateSig("inventory", 0, (INT64,), (INT64,))])
    db = apply_deltas(
        DbVersion(), schema, [((0, (s,)), (int(rng.integers(0, 1000)),)) for s in range(cfg.n)]
    )
    p = min(1.0, cfg.alpha / cfg.n**0.5)
    txns, locksets = [], []
    for _ in range(cfg.txns):
        count = int(rng.binomial(cfg.n, p))
        skus = sorted(int(s) for s in rng.choice(cfg.n, size=count, replace=False))
        rules = []
        for s in skus:
            d = int(rng.integers(-5, 6))
            rules.extend(_bump_rules(schema, "inventory", s, d))
        txns.append(rules)
        locksets.append(tuple((0, (s,)) for s in skus))
    return Workload(schema, db, txns, locksets)


def gen_counter_chain(cfg: WorkloadConfig) -> Workload:
    """k transactions forming one dependency chain."""
    if cfg.variant not in ("shared", "shift"):
        raise ValueError(f"counter_chain variant must be shared or shift, got {cfg.variant!r}")
    schema = Schema.from_sigs([PredicateSig("cnt", 0, (INT64,), (INT64,))])
    nkeys = 1 if cfg.variant == "shared" else cfg.txns
    db = apply_deltas(DbVersion(), schema, [((0, (k,)), (0,)) for k in range(nkeys)])
    txns, locksets = [], []
    for i in range(cfg.txns):
        if cfg.variant == "shared":
            txns.append(_bump_rules(schema, "cnt", 0, 1))
            locksets.append(((0, (0,)),))
        else:
            # txn i writes key i from key i-1: a shifting chain
            src = max(i - 1, 0)
            rules = parse_rules(
                "^cnt[$k] = v <- v = cnt@start[$s] + 1.",
                schema,
                params={"k": i, "s": src},
            )
            txns.append(rules)
            locksets.append(tuple(sorted({(0, (src,)), (0, (i,))})))
    return Workload(schema, db, txns, locksets)


def gen_random_rules(cfg: WorkloadConfig) -> Workload:
    """Mixed random transactions: bumps, guarded transfers, read-only
    probes over 1-4 predicates of cfg.n keys each."""
    import random

    if cfg.n < 2:
        raise ValueError(f"random_rules needs n >= 2 keys for a transfer pair, got {cfg.n}")
    rnd = random.Random(cfg.seed)
    npreds = rnd.randint(1, 4)
    nkeys = cfg.n
    sigs = [PredicateSig(f"p{i}", i, (INT64,), (INT64,)) for i in range(npreds)]
    schema = Schema.from_sigs(sigs)
    db = apply_deltas(
        DbVersion(),
        schema,
        [((s.pred_id, (k,)), (rnd.randrange(0, 100),)) for s in sigs for k in range(nkeys)],
    )
    txns, locksets = [], []
    for _ in range(cfg.txns):
        pred = rnd.choice(sigs).name
        pid = schema.sig(pred).pred_id
        kind = rnd.random()
        if kind < 0.4:
            k = rnd.randrange(nkeys)
            txns.append(_bump_rules(schema, pred, k, rnd.randrange(-20, 30)))
            locksets.append(((pid, (k,)),))
        elif kind < 0.8:
            a, b = rnd.sample(range(nkeys), 2)
            amt = rnd.randrange(0, 80)
            rules = parse_rules(
                f"""
^{pred}[$a] = x <- x = {pred}@start[$a] - $m.
^{pred}[$b] = y <- y = {pred}@start[$b] + $m.
false <- {pred}[$a] = v, v < 0.
""",
                schema,
                params={"a": a, "b": b, "m": amt},
            )
            txns.append(rules)
            locksets.append(tuple(sorted({(pid, (a,)), (pid, (b,))})))
        else:
            # read-only: derives a tuple, requests no changes
            k = rnd.randrange(nkeys)
            rules = parse_rules(
                f"probe(v) <- {pred}[$k] = v.", schema, params={"k": k}
            )
            txns.append(rules)
            locksets.append(((pid, (k,)),))
    return Workload(schema, db, txns, locksets)


GENERATORS = {
    "sku": gen_sku,
    "counter_chain": gen_counter_chain,
    "random_rules": gen_random_rules,
}


def make_workload(cfg: WorkloadConfig) -> Workload:
    return GENERATORS[cfg.name](cfg)


# ---- executors ----


@dataclass
class RunReport:
    mode: str
    db: DbVersion
    statuses: list
    seconds: float
    txn_refreshes: int = 0
    op_refreshes: int = 0

    def hash(self, schema) -> str:
        return state_hash(self.db, schema)


def run_serial(wl: Workload) -> RunReport:
    t0 = time.perf_counter()
    db = wl.db
    statuses = []
    plans = PlanCache()  # one per run, as an engine keeps one
    for i, rules in enumerate(wl.txns):
        txn = TxnExec(wl.schema, rules, txn_id=i, plans=plans)
        out = txn.evaluate(db)
        statuses.append(out.status)
        if out.status == EVALUATED:
            db = apply_deltas(db, wl.schema, out.deltas)
    return RunReport("serial", db, statuses, time.perf_counter() - t0,
                     txn_refreshes=len(wl.txns))


def run_lock(wl: Workload, workers: int = 1) -> RunReport:
    """Two-phase row locking over the workload's declared key sets.

    A worker takes the next transaction index and then that transaction's
    key locks, in global key order, all under one admission lock, so each
    key's lock goes to its transactions in admission order. A running
    transaction never takes the admission lock, so waiting for a key lock
    while holding it cannot deadlock. The committed state matches the
    serial oracle for workloads whose lock sets cover every key a
    transaction reads or writes. A transaction that raises stops the
    admissions, and the run re-raises the first exception. Each worker
    keeps one plan cache, since a cache is not for concurrent use.
    """
    if workers < 1:
        raise ValueError(f"worker count {workers} is below 1")
    t0 = time.perf_counter()
    locks = {}
    for ls in wl.locksets:
        for key in ls:
            locks.setdefault(key, threading.Lock())
    admit_lock = threading.Lock()
    state_lock = threading.Lock()
    shared = {"db": wl.db}
    statuses = [None] * len(wl.txns)
    next_txn = [0]
    errors: list = []

    def work():
        plans = PlanCache()
        while True:
            with admit_lock:
                i = next_txn[0]
                if i >= len(wl.txns) or errors:
                    return
                next_txn[0] += 1
                held = [locks[k] for k in wl.locksets[i]]
                for lk in held:
                    lk.acquire()
            try:
                with state_lock:
                    db = shared["db"]
                txn = TxnExec(wl.schema, wl.txns[i], txn_id=i, plans=plans)
                out = txn.evaluate(db)
                statuses[i] = out.status
                if out.status == EVALUATED:
                    with state_lock:
                        shared["db"] = apply_deltas(shared["db"], wl.schema, out.deltas)
            except BaseException as exc:
                errors.append(exc)
            finally:
                for lk in reversed(held):
                    lk.release()

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return RunReport("lock", shared["db"], statuses, time.perf_counter() - t0,
                     txn_refreshes=len(wl.txns))


def run_repair(wl: Workload, **config) -> RunReport:
    """One engine over the whole workload; `config` takes `EngineConfig`'s
    fields."""
    t0 = time.perf_counter()
    rep = Engine(wl.schema, wl.db, EngineConfig(**config)).run(wl.txns)
    return RunReport(
        "repair",
        rep.db,
        rep.statuses,
        time.perf_counter() - t0,
        txn_refreshes=rep.metrics.txn_refreshes,
        op_refreshes=rep.metrics.op_refreshes,
    )


def first_divergence(a: DbVersion, b: DbVersion, schema: Schema):
    sa = dict(((p, k), v) for p, k, v in full_scan(a, schema))
    sb = dict(((p, k), v) for p, k, v in full_scan(b, schema))
    for ident in sorted(set(sa) | set(sb)):
        if sa.get(ident) != sb.get(ident):
            return ident, sa.get(ident), sb.get(ident)
    return None


def first_status_divergence(want: list, got: list):
    """(index, wanted status, got status) of the first transaction whose
    status differs, or None; a missing status reads as None."""
    for i, (a, b) in enumerate(itertools.zip_longest(want, got)):
        if a != b:
            return i, a, b
    return None


# ---- CLI ----

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="txnrepair-bench",
                                 description="transaction repair benchmark")
    ap.add_argument("--workload", choices=sorted(GENERATORS), default="sku")
    ap.add_argument("--n", type=int, default=1000, help="key-space size")
    ap.add_argument("--alpha", type=float, default=1.0, help="contention knob")
    ap.add_argument("--txns", type=int, default=64)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--variant", default="shared", choices=["shared", "shift"],
                    help="counter_chain chain shape")
    ap.add_argument("--priority-mode", choices=["earliest", "inverted"], default="earliest")
    ap.add_argument("--height", type=int, default=5, help="circuit tree height")
    ap.add_argument("--modes", default="serial,lock,repair",
                    help="comma list of executors to run")
    ap.add_argument("--verify", action="store_true",
                    help="check repair result against the serial oracle")
    args = ap.parse_args(argv)
    if args.workers < 1:
        ap.error(f"worker count {args.workers} is below 1")
    if args.n < 1:
        ap.error(f"key-space size {args.n} is below 1")
    if not args.alpha >= 0:
        ap.error(f"contention knob {args.alpha} is not a number >= 0")
    if args.txns < 0:
        ap.error(f"transaction count {args.txns} is below 0")
    if args.height < 0:
        ap.error(f"tree height {args.height} is below 0")
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    unknown = [m for m in modes if m not in ("serial", "lock", "repair")]
    if unknown:
        ap.error(f"unknown mode {unknown[0]}")

    cfg = WorkloadConfig(name=args.workload, n=args.n, alpha=args.alpha,
                         txns=args.txns, seed=args.seed, variant=args.variant)
    wl = make_workload(cfg)

    if args.verify and "serial" not in modes:
        modes.insert(0, "serial")
    reports = {}
    for mode in modes:
        if mode == "serial":
            reports[mode] = run_serial(wl)
        elif mode == "lock":
            reports[mode] = run_lock(wl, workers=args.workers)
        else:
            reports[mode] = run_repair(wl, workers=args.workers, height=args.height,
                                       priority_mode=args.priority_mode)

    base = reports.get("serial")
    for mode, rep in reports.items():
        speedup = base.seconds / rep.seconds if base and rep.seconds > 0 else 0.0
        row = {
            "workload": f"{args.workload}:{mode}",
            "alpha": args.alpha,
            "workers": args.workers if mode != "serial" else 1,
            "txns": len(wl.txns),
            "seconds": round(rep.seconds, 6),
            "throughput": round(len(wl.txns) / rep.seconds, 3) if rep.seconds > 0 else 0.0,
            "speedup": round(speedup, 4),
            "txn_refreshes": rep.txn_refreshes,
            "op_refreshes": rep.op_refreshes,
        }
        print("  ".join(f"{k}={v}" for k, v in row.items()))

    rc = 0
    if args.verify:
        want = reports["serial"]
        for mode in ("repair", "lock"):
            rep = reports.get(mode)
            if rep is None:
                continue
            ok = True
            if rep.hash(wl.schema) != want.hash(wl.schema):
                div = first_divergence(want.db, rep.db, wl.schema)
                print(f"VERIFY FAILED ({mode}): first divergence {div}", file=sys.stderr)
                ok = False
            div = first_status_divergence(want.statuses, rep.statuses)
            if div is not None:
                i, a, b = div
                print(f"VERIFY FAILED ({mode}): transaction {i} status {b!r}, "
                      f"serial oracle {a!r}", file=sys.stderr)
                ok = False
            if ok:
                print(f"verify ok ({mode}): {rep.hash(wl.schema)[:16]}")
            else:
                rc = 1

    return rc


if __name__ == "__main__":
    raise SystemExit(main())
