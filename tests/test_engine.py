"""Engine scheduling: determinism, priority behaviour, epoch commit."""

import dataclasses
import random
import sys
import threading
from collections import Counter

import pytest

from txnrepair.bench import (
    Workload,
    WorkloadConfig,
    make_workload,
    run_repair,
    run_serial,
    state_hash,
)
from txnrepair.circuit import CorrOp, DeltaMergeOp, SensMergeOp, TxnOp, build_tree, wire_tree
from txnrepair.domain import build_decomposition
from txnrepair.engine import EARLIEST, FAR, INVERTED, Engine, EngineConfig, _op_priorities
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_lookup, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.txn import EVALUATED, FAILED, TxnExec
from txnrepair.values import INT64

SCHEMA = Schema.from_sigs([PredicateSig("cnt", 0, (INT64,), (INT64,))])


def bump(k, d=1):
    return parse_rules(
        "^cnt[$k] = v <- v = cnt@start[$k] + $d.", SCHEMA, params={"k": k, "d": d}
    )


def base_db(nkeys=1):
    db = DbVersion()
    for k in range(nkeys):
        db = store_upsert(db, SCHEMA.sig("cnt"), (k,), (0,))
    return db


def test_serial_chain_commits():
    eng = Engine(SCHEMA, base_db(), EngineConfig(height=3))
    rep = eng.run([bump(0) for _ in range(8)])
    assert rep.statuses == [EVALUATED] * 8
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (0,)) == (8,)


def test_multiple_epochs():
    eng = Engine(SCHEMA, base_db(), EngineConfig(height=2))
    rep = eng.run([bump(0) for _ in range(11)])  # 3 epochs at capacity 4
    assert eng.metrics.epochs == 3
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (0,)) == (11,)


def test_failed_txn_skipped():
    rules_ok = bump(0)
    rules_bad = parse_rules(
        "^cnt[$k] = v <- v = cnt@start[$k] - 5.\nfalse <- cnt[$k] = v, v < 0.",
        SCHEMA,
        params={"k": 0},
    )
    eng = Engine(SCHEMA, base_db(), EngineConfig(height=2))
    rep = eng.run([rules_ok, rules_bad, rules_ok])
    assert rep.statuses == [EVALUATED, FAILED, EVALUATED]
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (0,)) == (2,)
    assert eng.metrics.failed_txns == 1


def test_metrics_accumulate_across_runs():
    rules_bad = parse_rules(
        "^cnt[$k] = v <- v = cnt@start[$k] - 5.\nfalse <- cnt[$k] = v, v < 0.",
        SCHEMA,
        params={"k": 0},
    )
    eng = Engine(SCHEMA, base_db(), EngineConfig(height=2))
    eng.run([bump(0), rules_bad, bump(0)])
    rep = eng.run([rules_bad, bump(0)])
    assert rep.statuses == [FAILED, EVALUATED]
    assert (eng.metrics.txns, eng.metrics.failed_txns, eng.metrics.epochs) == (5, 2, 2)


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("workers", [0, 1, 2])  # 0: run_serial
def test_overflow_fails_and_commits_nothing(workers):
    db = store_upsert(base_db(2), SCHEMA.sig("cnt"), (1,), (INT64_MAX,))
    txns = [bump(1), bump(0)]
    if workers == 0:
        rep = run_serial(Workload(SCHEMA, db, txns, []))
    else:
        rep = Engine(SCHEMA, db, EngineConfig(workers=workers, height=1)).run(txns)
    assert rep.statuses == [FAILED, EVALUATED]
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (1,)) == (INT64_MAX,)
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (0,)) == (1,)


@pytest.mark.parametrize("workers", [1, 2])
def test_overflow_recovers_when_repaired_into_range(monkeypatch, workers):
    """T1 first evaluates against INT64_MAX and fails; the correction
    carrying T0's write brings its bump back into range."""
    db = store_upsert(base_db(2), SCHEMA.sig("cnt"), (1,), (INT64_MAX,))
    txns = [parse_rules("^cnt[1] = v <- v = 0.", SCHEMA), bump(1)]
    first = {}
    evaluate = TxnExec.evaluate

    def recording(txn, *args):
        out = evaluate(txn, *args)
        first[txn.txn_id] = out.status
        return out

    monkeypatch.setattr(TxnExec, "evaluate", recording)
    eng = Engine(SCHEMA, db, EngineConfig(workers=workers, height=1))
    rep = eng.run(txns)
    monkeypatch.setattr(TxnExec, "evaluate", evaluate)
    want = run_serial(Workload(SCHEMA, db, txns, []))
    assert rep.statuses == want.statuses == [EVALUATED, EVALUATED]
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (1,)) == (1,)
    assert state_hash(rep.db, SCHEMA) == want.hash(SCHEMA)
    if workers == 1:  # the earliest-first schedule evaluates T1 before correcting it
        assert first == {0: EVALUATED, 1: FAILED}
        assert eng.metrics.txn_refreshes == 3


def test_counter_chain_refresh_bounds():
    """Earliest-first settles each transaction at most twice; the
    inverted order cascades quadratically."""
    k = 16
    txns = [bump(0) for _ in range(k)]
    earliest = Engine(SCHEMA, base_db(), EngineConfig(height=4, priority_mode=EARLIEST))
    rep_e = earliest.run(txns)
    assert store_lookup(rep_e.db, SCHEMA.sig("cnt"), (0,)) == (k,)
    assert earliest.metrics.txn_refreshes <= 2 * k
    inverted = Engine(SCHEMA, base_db(), EngineConfig(height=4, priority_mode=INVERTED))
    rep_i = inverted.run(txns)
    assert store_lookup(rep_i.db, SCHEMA.sig("cnt"), (0,)) == (k,)
    assert inverted.metrics.txn_refreshes >= k * k // 4
    assert inverted.metrics.txn_refreshes > earliest.metrics.txn_refreshes


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_schedule_independence(workers):
    cfg = WorkloadConfig(name="random_rules", n=64, txns=16, seed=11)
    wl = make_workload(cfg)
    want = run_serial(wl)
    for ties in (False, True):
        eng = Engine(
            wl.schema,
            wl.db,
            EngineConfig(workers=workers, height=3, randomize_ties=ties, seed=5),
        )
        rep = eng.run(wl.txns)
        assert state_hash(rep.db, wl.schema) == want.hash(wl.schema)
        assert rep.statuses == want.statuses


def test_independent_txns_settle_once():
    db = base_db(nkeys=8)
    eng = Engine(SCHEMA, db, EngineConfig(height=3))
    rep = eng.run([bump(k) for k in range(8)])
    assert rep.statuses == [EVALUATED] * 8
    # disjoint keys: no repairs at all
    assert eng.metrics.txn_refreshes == 8


def test_empty_run():
    eng = Engine(SCHEMA, base_db(), EngineConfig(height=2))
    rep = eng.run([])
    assert rep.statuses == [] and rep.metrics.txns == 0


@pytest.mark.parametrize("mode", [EARLIEST, INVERTED])
@pytest.mark.parametrize("height", [1, 2, 3, 4, 5])
def test_priorities_solve_the_walk_equations(height, mode):
    """The closed-form (m, d) satisfies the equations of a walk over the
    wired circuit, at every fill of the tree. Merges over empty subtrees
    are never queued, so they are left out."""
    for n in range(1, 2**height + 1):
        root = build_tree(height)
        ops = list(wire_tree(root, build_decomposition([], height)))
        txn_ops = [TxnOp(leaf, DbVersion()) for leaf in list(root.leaves())[:n]]
        ops += txn_ops
        prio = _op_priorities(ops, height, n, mode)
        producer = {id(sig): op for op in ops for sig in op.output_signals}
        for i, op in enumerate(txn_ops):
            assert prio[op] == ((-i if mode == INVERTED else i), 0)
        for op in ops:
            if isinstance(op, TxnOp):
                continue
            if not isinstance(op, CorrOp) and int(op.node_label.ljust(height, "0"), 2) >= n:
                continue
            m, d = prio[op]
            producers = [producer[id(s)] for s in op.input_signals if id(s) in producer]
            assert d == max((prio[p][1] + 1 for p in producers), default=0), (n, op)
            if mode == EARLIEST:
                readers = [r for sig in op.output_signals for r in sig.readers]
                assert m == min((prio[r][0] for r in readers), default=FAR), (n, op)
            else:
                assert m == min((prio[p][0] for p in producers), default=0), (n, op)


@pytest.mark.parametrize("workers", [2, 4])
def test_refresh_metrics_count_every_refresh(monkeypatch, workers):
    """Refresh counters lose no increment to concurrent workers and keep
    accumulating across run() calls."""
    counts = Counter()
    lock = threading.Lock()
    for cls in (TxnOp, DeltaMergeOp, SensMergeOp, CorrOp):

        def counted(op, _refresh=cls.refresh):
            changed = _refresh(op)
            with lock:
                counts[op.kind] += 1
            return changed

        monkeypatch.setattr(cls, "refresh", counted)
    wl = make_workload(WorkloadConfig(name="random_rules", n=64, txns=32, seed=7))
    eng = Engine(wl.schema, wl.db, EngineConfig(workers=workers))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            eng.run(wl.txns)
    finally:
        sys.setswitchinterval(interval)
    assert eng.metrics.op_refreshes == sum(counts.values())
    assert eng.metrics.txn_refreshes == counts["txn"]


class Boom(RuntimeError):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_exception_keeps_last_committed_epoch(monkeypatch, workers):
    """A refresh that raises in the second of three epochs fails the run
    and leaves the first epoch committed; the engine stays usable."""
    wl = make_workload(WorkloadConfig(name="random_rules", n=64, txns=20, seed=3))
    failing, fresh = wl.txns[:12], wl.txns[12:]  # 3 epochs of 4, then 8 more
    refresh = TxnOp.refresh
    raised = []

    def flaky(op):
        if op.leaf.txn.txn_id == 6 and not raised:
            raised.append(op)
            raise Boom(op.op_id)
        return refresh(op)

    monkeypatch.setattr(TxnOp, "refresh", flaky)
    eng = Engine(wl.schema, wl.db, EngineConfig(workers=workers, height=2))
    with pytest.raises(Boom):
        eng.run(failing)
    first_epoch = run_serial(dataclasses.replace(wl, txns=wl.txns[:4]))
    assert state_hash(eng.db, wl.schema) == first_epoch.hash(wl.schema)

    monkeypatch.setattr(TxnOp, "refresh", refresh)
    rep = eng.run(fresh)
    want = run_serial(dataclasses.replace(wl, db=first_epoch.db, txns=fresh))
    assert state_hash(rep.db, wl.schema) == want.hash(wl.schema)
    assert rep.statuses == want.statuses
