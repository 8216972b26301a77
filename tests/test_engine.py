"""Engine scheduling: determinism, priority behaviour, epoch commit."""

import dataclasses
import gc
import random
import sys
import threading
import weakref
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
from txnrepair import engine
from txnrepair.engine import EARLIEST, FAR, INVERTED, Engine, EngineConfig, _op_priorities
from txnrepair.pstore import (
    DbVersion,
    PredicateSig,
    Schema,
    full_scan,
    store_lookup,
    store_upsert,
)
from txnrepair.rulelang import parse_rules
from txnrepair.txn import EVALUATED, FAILED, TxnExec
from txnrepair.values import INT64, SchemaError

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


@pytest.mark.parametrize("workers", [1, 2])
def test_all_failed_epoch_commits_no_records(monkeypatch, workers):
    """The epoch commits its root's delta merge in one call, also when
    every transaction failed and that merge holds nothing."""
    calls = []
    commit = engine.apply_deltas
    monkeypatch.setattr(
        engine, "apply_deltas",
        lambda db, schema, records: calls.append(list(records)) or commit(db, schema, records),
    )
    overdraw = [parse_rules(
        "^cnt[$k] = v <- v = cnt@start[$k] - 5.\nfalse <- cnt[$k] = v, v < 0.",
        SCHEMA,
        params={"k": k},
    ) for k in (0, 1, 0)]
    db = base_db(nkeys=2)
    eng = Engine(SCHEMA, db, EngineConfig(workers=workers, height=2))
    rep = eng.run(overdraw)
    assert rep.statuses == [FAILED] * 3
    assert calls == [[]]
    assert list(full_scan(eng.db, SCHEMA)) == list(full_scan(db, SCHEMA))


def test_read_of_undefined_predicate_fails_the_run_before_commit():
    undefined = parse_rules("^cnt[k] = v <- q(k), v = cnt@start[k] + 1.", SCHEMA)
    eng = Engine(SCHEMA, base_db(), EngineConfig(height=2))
    before = eng.db
    with pytest.raises(SchemaError, match="q is neither"):
        eng.run([bump(0), undefined, bump(0)])
    assert eng.db is before


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


def test_empty_run(monkeypatch):
    """No transactions run no epoch: no scan, no circuit, no commit."""
    def no_scan(*args):
        raise AssertionError("full_scan called")

    monkeypatch.setattr(engine, "full_scan", no_scan)
    eng = Engine(SCHEMA, base_db(), EngineConfig(height=2))
    db = eng.db
    rep = eng.run([])
    assert rep.statuses == [] and rep.metrics.txns == 0
    assert rep.metrics.epochs == 0 and eng.db is db


def _count_scans(monkeypatch):
    calls = []
    scan = engine.full_scan

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(engine, "full_scan", counted)
    return calls


def test_value_only_epochs_scan_once(monkeypatch):
    """Epochs that only change values keep the key set, so the pass
    scans the store once, on its first epoch."""
    scans = _count_scans(monkeypatch)
    wl = make_workload(WorkloadConfig(name="random_rules", n=64, txns=20, seed=3))
    eng = Engine(wl.schema, wl.db, EngineConfig(height=2))
    for lo in (0, 12):  # two run() calls, 5 epochs
        eng.run(wl.txns[lo : lo + 12])
    assert eng.metrics.epochs == 5
    assert len(scans) == 1


def test_new_key_triggers_rescan(monkeypatch):
    scans = _count_scans(monkeypatch)
    insert = parse_rules("^cnt[5] = v <- v = 0.", SCHEMA)
    eng = Engine(SCHEMA, base_db(), EngineConfig(height=2))
    rep = eng.run([bump(0)] * 4 + [bump(0), insert] + [bump(0)] * 4)
    assert eng.metrics.epochs == 3
    # the epoch after the insert sees a grown store; the one before does not
    assert len(scans) == 2
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (5,)) == (0,)
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (0,)) == (9,)


@pytest.mark.parametrize("seed", range(6))
def test_reused_decomposition_equals_a_fresh_one(monkeypatch, seed):
    """Whatever each epoch inserts or bumps, the decomposition an epoch
    wires equals the one a fresh scan of its base store builds."""
    rnd = random.Random(seed)
    wired = []
    wire = engine.wire_tree

    def capture(root, decomp):
        wired.append((decomp, eng.db))
        return wire(root, decomp)

    monkeypatch.setattr(engine, "wire_tree", capture)
    eng = Engine(SCHEMA, base_db(nkeys=4), EngineConfig(height=2))
    for _ in range(4):
        txns = [
            parse_rules(f"^cnt[{rnd.randrange(40)}] = v <- v = 1.", SCHEMA)
            if rnd.random() < 0.2 else bump(rnd.randrange(4))
            for _ in range(rnd.randrange(1, 10))
        ]
        eng.run(txns)
    assert len(wired) == eng.metrics.epochs
    for decomp, db in wired:
        assert decomp == Engine(SCHEMA, db, EngineConfig(height=2))._decomposition()


def test_settled_circuit_is_freed_without_the_cycle_collector(monkeypatch):
    """Once an epoch commits, reference counting alone frees its circuit."""
    nodes = []
    build = engine.build_tree

    def capture(height):
        root = build(height)
        nodes.extend(weakref.ref(node) for node in [*root.internal(), *root.leaves()])
        return root

    monkeypatch.setattr(engine, "build_tree", capture)
    wl = make_workload(WorkloadConfig(name="random_rules", n=8, txns=8, seed=2))
    gc.disable()
    try:
        rep = Engine(wl.schema, wl.db, EngineConfig(height=2)).run(wl.txns)
        assert len(nodes) == 2 * 7 and all(ref() is None for ref in nodes)
    finally:
        gc.enable()
    assert rep.statuses == run_serial(wl).statuses


def test_read_only_epochs_wake_no_correction(monkeypatch):
    """Read-only transactions publish sensitivity but no delta, so every
    correction input stays empty and no correction operator refreshes."""
    refresh = CorrOp.refresh
    corr = []

    def counted(op):
        corr.append(op)
        return refresh(op)

    monkeypatch.setattr(CorrOp, "refresh", counted)
    probes = [parse_rules(f"probe(v) <- cnt[{k % 4}] = v.", SCHEMA) for k in range(8)]
    rep = Engine(SCHEMA, base_db(nkeys=4), EngineConfig(height=3)).run(probes)
    assert rep.statuses == [EVALUATED] * 8
    assert corr == []


@pytest.mark.parametrize("workers", [1, 2])
def test_sleeping_correction_wakes_for_a_later_write(workers):
    """Inverted priority evaluates the later bump first: its sensitivity
    reaches the correction operator while the earlier bump's delta is
    still empty. The earlier write arrives afterwards and must still be
    corrected into the later transaction."""
    eng = Engine(SCHEMA, base_db(), EngineConfig(workers=workers, height=1,
                                                 priority_mode=INVERTED))
    rep = eng.run([bump(0), bump(0, 5)])
    assert rep.statuses == [EVALUATED, EVALUATED]
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (0,)) == (6,)
    assert eng.metrics.txn_refreshes == 3  # the later bump was repaired once


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cfg", [
    WorkloadConfig(name="random_rules", n=8, txns=40, seed=11),
    WorkloadConfig(name="sku", n=60, alpha=2.0, txns=40, seed=4),
    WorkloadConfig(name="counter_chain", variant="shift", txns=24),
], ids=["random_rules", "sku", "counter_chain"])
def test_quiet_corrections_match_serial(cfg, workers):
    """With correction operators asleep while their inputs are empty, the
    engine still agrees with the serial oracle on statuses and state,
    under both priority modes and random tie-breaking."""
    wl = make_workload(cfg)
    want = run_serial(wl)
    for mode, randomize in ((EARLIEST, False), (INVERTED, False), (EARLIEST, True)):
        got = run_repair(wl, workers=workers, height=3, priority_mode=mode,
                         randomize_ties=randomize, seed=cfg.seed)
        assert got.statuses == want.statuses, mode
        assert got.hash(wl.schema) == want.hash(wl.schema), mode


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


REL_SCHEMA = Schema.from_sigs([
    PredicateSig("bal", 0, (INT64,), (INT64,)),
    PredicateSig("vip", 1, (INT64,)),  # a relation: each key maps to ()
])


@pytest.mark.parametrize("workers", [1, 2])
def test_relation_upserts_match_serial(workers):
    """Relation records carry the falsy value (). A later transaction
    reads a relation key an earlier one upserts, so it is repaired by a
    correction whose value is (); another fails once a correction adds
    the key its constraint forbids, which withdraws its own relation
    upsert. Statuses and state match the serial oracle."""
    db = DbVersion()
    for k, v in ((1, 150), (2, 7), (3, 20), (4, 1)):
        db = store_upsert(db, REL_SCHEMA.sig("bal"), (k,), (v,))
    db = store_upsert(db, REL_SCHEMA.sig("vip"), (2,))
    txns = [parse_rules(text, REL_SCHEMA) for text in (
        "^vip(1) <- bal@start[1] = v, v >= 100.",
        "^bal[3] = y <- vip(1), y = bal@start[3] + 10.",
        "^vip(4) <- bal@start[4] = v, v > 0.",
        "^bal[2] = y <- vip(2), y = 0.\n^vip(3) <- vip@start(2).\nfalse <- vip(4).",
        "^vip(2) <- vip@start(2).",
        "^bal[4] = y <- !vip(5), y = bal@start[4] + 1.",
    )]
    wl = Workload(REL_SCHEMA, db, txns, locksets=[])
    serial = run_serial(wl)
    assert serial.statuses == [EVALUATED] * 3 + [FAILED] + [EVALUATED] * 2
    assert store_lookup(serial.db, REL_SCHEMA.sig("vip"), (1,)) == ()
    assert store_lookup(serial.db, REL_SCHEMA.sig("bal"), (3,)) == (30,)
    assert store_lookup(serial.db, REL_SCHEMA.sig("vip"), (3,)) is None
    repair = run_repair(wl, workers=workers, height=3)
    assert repair.txn_refreshes > len(txns)  # some transaction was repaired
    assert repair.statuses == serial.statuses
    assert repair.hash(REL_SCHEMA) == serial.hash(REL_SCHEMA)
