"""Engine scheduling: determinism, priority behaviour, epoch commit."""

import dataclasses
import gc
import itertools
import random
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

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
from txnrepair import txn as txn_module
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


def test_unknown_priority_mode_is_rejected():
    with pytest.raises(ValueError, match="bogus"):
        Engine(SCHEMA, base_db(), EngineConfig(priority_mode="bogus"))


def test_negative_height_is_rejected_at_construction():
    with pytest.raises(ValueError, match="height -1"):
        Engine(SCHEMA, base_db(), EngineConfig(height=-1))
    # height 0 is one transaction per epoch
    rep = Engine(SCHEMA, base_db(), EngineConfig(height=0)).run([bump(0) for _ in range(3)])
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (0,)) == (3,)


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
            EngineConfig(workers=workers, height=3, tie_seed=5 if ties else None),
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


def test_kept_circuit_forgets_the_last_epochs_sensitivity():
    """The second leaf reads key 0 in the first epoch and key 1 in the
    second, so the first leaf's write of key 0 in the second epoch must
    not be corrected into it: no repair in either epoch."""
    eng = Engine(SCHEMA, base_db(nkeys=2), EngineConfig(height=1))
    rep = eng.run([bump(1), bump(0), bump(0), bump(1)])
    assert eng.metrics.epochs == 2 and rep.statuses == [EVALUATED] * 4
    assert eng.metrics.txn_refreshes == 4


def test_engine_compiles_each_template_once(monkeypatch):
    """Every transaction an engine runs shares its plan cache: bumps of
    different keys, over several epochs and runs, compile one plan."""
    calls = []
    compile_rule = txn_module.compile_rule
    monkeypatch.setattr(txn_module, "compile_rule",
                        lambda *args: calls.append(args) or compile_rule(*args))
    eng = Engine(SCHEMA, base_db(nkeys=4), EngineConfig(height=1))
    for _ in range(2):
        rep = eng.run([bump(k % 4) for k in range(6)])
        assert rep.statuses == [EVALUATED] * 6
    assert len(calls) == 1


def test_one_engine_pass_over_each_perfbench_pool_compiles_each_template_once(monkeypatch):
    """Every transaction of one engine's pass over a perfbench pool is
    built with its plan cache, so each distinct template the pool binds
    is compiled once, however many shapes and epochs use it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import SPECS

    calls = []
    compile_rule = txn_module.compile_rule
    monkeypatch.setattr(txn_module, "compile_rule",
                        lambda *args: calls.append(args[0]) or compile_rule(*args))
    for spec in SPECS.values():
        wl = spec.build(1)
        calls.clear()
        Engine(wl.schema, wl.db, EngineConfig(workers=spec.workers)).run(wl.txns)
        templates = {(id(r.head), id(r.body)) for rules in wl.txns for r in rules}
        assert len(calls) == len(templates), spec.name
        assert {(id(r.head), id(r.body)) for r in calls} == templates, spec.name


@pytest.mark.parametrize("workers", [1, 2])
def test_partial_epoch_never_refreshes_an_empty_leaf(monkeypatch, workers):
    """Five transactions at height 3 leave three leaves empty. The
    correction operator into leaf 5 runs, since leaf 4's deltas change,
    but an empty leaf publishes no sensitivity, so it publishes nothing
    and no empty leaf's `TxnOp` is ever refreshed."""
    refreshed = []
    for cls in (TxnOp, CorrOp):
        monkeypatch.setattr(cls, "refresh",
                            lambda op, fn=cls.refresh: refreshed.append(op) or fn(op))
    eng = Engine(SCHEMA, base_db(), EngineConfig(workers=workers, height=3))
    rep = settled(eng, [bump(0) for _ in range(5)])
    assert rep.statuses == [EVALUATED] * 5
    assert store_lookup(rep.db, SCHEMA.sig("cnt"), (0,)) == (5,)
    empty = [op.leaf for op in eng._circuit.txn_ops[5:]]
    assert [leaf.txn for leaf in empty] == [None] * 3
    txn_leaves = {id(op.leaf) for op in refreshed if isinstance(op, TxnOp)}
    assert txn_leaves == {id(op.leaf) for op in eng._circuit.txn_ops[:5]}
    assert any(op.out is empty[0].corr for op in refreshed if isinstance(op, CorrOp))
    assert all(leaf.corr.empty for leaf in empty)


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


@pytest.mark.parametrize("seed", range(7))
def test_one_wiring_per_engine_as_commits_add_keys(monkeypatch, seed):
    """An engine scans the store, splits the domain, builds the tree and
    wires it once, at its first epoch, even when later commits add keys
    the split never sampled. Bumps also read those new keys. State and
    statuses still equal the serial oracle's at 1 and 2 workers."""
    calls = Counter()
    for name in ("full_scan", "build_decomposition", "build_tree", "wire_tree"):
        fn = getattr(engine, name)
        monkeypatch.setattr(engine, name,
                            lambda *args, _n=name, _fn=fn: calls.update([_n]) or _fn(*args))
    rnd = random.Random(seed)
    runs = []
    for i in range(4):
        txns = [
            parse_rules(f"^cnt[{rnd.randrange(4, 40)}] = v <- v = {i}.", SCHEMA)
            if rnd.random() < 0.3 else bump(rnd.randrange(8), rnd.randrange(-3, 4))
            for _ in range(rnd.randrange(1, 10))
        ]
        if i:  # a key no earlier epoch has
            new_key = parse_rules(f"^cnt[{40 + i}] = v <- v = 0.", SCHEMA)
            txns.insert(rnd.randrange(len(txns) + 1), new_key)
        runs.append(txns)
    base = base_db(nkeys=4)
    want = run_serial(Workload(SCHEMA, base, [t for txns in runs for t in txns], []))
    for workers in (1, 2):
        calls.clear()
        eng = Engine(SCHEMA, base, EngineConfig(workers=workers, height=2))
        statuses = []
        for txns in runs:
            statuses += eng.run(txns).statuses
        assert eng.metrics.epochs > 4
        assert dict(calls) == {"full_scan": 1, "build_decomposition": 1,
                               "build_tree": 1, "wire_tree": 1}, workers
        assert statuses == want.statuses, workers
        assert state_hash(eng.db, SCHEMA) == want.hash(SCHEMA), workers
    keys = lambda db: {key for _, key, _ in full_scan(db, SCHEMA)}
    assert keys(want.db) > keys(base)


def test_settled_circuit_is_freed_without_the_cycle_collector(monkeypatch):
    """An engine wires its circuit once over epochs that keep the key set,
    and dropping the engine frees every tree node by reference counting
    alone: nothing in the kept circuit links back to what holds it."""
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
        eng = Engine(wl.schema, wl.db, EngineConfig(height=2))
        statuses = eng.run(wl.txns).statuses + eng.run(wl.txns).statuses
        assert eng.metrics.epochs == 4
        assert len(nodes) == 2 * 4 - 1  # one tree of height 2
        assert all(ref() is not None for ref in nodes)
        del eng
        assert all(ref() is None for ref in nodes)
    finally:
        gc.enable()
    once = run_serial(wl)
    twice = run_serial(dataclasses.replace(wl, db=once.db))
    assert statuses == once.statuses + twice.statuses


@pytest.mark.parametrize("workers", [1, 2])
def test_epoch_after_a_failed_repair_matches_serial(monkeypatch, workers):
    """A repair that raises fails its epoch midway, leaving signals,
    cursors and transactions behind in the kept circuit. The next run
    on the same engine resets all of them and matches the serial
    oracle from the state the failed run left."""
    wl = make_workload(WorkloadConfig(name="counter_chain", variant="shift", txns=16))
    repair = TxnExec.repair
    raised = []

    def flaky(txn, changes):
        if not raised:
            raised.append(txn.txn_id)
            raise Boom(txn.txn_id)
        return repair(txn, changes)

    monkeypatch.setattr(TxnExec, "repair", flaky)
    eng = Engine(wl.schema, wl.db, EngineConfig(workers=workers, height=3))
    with pytest.raises(Boom):
        eng.run(wl.txns)
    assert raised
    monkeypatch.setattr(TxnExec, "repair", repair)
    db, circuit = eng.db, eng._circuit
    rep = eng.run(wl.txns)
    assert eng._circuit is circuit  # the key set is unchanged: no rewiring
    want = run_serial(dataclasses.replace(wl, db=db))
    assert rep.statuses == want.statuses
    assert state_hash(rep.db, wl.schema) == want.hash(wl.schema)


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
    for mode, tie_seed in ((EARLIEST, None), (INVERTED, None), (EARLIEST, cfg.seed)):
        got = run_repair(wl, workers=workers, height=3, priority_mode=mode, tie_seed=tie_seed)
        assert got.statuses == want.statuses, mode
        assert got.hash(wl.schema) == want.hash(wl.schema), mode


@pytest.mark.parametrize("mode", [EARLIEST, INVERTED])
@pytest.mark.parametrize("height", [1, 2, 3, 4, 5])
def test_priorities_solve_the_walk_equations(height, mode):
    """The closed-form (m, d) satisfies the equations of a walk over the
    wired circuit, at every fill of the tree. Merges over empty subtrees
    and transactions past the fill are never queued, so they are left
    out."""
    root = build_tree(height)
    ops, readers = wire_tree(root, build_decomposition([], height))
    txn_ops = [op for op in ops if isinstance(op, TxnOp)]
    producer = {id(sig): op for op in ops for sig in op.output_signals}
    for n in range(1, 2**height + 1):
        prio = _op_priorities(ops, height, n, mode)
        for i, op in enumerate(txn_ops[:n]):
            assert prio[op] == ((-i if mode == INVERTED else i), 0)
        for op in ops:
            if isinstance(op, TxnOp):
                continue
            if not isinstance(op, CorrOp) and int(op.node_label.ljust(height, "0"), 2) >= n:
                continue
            m, d = prio[op]
            producers = [producer[id(s)] for s in op.input_signals]
            assert d == max((prio[p][1] + 1 for p in producers), default=0), (n, op)
            if mode == EARLIEST:
                rs = [r for sig in op.output_signals for r in readers.get(sig, ())]
                assert m == min((prio[r][0] for r in rs), default=FAR), (n, op)
            else:
                assert m == min((prio[p][0] for p in producers), default=0), (n, op)


@pytest.mark.parametrize("mode", [EARLIEST, INVERTED])
@pytest.mark.parametrize("height", range(7))
def test_packed_priorities_order_ops_as_their_pairs(height, mode):
    """The queue's one int per op orders every op exactly as its (m, d)
    does, ties included, at every fill of the tree."""
    ops, _readers = wire_tree(build_tree(height), build_decomposition([], height))
    for n in range(1, 2**height + 1):
        prio = _op_priorities(ops, height, n, mode)
        packed = engine._packed(prio)
        by_pair = sorted(ops, key=prio.__getitem__)
        for a, b in zip(by_pair, by_pair[1:]):
            assert (packed[a] < packed[b]) == (prio[a] < prio[b]), (n, a, b)
            assert (packed[a] == packed[b]) == (prio[a] == prio[b]), (n, a, b)


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


def make_queue(*ops, workers):
    """A queue over stand-in ops, prioritized in the order given."""
    return engine._Queue({op: i for i, op in enumerate(ops)}, itertools.count().__next__, workers)


def until_waiting(queue, n):
    deadline = time.monotonic() + 10
    while queue._waiting < n:
        assert time.monotonic() < deadline, "no worker went idle"
        time.sleep(0.001)


def stepped(queue, *args):
    """A thread taking one step on queue; the op it took lands in .got."""
    t = threading.Thread(target=lambda: t.got.append(queue.step(*args)), daemon=True)
    t.got = []
    t.start()
    return t


def test_queue_reruns_an_op_woken_while_it_runs_once_after_it():
    q = make_queue("a", "b", workers=2)
    q.push("a")
    q.push("b")
    assert q.step() == "a"
    assert q.step() == "b"
    other = stepped(q, "b", ["a", "a"])  # b's refresh woke a, which still runs
    until_waiting(q, 1)  # so the other worker goes idle instead of taking it
    assert other.got == []
    assert q.step("a") == "a"  # a runs once more, after it finished
    assert q.step("a") is None
    other.join(10)
    assert other.got == [None]


def test_queue_reports_the_fixpoint_only_when_nothing_is_queued_or_running():
    q = make_queue("a", "b", "c", workers=2)
    q.push("a")
    q.push("b")
    assert q.step() == "a"
    assert q.step() == "b"
    other = stepped(q, "a")  # nothing queued, but b runs: not yet the fixpoint
    until_waiting(q, 1)
    assert q.step("b", ["c"]) == "c"  # the one queued op is this worker's next
    assert q._waiting == 1 and other.got == []
    assert q.step("c") is None
    other.join(10)
    assert other.got == [None]
    one = make_queue("a", workers=1)
    one.push("a")
    assert one.step() == "a"
    assert one.step("a", ["a"]) == "a"
    assert one.step("a") is None


def settled(eng, txns):
    """eng.run(txns) on a thread of its own, so that a lost wake-up fails
    the join instead of hanging the suite."""
    reports = []
    t = threading.Thread(target=lambda: reports.append(eng.run(txns)), daemon=True)
    t.start()
    t.join(60)
    assert not t.is_alive(), "the engine never reached its fixpoint"
    return reports[0]


def test_fan_out_at_four_workers_settles_under_fast_switching():
    """Each transaction writes keys spread over the domain, so a refresh
    wakes several readers at once."""
    wl = make_workload(WorkloadConfig(name="sku", n=400, alpha=0.5, txns=64, seed=11))
    want = run_serial(wl)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rep = settled(Engine(wl.schema, wl.db, EngineConfig(workers=4)), wl.txns)
    finally:
        sys.setswitchinterval(interval)
    assert state_hash(rep.db, wl.schema) == want.hash(wl.schema)
    assert rep.statuses == want.statuses


class WatchedLock:
    """A queue lock that records each blocking acquire made outside the
    queue's idle wait."""

    def __init__(self):
        self._lock = threading.Lock()
        self.idle = threading.local()
        self.blocking = []

    def acquire(self, blocking=True, timeout=-1):
        if blocking and not getattr(self.idle, "waiting", False):
            self.blocking.append(threading.current_thread().name)
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


def test_workers_never_block_on_the_queue_lock_outside_the_idle_wait(monkeypatch):
    """A blocking acquire of a contended lock hands it to a thread still
    waiting for the GIL, which convoys the workers: every worker enters
    the queue through a non-blocking acquire."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import SPECS

    locks = []
    init = engine._Queue.__init__

    def watched(queue, *args):
        init(queue, *args)
        lock = WatchedLock()
        cv = threading.Condition(lock)
        wait = cv.wait

        def idle_wait():
            lock.idle.waiting = True
            try:
                return wait()
            finally:
                lock.idle.waiting = False

        cv.wait = idle_wait
        queue._lock, queue._cv = lock, cv
        locks.append(lock)

    monkeypatch.setattr(engine._Queue, "__init__", watched)
    wl = SPECS["transfer_mix"].generate(5, 128)
    rep = settled(Engine(wl.schema, wl.db, EngineConfig(workers=2)), wl.txns)
    want = run_serial(wl)
    assert state_hash(rep.db, wl.schema) == want.hash(wl.schema)
    assert rep.statuses == want.statuses
    assert len(locks) == 4  # one queue per epoch
    assert [lock.blocking for lock in locks] == [[]] * 4


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
