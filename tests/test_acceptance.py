"""End-to-end acceptance gate: one test per stated criterion.

Each test prints a single `criterion N (...): PASS|FAIL` line (run with
`pytest -s` or rely on captured output of failing tests). Criterion 7
needs real parallel hardware and is skipped on machines with fewer than
8 CPU cores.
"""

import importlib.util
import os
import pathlib
import random
import time
from itertools import combinations

import pytest
from helpers import stab_linear

from txnrepair.bench import (
    WorkloadConfig,
    gen_sku,
    make_workload,
    run_lock,
    run_repair,
    run_serial,
    state_hash,
)
from txnrepair.engine import EARLIEST, INVERTED, Engine, EngineConfig
from txnrepair.inclftj import RuleMaintainer
from txnrepair.lftj import compile_rule, eval_rule
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_lookup, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.values import INT64, MINK
from txnrepair.views import patch_tree


def report(n, desc, ok):
    print(f"criterion {n} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({desc}) failed"


def test_criterion_1_serial_equivalence():
    """500 seeded random workloads (<=32 txns, <=4 predicates, <=64 keys)
    commit to the serial-order oracle state, within 60 seconds."""
    t0 = time.perf_counter()
    mismatches = []
    for seed in range(500):
        cfg = WorkloadConfig(name="random_rules", n=64, txns=32, seed=seed)
        wl = make_workload(cfg)
        want = run_serial(wl)
        got = run_repair(wl, workers=1, height=3)
        if (got.hash(wl.schema) != want.hash(wl.schema)
                or got.statuses != want.statuses):
            mismatches.append(seed)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    print(f"  [500 workloads, {elapsed:.1f}s, mismatches={mismatches[:5]}]")
    report(1, "serial equivalence on 500 seeded workloads", ok)


def test_criterion_2_schedule_independence():
    """Worker counts {1,2,4,8} and randomized tie-breaking produce
    byte-identical final state hashes on 50 workloads."""
    bad = []
    for seed in range(50):
        cfg = WorkloadConfig(name="random_rules", n=64, txns=16, seed=1000 + seed)
        wl = make_workload(cfg)
        hashes = set()
        for workers, ties in ((1, False), (2, False), (4, False), (8, False),
                              (4, True), (8, True)):
            eng = Engine(wl.schema, wl.db,
                         EngineConfig(workers=workers, height=3,
                                      tie_seed=seed if ties else None))
            rep = eng.run(wl.txns)
            hashes.add((state_hash(rep.db, wl.schema), tuple(rep.statuses)))
        if len(hashes) != 1:
            bad.append(seed)
    report(2, "schedule independence across workers and tie-breaking", not bad)


def test_criterion_3_golden_trace():
    """The three-atom join fixture reproduces the documented sensitivity
    intervals and incremental behaviour."""
    schema = Schema.from_sigs([
        PredicateSig("A", 0, (INT64,)),
        PredicateSig("B", 1, (INT64, INT64)),
        PredicateSig("C", 2, (INT64,)),
    ])
    db = DbVersion()
    for x in (1, 3, 4, 5, 6, 7):
        db = store_upsert(db, schema.sig("A"), (x,))
    for t in ((2, 110), (5, 101), (5, 102), (5, 106), (7, 103)):
        db = store_upsert(db, schema.sig("B"), t)
    for y in (101, 104, 108):
        db = store_upsert(db, schema.sig("C"), (y,))
    compiled = compile_rule(parse_rules("D(x, y) <- A(x), B(x, y), C(y).")[0], schema)
    views = {
        "db:A": db.root(0),
        "db:B": db.root(1),
        "db:C": db.root(2),
    }
    col = []
    base = set(eval_rule(compiled, views, collector=col).head_counts[0])
    ivals = {(e.lo, e.hi) for e in col
             if e.vertex == "db:C" and e.ctx and e.ctx[0] == 5}
    all_c = [(e.lo, e.hi) for e in col if e.vertex == "db:C"]
    with_102 = set(eval_rule(
        compiled,
        {**views, "db:C": patch_tree({(102,): ()}, views["db:C"])},
    ).head_counts[0])
    with_105 = set(eval_rule(
        compiled,
        {**views, "db:C": patch_tree({(105,): ()}, views["db:C"])},
    ).head_counts[0])
    ok = (
        base == {(5, 101)}
        and ((102,), (104,)) in ivals
        and ((106,), (108,)) in ivals
        and with_102 == {(5, 101), (5, 102)}
        and with_105 == base
        and not any(lo <= (105,) <= hi for lo, hi in all_c)
    )
    report(3, "golden join trace with sensitivity intervals", ok)


def test_criterion_4_maintenance_equivalence():
    """1000 random incremental-maintenance cases match a from-scratch
    re-evaluation of the rule."""
    schema = Schema.from_sigs([
        PredicateSig("A", 0, (INT64,)),
        PredicateSig("B", 1, (INT64, INT64)),
        PredicateSig("C", 2, (INT64,)),
    ])
    compiled = compile_rule(parse_rules("D(x, y) <- A(x), B(x, y), C(y).")[0], schema)

    def views_of(A, B, C):
        db = DbVersion()
        for x in A:
            db = store_upsert(db, schema.sig("A"), (x,))
        for t in B:
            db = store_upsert(db, schema.sig("B"), t)
        for y in C:
            db = store_upsert(db, schema.sig("C"), (y,))
        return {
            "db:A": db.root(0),
            "db:B": db.root(1),
            "db:C": db.root(2),
        }

    bad = 0
    for seed in range(1000):
        rnd = random.Random(seed)
        A = set(rnd.sample(range(12), rnd.randint(0, 5)))
        B = set((rnd.randrange(12), rnd.randrange(12)) for _ in range(rnd.randint(0, 10)))
        C = set(rnd.sample(range(12), rnd.randint(0, 5)))
        m = RuleMaintainer(compiled, views_of(A, B, C))
        target = rnd.choice("ABC")
        changed = {}
        if target == "A":
            x = rnd.randrange(12)
            A ^= {x}
            changed["db:A"] = [(x,)]
        elif target == "B":
            t = (rnd.randrange(12), rnd.randrange(12))
            B ^= {t}
            changed["db:B"] = [t]
        else:
            y = rnd.randrange(12)
            C ^= {y}
            changed["db:C"] = [(y,)]
        views = views_of(A, B, C)
        stabbed = stab_linear(m.entries, changed)
        if stabbed:
            m.apply_changes(views, stabbed)
        if m.head_counts[0] != eval_rule(compiled, views).head_counts[0]:
            bad += 1
    report(4, "1000 maintenance-vs-reevaluation cases", bad == 0)


def test_criterion_5_contention_statistic():
    """sku workload at n=10000, alpha=10: mean pairwise shared-sku count
    within 10% of alpha^2 = 100."""
    cfg = WorkloadConfig(name="sku", n=10000, alpha=10.0, txns=80, seed=0)
    sets = [set(s) for s in gen_sku(cfg).locksets]
    overlaps = [len(a & b) for a, b in combinations(sets, 2)]
    mean = sum(overlaps) / len(overlaps)
    ok = 90.0 <= mean <= 110.0
    print(f"  [mean pairwise common skus = {mean:.2f}]")
    report(5, "birthday contention statistic 100 +/- 10%", ok)


def test_criterion_6_priority_bounds():
    """Shared-counter chain of k=64: earliest-first settles in at most 2k
    transaction refreshes; the inverted order needs at least k^2/4."""
    k = 64
    schema = Schema.from_sigs([PredicateSig("cnt", 0, (INT64,), (INT64,))])
    db = store_upsert(DbVersion(), schema.sig("cnt"), (0,), (0,))
    txns = [
        parse_rules("^cnt[$k] = v <- v = cnt@start[$k] + 1.", schema, params={"k": 0})
        for _ in range(k)
    ]
    counts = {}
    for mode in (EARLIEST, INVERTED):
        eng = Engine(schema, db, EngineConfig(workers=1, height=6, priority_mode=mode))
        rep = eng.run(txns)
        assert store_lookup(rep.db, schema.sig("cnt"), (0,)) == (k,)
        counts[mode] = eng.metrics.txn_refreshes
    ok = counts[EARLIEST] <= 2 * k and counts[INVERTED] >= k * k // 4
    print(f"  [earliest={counts[EARLIEST]} (bound {2*k}), "
          f"inverted={counts[INVERTED]} (bound {k*k//4})]")
    report(6, "priority-order refresh bounds on the counter chain", ok)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 8,
    reason="parallel speedup needs >=8 physical cores; this machine has "
    f"{os.cpu_count()} (and CPython threads share the interpreter lock, "
    "so compute-bound workers cannot scale here regardless)",
)
def test_criterion_7_speedup_trend():
    """Low contention: repair at 4 workers is >=2.0x repair at 1 worker.
    High contention: repair is >=1.5x the row-locking baseline."""
    t0 = time.perf_counter()
    low = WorkloadConfig(name="sku", n=10000, alpha=0.1, txns=256, seed=0)
    wl = make_workload(low)
    r1 = run_repair(wl, workers=1, height=5)
    r4 = run_repair(wl, workers=4, height=5)
    low_speedup = r1.seconds / r4.seconds
    high = WorkloadConfig(name="sku", n=10000, alpha=10.0, txns=128, seed=0)
    wl2 = make_workload(high)
    lock = run_lock(wl2, workers=4)
    rep = run_repair(wl2, workers=4, height=5)
    high_speedup = lock.seconds / rep.seconds
    elapsed = time.perf_counter() - t0
    ok = low_speedup >= 2.0 and high_speedup >= 1.5 and elapsed < 300.0
    print(f"  [low-contention 4-worker speedup {low_speedup:.2f}x, "
          f"high-contention vs lock {high_speedup:.2f}x, {elapsed:.0f}s]")
    report(7, "parallel speedup trend", ok)


PROPERTY_SUITES = {
    "signal change composition": ("test_signal.py", "test_change_composition"),
    "sensitivity monotonicity": ("test_signal.py", "test_sens_monotone"),
    "merge partition/precedence": ("test_circuit.py",
                                   "test_delta_merge_partition_and_precedence"),
    "correction idempotence": ("test_circuit.py",
                               "test_corr_filtering_and_idempotence"),
    "domain partition": ("test_domain.py", "test_leaf_partition"),
}


def test_criterion_8_property_suites():
    """The five named property suites exist and are configured for at
    least 200 generated cases each (they run as part of this test run)."""
    here = pathlib.Path(__file__).parent
    bad = []
    for name, (fname, func) in PROPERTY_SUITES.items():
        spec = importlib.util.spec_from_file_location(fname[:-3] + "_probe", here / fname)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        fn = getattr(mod, func, None)
        settings = getattr(fn, "_hypothesis_internal_use_settings", None)
        if fn is None or settings is None or settings.max_examples < 200:
            bad.append(name)
    report(8, "property suites with >=200 cases each", not bad)
