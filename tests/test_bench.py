"""Workload generators and the benchmark CLI."""

from itertools import combinations

import pytest

from txnrepair import bench
from txnrepair.bench import (
    WorkloadConfig,
    first_divergence,
    first_status_divergence,
    gen_sku,
    main,
    make_workload,
    run_lock,
    run_repair,
    run_serial,
)
from txnrepair.engine import Engine, EngineConfig
from txnrepair.pstore import DbVersion, PredicateSig, Schema, full_scan, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.txn import EVALUATED, FAILED, TxnExec
from txnrepair.values import INT64, SchemaError


def test_generators_deterministic():
    for name in ("sku", "counter_chain", "random_rules"):
        cfg = WorkloadConfig(name=name, n=100, txns=8, seed=3)
        a, b = make_workload(cfg), make_workload(cfg)
        assert [str(r) for rs in a.txns for r in rs] == [
            str(r) for rs in b.txns for r in rs
        ]
        assert a.locksets == b.locksets


@pytest.mark.parametrize("name, variant", [
    ("sku", "shared"), ("counter_chain", "shared"), ("counter_chain", "shift"),
    ("random_rules", "shared"),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generators_build_the_store_of_per_record_upserts(monkeypatch, name, variant, seed):
    """Each generator builds its initial store with one `apply_deltas`
    call; its store and pool equal those of one `store_upsert` per record
    in the same order."""
    cfg = WorkloadConfig(name=name, n=64, txns=16, seed=seed, variant=variant)
    bulk = make_workload(cfg)
    calls = []

    def upsert_each(db, schema, changes):
        calls.append(len(changes))
        for (pred_id, key), value in changes:
            db = store_upsert(db, schema.sig_by_id(pred_id), key, value)
        return db

    monkeypatch.setattr(bench, "apply_deltas", upsert_each)
    each = make_workload(cfg)
    assert len(calls) == 1 and calls[0] == sum(1 for _ in full_scan(bulk.db, bulk.schema)) > 0
    assert bench.state_hash(bulk.db, bulk.schema) == bench.state_hash(each.db, each.schema)
    assert [[str(r) for r in rs] for rs in bulk.txns] == [[str(r) for r in rs] for rs in each.txns]
    assert bulk.locksets == each.locksets


def test_random_rules_honours_txns_and_keys():
    wl = make_workload(WorkloadConfig(name="random_rules", n=200, txns=64, seed=0))
    assert len(wl.txns) == 64
    assert any(key[0] >= 64 for ls in wl.locksets for _pid, key in ls)
    with pytest.raises(ValueError):
        make_workload(WorkloadConfig(name="random_rules", n=1, txns=4))


def test_locksets_sorted():
    wl = make_workload(WorkloadConfig(name="random_rules", txns=16, seed=1))
    for ls in wl.locksets:
        assert list(ls) == sorted(ls)


def test_sku_overlap_statistic():
    # mean pairwise sku overlap concentrates near alpha^2
    cfg = WorkloadConfig(name="sku", n=4000, alpha=4.0, txns=40, seed=0)
    sets = [set(s) for s in gen_sku(cfg).locksets]
    overlaps = [len(a & b) for a, b in combinations(sets, 2)]
    mean = sum(overlaps) / len(overlaps)
    assert 0.75 * 16 <= mean <= 1.25 * 16


def test_counter_chain_shift_variant():
    wl = make_workload(WorkloadConfig(name="counter_chain", txns=5, variant="shift"))
    got = run_serial(wl)
    # txn i sets cnt[i] = cnt[i-1] + 1; txn 0 bumps itself
    vals = {k[0]: v[0] for _, k, v in __import__("txnrepair.pstore", fromlist=["full_scan"]).full_scan(got.db, wl.schema)}
    assert vals == {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}


def test_counter_chain_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant must be shared or shift, got 'bogus'"):
        make_workload(WorkloadConfig(name="counter_chain", txns=2, variant="bogus"))
    with pytest.raises(SystemExit):
        main(["--workload", "counter_chain", "--variant", "bogus"])


def test_three_executors_agree():
    wl = make_workload(WorkloadConfig(name="sku", n=80, alpha=2.0, txns=12, seed=5))
    serial = run_serial(wl)
    lock = run_lock(wl, workers=2)
    repair = run_repair(wl, workers=1, height=3)
    assert serial.hash(wl.schema) == lock.hash(wl.schema) == repair.hash(wl.schema)
    assert first_divergence(serial.db, repair.db, wl.schema) is None


@pytest.mark.parametrize("name, extra", [
    ("counter_chain", {"variant": "shift"}),
    ("random_rules", {"n": 4}),
])
def test_lock_baseline_keeps_admission_order(name, extra):
    """At 4 workers each key's lock still goes to its transactions in
    admission order: statuses and state equal the serial oracle's."""
    for seed in range(8):
        wl = make_workload(WorkloadConfig(name=name, txns=64, seed=seed, **extra))
        serial = run_serial(wl)
        lock = run_lock(wl, workers=4)
        assert lock.statuses == serial.statuses, seed
        assert lock.hash(wl.schema) == serial.hash(wl.schema), seed


@pytest.mark.parametrize("workers", [1, 2])
def test_lock_baseline_reraises_a_transaction_exception(workers):
    """A cyclic transaction between two bumps raises from its worker;
    the run re-raises it instead of returning skipped statuses."""
    wl = make_workload(WorkloadConfig(name="counter_chain", txns=2))
    wl.txns.insert(1, parse_rules("q(x) <- r(x). r(x) <- q(x).", wl.schema))
    wl.locksets.insert(1, ())
    with pytest.raises(SchemaError, match="cyclic"):
        run_lock(wl, workers=workers)


def test_first_divergence_reports_smallest_key():
    wl = make_workload(WorkloadConfig(name="counter_chain", txns=1))
    other = store_upsert(wl.db, wl.schema.sig("cnt"), (0,), (9,))
    ident, a, b = first_divergence(wl.db, other, wl.schema)
    assert ident == (0, (0,)) and a == (0,) and b == (9,)


def test_first_status_divergence():
    ok, bad = [EVALUATED, FAILED, EVALUATED], [EVALUATED, EVALUATED, EVALUATED]
    assert first_status_divergence(ok, ok) is None
    assert first_status_divergence(ok, bad) == (1, FAILED, EVALUATED)
    assert first_status_divergence(ok, ok[:2]) == (2, EVALUATED, None)


@pytest.mark.parametrize("text, message", [
    ("out(x) <- r(y).", "head variable x is not range-restricted"),
    ("out(x) <- r(x, y).", "r arity mismatch"),
    ("out(x) <- b(x).", "b arity mismatch"),
])
def test_schemaless_rule_fails_before_anything_commits(text, message):
    """A rule parsed without a schema, reading its relation r at the wrong
    arity or its function b as a relation, or heading an unbound variable,
    once crashed at evaluation (KeyError, IndexError) or read nothing. A
    plan runs `typecheck_rule` whatever schema its rule was parsed
    against, so the rule raises when its transaction is built: the serial
    run raises, and an engine raises before its epoch commits the valid
    transaction before it."""
    schema = Schema.from_sigs([
        PredicateSig("r", 0, (INT64,)),
        PredicateSig("b", 1, (INT64,), (INT64,)),
    ])
    db = store_upsert(store_upsert(DbVersion(), schema.sig("r"), (1,)), schema.sig("b"), (1,), (2,))
    good = parse_rules("^b[$k] = v <- v = b@start[$k] + 1.", schema, params={"k": 1})
    bad = parse_rules(text)
    with pytest.raises(SchemaError, match=message):
        TxnExec(schema, bad)
    wl = bench.Workload(schema, db, [good, bad], locksets=[])
    with pytest.raises(SchemaError, match=message):
        run_serial(wl)
    engine = Engine(schema, db, EngineConfig(workers=1))
    with pytest.raises(SchemaError, match=message):
        engine.run(wl.txns)
    assert engine.db is db and engine.metrics.txns == 0


def test_cli_prints_one_row_per_executor(capsys):
    rc = main([
        "--workload", "counter_chain", "--txns", "8", "--height", "3", "--verify",
    ])
    assert rc == 0
    rows = [dict(f.split("=") for f in line.split())
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("workload=")]
    assert [r["workload"] for r in rows] == [
        "counter_chain:serial", "counter_chain:lock", "counter_chain:repair"
    ]
    for r in rows:
        assert float(r["seconds"]) >= 0
        assert int(r["txns"]) == 8


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("entry", ["engine", "run_lock", "cli"])
def test_worker_count_below_one_is_rejected(monkeypatch, capsys, entry, workers):
    """No executor silently runs one worker in place of a count below 1;
    the CLI rejects it before it builds a workload."""
    wl = make_workload(WorkloadConfig(name="sku", n=50, txns=2, seed=1))
    if entry == "engine":
        with pytest.raises(ValueError, match=f"worker count {workers} is below 1"):
            Engine(wl.schema, wl.db, EngineConfig(workers=workers))
    elif entry == "run_lock":
        with pytest.raises(ValueError, match=f"worker count {workers} is below 1"):
            run_lock(wl, workers=workers)
    else:
        def no_workload(cfg):
            raise AssertionError("the CLI built a workload")

        monkeypatch.setattr(bench, "make_workload", no_workload)
        with pytest.raises(SystemExit) as exc:
            main(["--workers", str(workers)])
        assert exc.value.code == 2
        assert f"worker count {workers} is below 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--n", "0"], "key-space size 0 is below 1"),
    (["--n", "-4"], "key-space size -4 is below 1"),
    (["--alpha", "-1"], "contention knob -1.0 is not a number >= 0"),
    (["--alpha", "nan"], "contention knob nan is not a number >= 0"),
    (["--txns", "-3"], "transaction count -3 is below 0"),
    (["--height", "-1"], "tree height -1 is below 0"),
    (["--modes", "serial,lock,repiar"], "unknown mode repiar"),
])
def test_cli_rejects_bad_workload_input_before_any_executor(monkeypatch, capsys, args, message):
    """Bad workload input is a usage error, raised before the CLI builds a
    workload or runs an executor."""
    def no_workload(cfg):
        raise AssertionError("the CLI built a workload")

    monkeypatch.setattr(bench, "make_workload", no_workload)
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -4])
def test_gen_sku_rejects_an_empty_key_space(n):
    with pytest.raises(ValueError, match=f"n >= 1 keys, got {n}"):
        gen_sku(WorkloadConfig(name="sku", n=n, txns=2))


def test_cli_modes_subset(tmp_path):
    rc = main(["--workload", "sku", "--n", "50", "--txns", "4",
               "--modes", "repair", "--verify"])
    assert rc == 0  # --verify pulls the serial oracle in automatically


def test_cli_verify_names_a_status_divergence(monkeypatch, capsys):
    """A wrong status fails --verify even when the state hash matches."""
    real = bench.run_repair

    def one_status_flipped(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.statuses[2] = FAILED if rep.statuses[2] == EVALUATED else EVALUATED
        return rep

    monkeypatch.setattr(bench, "run_repair", one_status_flipped)
    rc = main(["--workload", "counter_chain", "--txns", "4", "--height", "2",
               "--modes", "repair", "--verify"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "VERIFY FAILED (repair): transaction 2 status" in err
    assert "first divergence" not in err  # the state itself matches
