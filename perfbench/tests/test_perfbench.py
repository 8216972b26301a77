"""The benchmark's own checks: the oracle check, the wrappers and the spec."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracing
import workloads
from txnrepair import bench
from txnrepair.engine import Engine, EngineConfig
from txnrepair.pstore import store_upsert

ROOT = Path(__file__).resolve().parents[2]


def small(name, txns, seed=3):
    spec = workloads.SPECS[name]
    return spec, spec.generate(seed, txns)


def test_transfer_mix_generator_takes_seed_txns_and_keys():
    a = workloads.gen_transfer_mix(seed=5, txns=100, keys=40)
    b = workloads.gen_transfer_mix(seed=5, txns=100, keys=40)
    assert len(a.txns) == 100
    assert [str(r) for rs in a.txns for r in rs] == [str(r) for rs in b.txns for r in rs]
    assert [p.name for p in a.schema.predicates] == ["p0", "p1"]
    keys = {k for _, k, _ in bench.full_scan(a.db, a.schema)}
    assert keys == {(k,) for k in range(40)}


class CorruptingEngine(Engine):
    """Commits correct statuses but a wrong value for p0[3]."""

    def run(self, txns):
        rep = super().run(txns)
        self.db = store_upsert(self.db, self.schema.sig("p0"), (3,), (10**6,))
        return rep


def test_corrupted_final_state_is_all_wrong_and_named(monkeypatch, capsys):
    spec = dataclasses.replace(workloads.SPECS["transfer_mix"], pool=32, min_batches=1)
    monkeypatch.setitem(harness.SPECS, "transfer_mix", spec)
    argv = ["--workload", "transfer_mix", "--seed", "1", "--seconds", "0"]
    assert harness.main(argv) == 0
    capsys.readouterr()
    assert harness.main(argv, engine=CorruptingEngine) == 1
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0  # error_rate 1
    assert "error_rate             1.0000" in captured.out
    assert "first divergence" in captured.err and "((0, (3,))" in captured.err
    assert "(1000000,)" in captured.err


def test_status_mismatch_counts_only_that_transaction():
    _, wl = small("transfer_mix", 32)
    oracle = harness.run_oracle(wl, 0.0)
    out = harness.run_pass(wl, oracle, 1)
    assert harness.count_wrong(oracle, out) == (0, None)
    out.statuses[5] = None  # as if its batch had raised
    assert harness.count_wrong(oracle, out) == (1, None)


@pytest.mark.parametrize("name", ["sku_sparse", "transfer_mix"])
def test_wrapper_refresh_counts_equal_engine_metrics(name):
    _, wl = small(name, 32)
    eng = Engine(wl.schema, wl.db, EngineConfig(workers=1))
    eng.run(wl.txns[:16])  # EngineMetrics accumulates across calls
    before = dict(eng.metrics.as_dict())
    with tracing.Tracer() as tracer:
        eng.run(wl.txns[16:])
    calls = {}
    for s in tracer.spans():
        calls[s.name] = calls.get(s.name, 0) + 1
    refreshes = sum(calls.get(f"circuit.refresh.{k}", 0) for k in tracing.KINDS)
    assert refreshes == eng.metrics.op_refreshes - before["op_refreshes"]
    assert calls["circuit.refresh.txn"] == eng.metrics.txn_refreshes - before["txn_refreshes"]


@pytest.mark.parametrize("name,txns", [("sku_sparse", 32), ("sku_dense", 8), ("transfer_mix", 64)])
def test_tracing_changes_no_result(name, txns):
    spec, wl = small(name, txns)
    pool = harness.pool_batches(wl)

    def run():
        eng = Engine(wl.schema, wl.db, EngineConfig(workers=spec.workers))
        statuses = [st for batch in pool for st in eng.run(batch).statuses]
        return statuses, bench.state_hash(eng.db, wl.schema)

    plain = run()
    with tracing.Tracer():
        traced = run()
    assert traced == plain


def test_tracer_restores_every_wrapped_name():
    from txnrepair import engine, ptree, txn, views

    before = (engine.Engine.run, engine.full_scan, txn.TxnExec.evaluate, views.ptree)
    with tracing.Tracer():
        assert engine.Engine.run is not before[0] and views.ptree is not ptree
    assert (engine.Engine.run, engine.full_scan, txn.TxnExec.evaluate, views.ptree) == before


@pytest.mark.parametrize("name,txns", [("sku_dense", 8), ("transfer_mix", 64)])
def test_layer_self_times_add_up_to_run_wall(name, txns):
    _, wl = small(name, txns)
    oracle = harness.run_oracle(wl, 0.0)
    with tracing.Tracer() as tracer:
        out = harness.run_pass(wl, oracle, 1)
    assert harness.count_wrong(oracle, out) == (0, None)
    metrics = tracing.layer_metrics(tracer, out.admitted, out.statuses)
    seconds = sorted(set(tracing.SELF_TIME.values()) - {"rulelang.parse_s"})
    assert sum(metrics[m] for m in seconds) == pytest.approx(tracer.run_wall(), rel=1e-9)
    assert all(metrics[m] >= 0 for m in seconds)


def test_work_over_span_follows_last_publisher():
    def refresh(t0, t1, cause=None, batch=0):
        s = tracing.Span("circuit.refresh.txn", None, 0, batch)
        s.t0, s.t1, s.cause = t0, t1, cause
        return s

    a = refresh(0, 2)  # chain a -> b weighs 3; c is independent
    b = refresh(2, 3, cause=a)
    c = refresh(3, 7)
    assert tracing.work_over_span([a, b, c]) == pytest.approx(7 / 4)
    d = refresh(10, 11, batch=1)  # spans of batches add up
    assert tracing.work_over_span([a, b, c, d]) == pytest.approx(8 / 5)


def test_work_over_span_is_between_one_and_refresh_count():
    _, wl = small("sku_sparse", 32)
    oracle = harness.run_oracle(wl, 0.0)
    with tracing.Tracer() as tracer:
        harness.run_pass(wl, oracle, 1)
    spans = tracer.spans()
    refreshes = sum(1 for s in spans if s.name.startswith("circuit.refresh."))
    assert 1.0 <= tracing.work_over_span(spans) <= refreshes


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.SPECS)
    assert [m["name"] for m in doc["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == harness.per_layer_names()
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert m["unit"] == harness.unit_of(m["name"])
        assert m["better"] == harness.better_of(m["name"])
    for spec in workloads.SPECS.values():
        assert spec.pool % workloads.BATCH == 0


def test_run_fails_without_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sku_sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0 and '"correct"' not in r.stdout
