"""The benchmark's workloads: their shapes, worker counts and generators.

A workload builds, from a seed, a schema, an initial store and a pool of
parsed transactions. The harness submits the pool in batches of `BATCH`
transactions and replays it from the initial store for as long as a run
lasts, so the work is a function of the seed alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from txnrepair import bench, rulelang
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_upsert
from txnrepair.values import INT64

BATCH = 32  # 2**EngineConfig().height: one epoch per Engine.run call


@dataclass(frozen=True)
class Spec:
    name: str
    shape: str
    workers: int
    pool: int  # transactions generated in set-up; a multiple of BATCH
    tail_pct: int  # commit_ms.tail percentile; 50 when batches are too few
    min_batches: int  # a run holds at least this many batches
    why: str
    exercises: tuple
    bypasses: tuple
    generate: Callable  # (seed, txns) -> bench.Workload

    def build(self, seed: int) -> bench.Workload:
        return self.generate(seed, self.pool)


def gen_sku(n: int, alpha: float) -> Callable:
    def generate(seed: int, txns: int) -> bench.Workload:
        cfg = bench.WorkloadConfig(name="sku", n=n, alpha=alpha, txns=txns, seed=seed)
        return bench.gen_sku(cfg)

    return generate


TRANSFER = """
^{p}[$a] = x <- x = {p}@start[$a] - $m.
^{p}[$b] = y <- y = {p}@start[$b] + $m.
false <- {p}[$a] = v, v < 0.
"""
BUMP = "^{p}[$k] = v <- v = {p}@start[$k] + $d."
PROBE = "probe(v) <- {p}[$k] = v."
AMOUNT = 50  # transfers move [0, AMOUNT): about 15% of transactions abort
BUMPD = 20  # bumps add [-BUMPD, BUMPD]


def gen_transfer_mix(seed: int, txns: int, keys: int = 16) -> bench.Workload:
    """Two INT64 predicates over `keys` hot keys each: 50% guarded
    transfers, 30% bumps and 20% read-only `probe(v)` derivations.
    """
    rnd = random.Random(seed)
    sigs = [PredicateSig(f"p{i}", i, (INT64,), (INT64,)) for i in range(2)]
    schema = Schema.from_sigs(sigs)
    db = DbVersion()
    for sig in sigs:
        for k in range(keys):
            db = store_upsert(db, sig, (k,), (rnd.randrange(0, 100),))
    pool = []
    for _ in range(txns):
        p = rnd.choice(sigs).name
        kind = rnd.random()
        if kind < 0.5:
            a, b = rnd.sample(range(keys), 2)
            text, params = TRANSFER, {"a": a, "b": b, "m": rnd.randrange(0, AMOUNT)}
        elif kind < 0.8:
            text, params = BUMP, {"k": rnd.randrange(keys), "d": rnd.randrange(-BUMPD, BUMPD + 1)}
        else:
            text, params = PROBE, {"k": rnd.randrange(keys)}
        pool.append(rulelang.parse_rules(text.format(p=p), schema, params=params))
    return bench.Workload(schema, db, pool, locksets=[])


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="sku_sparse",
            shape="gen_sku, n=20000, alpha=4/sqrt(n): ~4 bump rules per txn",
            workers=1,
            pool=512,
            tail_pct=90,
            min_batches=100,
            why=("almost nothing repairs; time goes to circuit plumbing, scheduler "
                 "bookkeeping and the per-epoch decomposition scan over 20k records"),
            exercises=("engine", "circuit", "signal", "pstore", "domain", "ptree"),
            bypasses=("txn repair", "views", "lftj", "inclftj apply"),
            generate=gen_sku(20_000, 4 / math.sqrt(20_000)),
        ),
        Spec(
            name="sku_dense",
            shape="gen_sku, n=2000, alpha=1: ~45 bump rules per txn, ~1 repair per txn",
            workers=1,
            pool=128,
            tail_pct=50,
            min_batches=4,
            why=("transaction evaluation dominates: overlay rebuilds (patch_tree), "
                 "rule compilation, leapfrog seeks and incremental maintenance"),
            exercises=("txn", "views", "rulelang", "lftj", "inclftj", "signal", "ptree"),
            bypasses=("domain", "pstore scan (2k records)", "thread hand-off"),
            generate=gen_sku(2_000, 1.0),
        ),
        Spec(
            name="transfer_mix",
            shape=("2 INT64 preds x 16 hot keys: 50% guarded transfers, 30% bumps, "
                   "20% read-only probe(v)"),
            workers=2,
            pool=512,
            tail_pct=90,
            min_batches=100,
            why=("writes beside reads on a hot set; constraint failures recover under "
                 "repair; the only workload on the threaded queue and GIL hand-off"),
            exercises=("engine threads", "circuit corr", "txn repair", "inclftj",
                       "lftj out: tuples"),
            bypasses=("pstore scan (32 records)", "domain", "views bulk overlays"),
            generate=gen_transfer_mix,
        ),
    )
}
