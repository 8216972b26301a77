"""Timed runs, the serial oracle check and the metrics they report.

One client submits a workload's transaction pool to `Engine.run` in a
closed loop, one call per batch of `BATCH` transactions. When the pool
is used up, the client starts a new engine over the initial store and
submits the pool again, so every pass does the same work. The run ends
at the first pass boundary after `--seconds` of summed `Engine.run` time
and the workload's minimum batch count.

The oracle is the one-at-a-time executor, `bench.run_serial`, over the
same pool in the same order. Every batch's statuses and every pass's
final state are compared with it. Objects that exist before a timed phase
are frozen out of the cyclic collector's scans (`settle`).

A shared 2-vCPU KVM guest (Intel Xeon) drifts between a fast and a slow
speed, about 1.7x apart, in phases of seconds. So each timed call is
bracketed by a short reference loop, and every reported time is scaled to
a host on which that loop takes `REF_S`. The raw wall times are printed
beside the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from txnrepair import bench
from txnrepair.engine import Engine, EngineConfig
from txnrepair.txn import EVALUATED

import tracing
from workloads import BATCH, SPECS

SETUP_REPS = 3  # set-ups per run: at least this many, and at least SETUP_MIN_S of them
SETUP_MIN_S = 3.0
SERIAL_SHARE = 0.25  # oracle timing passes last at least this share of --seconds
SERIAL_CHUNK = 8  # transactions per timed run_serial call
REF_S = 0.0012  # reported times are scaled to a host whose reference loop takes this long
OUT_DIR = Path(__file__).resolve().parents[1] / "perfbench-out"

END_TO_END = {
    "repair_tps": "txn/s",
    "serial_tps": "txn/s",
    "commit_ms.p50": "ms",
    "commit_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if any(part.endswith("_s") for part in name.split(".")):
        return "s"
    if name.endswith("_share") or ".useful." in name:
        return "share"
    if "_per_" in name or "_over_" in name or name == "trace.overhead":
        return "ratio"
    return "count"


def better_of(name: str) -> str:
    higher = name.endswith("_tps") or ".useful." in name or name == "engine.work_over_span"
    return "higher" if higher else "lower"


def per_layer_names() -> list:
    return [m for metrics, _ in tracing.LAYERS.values() for m in metrics] + ["trace.overhead"]


def pool_batches(wl) -> list:
    return [wl.txns[i : i + BATCH] for i in range(0, len(wl.txns), BATCH)]


# ---- timing ----


def reference_loop(n: int = 2000) -> int:
    """Fixed pure-Python work of the engine's kind (dicts, tuples, a sort)
    that shares no code with the engine."""
    counts: dict = {}
    total = 0
    for i in range(n):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += len(key)
    return total + len(sorted(counts.items()))


def probe() -> float:
    """The reference loop's time now: the fastest of three, so that one
    interrupted loop does not skew it."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Timer:
    """Wall times of measured calls, and the same times scaled by REF_S
    over the reference loop's time around each call."""

    raw: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    _last: tuple = (-math.inf, 0.0)  # (when, reference time) of the latest probe

    def time(self, fn, *args):
        when, before = self._last
        if time.perf_counter() - when > 0.01:  # back-to-back calls share a probe
            before = probe()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            after = probe()
            self._last = (time.perf_counter(), after)
            self.raw.append(dt)
            self.scaled.append(dt * REF_S * 2 / (before + after))

    def speed(self) -> float:
        """Median host speed over the calls, relative to the reference host."""
        return statistics.median(s / r for r, s in zip(self.raw, self.scaled))


# ---- the oracle and the engine runs ----


@dataclass
class Oracle:
    statuses: list  # per pool transaction
    final: object  # the store after one pass over the pool
    timer: Timer  # one entry per chunk of each timed pass
    passes: int
    _hash: str = ""

    def divergence(self, schema, db):
        """None when db equals the oracle's final store, else the first
        differing record: ((pred_id, key), oracle value, engine value)."""
        self._hash = self._hash or bench.state_hash(self.final, schema)
        if bench.state_hash(db, schema) == self._hash:
            return None
        return bench.first_divergence(self.final, db, schema)


def settle():
    """Collect, then freeze every object that exists before a timed
    phase (the harness, the pool, the initial store), so collections
    during timed calls scan only what the measured code allocates."""
    gc.collect()
    gc.freeze()


def run_oracle(wl, min_seconds: float) -> Oracle:
    """Serial passes over the pool until they add up to min_seconds."""
    timer, passes = Timer(), 0
    while passes == 0 or sum(timer.raw) < min_seconds:
        settle()
        db, statuses = wl.db, []
        for i in range(0, len(wl.txns), SERIAL_CHUNK):
            chunk = bench.Workload(wl.schema, db, wl.txns[i : i + SERIAL_CHUNK], [])
            rep = timer.time(bench.run_serial, chunk)
            db = rep.db
            statuses.extend(rep.statuses)
        passes += 1
    return Oracle(statuses, db, timer, passes)


@dataclass
class Outcome:
    timer: Timer = field(default_factory=Timer)  # one entry per Engine.run call
    statuses: list = field(default_factory=list)  # per admitted txn; None if its batch raised
    passes: list = field(default_factory=list)  # per pass: divergence from the oracle or None
    raised: list = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return len(self.statuses)

    def pass_s(self) -> list:
        n = len(self.timer.scaled) // len(self.passes)
        return [sum(self.timer.scaled[i : i + n]) for i in range(0, len(self.timer.scaled), n)]


def run_repair(wl, oracle: Oracle, workers: int, seconds: float, min_batches: int,
               engine=Engine) -> Outcome:
    """Whole passes over the pool until --seconds of Engine.run time and
    min_batches calls are reached, so every run holds the same batch mix."""
    out = Outcome()
    total = 0.0
    while not out.passes or total < seconds or len(out.timer.raw) < min_batches:
        settle()
        eng = engine(wl.schema, wl.db, EngineConfig(workers=workers))
        for batch in pool_batches(wl):
            try:
                statuses = out.timer.time(eng.run, batch).statuses
            except Exception as exc:  # counted as wrong, reported by main
                statuses = [None] * len(batch)
                out.raised.append(repr(exc))
            out.statuses.extend(statuses)
            total += out.timer.raw[-1]
        out.passes.append(oracle.divergence(wl.schema, eng.db))
    return out


def run_pass(wl, oracle: Oracle, workers: int) -> Outcome:
    """Exactly one pass over the pool."""
    return run_repair(wl, oracle, workers, 0.0, 0)


def count_wrong(oracle: Oracle, out: Outcome):
    """(wrong transactions, first divergence or None). A pass whose final
    state differs from the oracle's makes every transaction wrong."""
    for divergence in out.passes:
        if divergence is not None:
            return out.admitted, divergence
    n = len(oracle.statuses)
    return sum(1 for i, st in enumerate(out.statuses) if st != oracle.statuses[i % n]), None


# ---- metrics ----


def percentile(xs, pct: int) -> float:
    """Nearest-rank percentile."""
    ys = sorted(xs)
    return ys[max(0, math.ceil(pct / 100 * len(ys)) - 1)]


def end_to_end(spec, setup: Timer, oracle: Oracle, out: Outcome, scaled=True) -> dict:
    pick = (lambda t: t.scaled) if scaled else (lambda t: t.raw)
    batch_s = pick(out.timer)
    return {
        "repair_tps": out.admitted / sum(batch_s),
        "serial_tps": oracle.passes * len(oracle.statuses) / sum(pick(oracle.timer)),
        "commit_ms.p50": 1000 * percentile(batch_s, 50),
        "commit_ms.tail": 1000 * percentile(batch_s, spec.tail_pct),
        "setup_s": statistics.median(pick(setup)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def describe_tail(spec, batches: int) -> str:
    if spec.tail_pct == 50:
        return f"median: {batches} batches are too few for a tail"
    beyond = batches - math.ceil(spec.tail_pct / 100 * batches)
    return f"p{spec.tail_pct}, {beyond} of {batches} batches beyond it"


def traced_metrics(spec, wl, oracle: Oracle, out: Outcome, seed: int):
    """Replay one pool pass traced, plus one at 1 worker for the work/span
    ratio when the workload runs more. Returns (metrics, traced outcomes)."""
    with tracing.Tracer() as tracer:
        traced = run_pass(wl, oracle, spec.workers)
    outcomes = [traced]
    t = traced.timer
    scale = {i: s / r for i, (r, s) in enumerate(zip(t.raw, t.scaled))}
    metrics = tracing.layer_metrics(tracer, traced.admitted, traced.statuses, scale)
    untraced = statistics.median(out.pass_s())
    metrics["trace.overhead"] = sum(t.scaled) / untraced
    spans = tracer.spans()
    if spec.workers != 1:
        with tracing.Tracer() as single:
            outcomes.append(run_pass(wl, oracle, 1))
        spans = single.spans()
    metrics["engine.work_over_span"] = tracing.work_over_span(spans)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{spec.name}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"spans written to {OUT_DIR.name}/{path.name}")
    return metrics, outcomes


def main(argv=None, engine=Engine) -> int:
    ap = argparse.ArgumentParser(prog="perfbench", description="txnrepair benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = SPECS[args.workload]

    setup = Timer()
    if args.trace:
        with tracing.Tracer() as setup_tracer:
            wl = setup.time(spec.build, args.seed)
        parse_s = sum(s.dur for s in setup_tracer.spans() if s.name == "rulelang.parse_rules")
        parse_s *= setup.scaled[0] / setup.raw[0]
    else:
        while len(setup.raw) < SETUP_REPS or sum(setup.raw) < SETUP_MIN_S:
            wl = None
            settle()
            wl = setup.time(spec.build, args.seed)
    oracle = run_oracle(wl, SERIAL_SHARE * args.seconds)
    out = run_repair(wl, oracle, spec.workers, args.seconds, spec.min_batches, engine)
    wrong, divergence = count_wrong(oracle, out)
    attempted = out.admitted
    outcomes = [out]
    aborts = sum(1 for st in oracle.statuses if st != EVALUATED) / len(oracle.statuses)
    e2e = end_to_end(spec, setup, oracle, out)

    print(f"workload {spec.name}: {spec.shape}; {spec.workers} worker(s), seed {args.seed}")
    print(f"  why: {spec.why}")
    print(f"  exercises {', '.join(spec.exercises)}; bypasses {', '.join(spec.bypasses)}")
    print(f"host speed {out.timer.speed():.3f} of the reference host during the engine runs "
          f"({oracle.timer.speed():.3f} during the serial passes); times are scaled to it")
    if args.trace:
        metrics, traced = traced_metrics(spec, wl, oracle, out, args.seed)
        metrics["rulelang.parse_s"] = parse_s
        metrics["engine.repair_over_serial"] = e2e["serial_tps"] / e2e["repair_tps"]
        outcomes += traced
        for replay in traced:
            replay_wrong, replay_div = count_wrong(oracle, replay)
            attempted += replay.admitted
            wrong += replay_wrong
            divergence = divergence or replay_div
        for layer, (names, moves) in tracing.LAYERS.items():
            print(f"[{layer}] should move: {moves}")
            for name in names:
                print(f"  {name:32s} {metrics[name]:.6g} {unit_of(name)}")
        print(f"  {'trace.overhead':32s} {metrics['trace.overhead']:.6g} ratio")
        names = per_layer_names()
    else:
        metrics = e2e
        raw = end_to_end(spec, setup, oracle, out, scaled=False)
        samples = {
            "repair_tps": f"{attempted} txns in {len(out.timer.raw)} Engine.run calls",
            "serial_tps": f"{oracle.passes} serial passes of {len(oracle.statuses)} txns",
            "commit_ms.p50": f"{len(out.timer.raw)} batches",
            "commit_ms.tail": describe_tail(spec, len(out.timer.raw)),
            "setup_s": f"median of {len(setup.raw)} set-ups",
            "peak_rss_mb": "ru_maxrss",
        }
        for name, unit in END_TO_END.items():
            print(f"{name:16s} {metrics[name]:12.4f} {unit:6s} (raw {raw[name]:.4f}; {samples[name]})")
        names = list(END_TO_END)
    print(f"{'error_rate':16s} {wrong / attempted:12.4f} share  ({wrong} of {attempted} txns)")
    print(f"{'txn.abort_share':16s} {aborts:12.4f} share  (constraint aborts agreeing with the oracle)")
    for exc in (exc for o in outcomes for exc in o.raised):
        print(f"batch raised: {exc}", file=sys.stderr)
    if divergence is not None:
        print(f"state differs from the serial oracle; first divergence "
              f"((pred_id, key), oracle value, engine value): {divergence}", file=sys.stderr)
    correct = wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }))
    return 0 if correct else 1
