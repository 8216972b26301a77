"""Per-layer tracing from outside the engine.

`Tracer` wraps each module's public entry points at the name its caller
resolves (a `from .x import y` binds `y` in the importing module, so the
wrapper goes there) and records a span per call: name, start, end,
parent, thread and batch. Spans stay in memory until the run ends. A
span's self time is its duration minus the part of it that its child
spans cover. Counts come from the wrappers, never from `EngineMetrics`.

Recursive `ptree` functions are counted, not timed, and only at their
outermost call: the wrappers sit on a copy of the `ptree` module that
the callers' modules see, so the recursion inside `ptree` never passes
through them.
"""

from __future__ import annotations

import json
import threading
import time
import types
from collections import defaultdict

from txnrepair import bench, circuit, engine, inclftj, pstore, ptree, rulelang, signal, txn, views

KINDS = ("txn", "dmerge", "smerge", "corr")
SIGNAL_KINDS = ("delta", "sens", "corr")
REFRESH_CLASSES = {
    "txn": circuit.TxnOp,
    "dmerge": circuit.DeltaMergeOp,
    "smerge": circuit.SensMergeOp,
    "corr": circuit.CorrOp,
}

# layer -> (its metrics, the end-to-end metric and workload it should move)
LAYERS = {
    "engine": (
        ("engine.epochs", "engine.sched_s", "engine.sched_share",
         "engine.refreshes_per_txn", "engine.repair_over_serial", "engine.work_over_span"),
        "repair_tps and commit_ms.* on sku_sparse (_note_prefix has no span of its own) "
        "and transfer_mix (thread hand-off); almost nothing on sku_dense",
    ),
    "circuit": (
        tuple(f"circuit.{m}.{k}" for k in KINDS for m in ("refreshes", "self_s", "useful"))
        + ("circuit.wire_s",),
        "repair_tps on sku_sparse (merge refreshes) and transfer_mix (corr)",
    ),
    "signal": (
        tuple(f"signal.{m}.{k}" for k in SIGNAL_KINDS for m in ("publishes", "published_records"))
        + ("signal.publish_s", "signal.pulls", "signal.pulled_records",
           "signal.empty_pull_share", "signal.pull_s"),
        "repair_tps on sku_sparse and sku_dense",
    ),
    "txn": (
        ("txn.inits", "txn.init_s", "txn.evaluates", "txn.evaluate_self_s", "txn.repairs",
         "txn.repairs_per_txn", "txn.repair_self_s", "txn.outputs_s", "txn.abort_share"),
        "serial_tps and repair_tps on sku_dense; nothing on sku_sparse",
    ),
    "views": (
        ("views.patch_calls", "views.patch_entries", "views.patch_s", "views.lookups"),
        "serial_tps and repair_tps on sku_dense; about 0% of time on sku_sparse",
    ),
    "rulelang": (
        ("rulelang.parse_s", "rulelang.rewrite_calls", "rulelang.rewrite_s"),
        "repair_tps on sku_dense (template reuse); parse_s moves setup_s",
    ),
    "lftj": (
        ("lftj.compile_calls", "lftj.compile_s", "lftj.eval_calls", "lftj.eval_s",
         "lftj.seeks", "lftj.bindings", "lftj.seeks_per_binding"),
        "serial_tps and repair_tps on sku_dense",
    ),
    "inclftj": (
        ("inclftj.full_evals", "inclftj.full_eval_s", "inclftj.applies", "inclftj.apply_s",
         "inclftj.contexts", "inclftj.stabs"),
        "repair_tps on sku_dense and transfer_mix",
    ),
    "pstore": (
        ("pstore.commits", "pstore.commit_records", "pstore.commit_s",
         "pstore.scan_records", "pstore.scan_s"),
        "commit_ms.* and repair_tps on sku_sparse (20k records scanned per epoch); "
        "nothing on transfer_mix",
    ),
    "domain": (
        ("domain.builds", "domain.build_s"),
        "commit_ms.* on sku_sparse",
    ),
    "ptree": (
        ("ptree.inserts", "ptree.removes", "ptree.bulk_builds"),
        "repair_tps on sku_dense and sku_sparse (bulk join)",
    ),
}

# span name -> the self-time metric it lands in; every span recorded
# inside Engine.run has exactly one entry here
SELF_TIME = {
    "engine.run": "engine.sched_s",
    "circuit.build_tree": "circuit.wire_s",
    "circuit.wire_tree": "circuit.wire_s",
    **{f"circuit.refresh.{k}": f"circuit.self_s.{k}" for k in KINDS},
    **{f"signal.publish.{k}": "signal.publish_s" for k in SIGNAL_KINDS},
    "signal.pull": "signal.pull_s",
    "txn.init": "txn.init_s",
    "txn.evaluate": "txn.evaluate_self_s",
    "txn.repair": "txn.repair_self_s",
    "txn.outputs": "txn.outputs_s",
    "views.patch_tree": "views.patch_s",
    "rulelang.rewrite_for_txn": "rulelang.rewrite_s",
    "lftj.compile_rule": "lftj.compile_s",
    "lftj.eval_rule": "lftj.eval_s",
    "inclftj.full_eval": "inclftj.full_eval_s",
    "inclftj.apply_changes": "inclftj.apply_s",
    "pstore.apply_deltas": "pstore.commit_s",
    "pstore.full_scan": "pstore.scan_s",
    "domain.build_decomposition": "domain.build_s",
    "rulelang.parse_rules": "rulelang.parse_s",  # set-up only, outside Engine.run
}


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "thread", "batch", "n", "cause")

    def __init__(self, name, parent, thread, batch):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.batch = batch
        self.n = 0  # records or outcomes the call handled, per span name
        self.cause = None  # refreshes: the refresh that last published an input

    @property
    def dur(self):
        return self.t1 - self.t0


class _ThreadState:
    def __init__(self):
        self.stack: list = []
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.refresh = None  # innermost running refresh span


class Tracer:
    """Install with `with Tracer() as t:`; wrappers are removed on exit."""

    def __init__(self):
        self._local = threading.local()
        self._states: list = []
        self._patches: list = []
        self._root = None  # the running Engine.run span
        self._batch = -1
        self._last_pub: dict = {}  # id(signal) -> (refresh span, time)
        self.txn_stats = defaultdict(int)  # lftj seeks/bindings from TxnExec.stats
        self._new_txns: list = []

    # ---- recording ----

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def _begin(self, st, name):
        parent = st.stack[-1] if st.stack else self._root
        span = Span(name, parent, threading.get_ident(), self._batch)
        st.stack.append(span)
        span.t0 = time.perf_counter()
        return span

    @staticmethod
    def _end(st, span):
        span.t1 = time.perf_counter()
        st.stack.pop()
        st.spans.append(span)

    def _timed(self, name, fn, measure=None):
        def wrapper(*args, **kwargs):
            st = self._state()
            span = self._begin(st, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(st, span)
            if measure is not None:
                span.n = measure(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self._state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _scan(self, fn):
        """full_scan is a generator; materialize it inside the span so the
        consumer's loop body is not billed to the scan."""
        timed = self._timed("pstore.full_scan", lambda *a: list(fn(*a)), lambda a, r: len(r))
        return lambda *args: iter(timed(*args))

    def _run(self, fn):
        def run(eng, txns):
            st = self._state()
            self._batch += 1
            span = self._begin(st, "engine.run")
            self._root = span
            try:
                return fn(eng, txns)
            finally:
                self._root = None
                self._end(st, span)
                for t in self._new_txns:
                    self.txn_stats["seeks"] += t.stats.seeks
                    self.txn_stats["bindings"] += t.stats.bindings
                self._new_txns.clear()

        return run

    def _txn_init(self, fn):
        timed = self._timed("txn.init", fn)

        def init(t, *args, **kwargs):
            timed(t, *args, **kwargs)
            self._new_txns.append(t)

        return init

    def _refresh(self, name, fn):
        last_pub = self._last_pub

        def refresh(op):
            st = self._state()
            span = self._begin(st, name)
            best = None
            for sig in op.input_signals:
                pub = last_pub.get(id(sig))
                if pub is not None and (best is None or pub[1] > best[1]):
                    best = pub
            span.cause = best[0] if best else None
            outer, st.refresh = st.refresh, span
            try:
                changed = fn(op)
            finally:
                st.refresh = outer
                self._end(st, span)
            span.n = 1 if changed else 0
            return changed

        return refresh

    def _publish(self, fn):
        def publish(sig, inserts=(), removes=()):
            inserts, removes = list(inserts), list(removes)
            st = self._state()
            v0 = sig.latest
            span = self._begin(st, "signal.publish." + sig.kind)
            try:
                v1 = fn(sig, inserts, removes)
            finally:
                self._end(st, span)
            if v1 != v0:
                span.n = len(inserts) + len(removes)
                self._last_pub[id(sig)] = (st.refresh, span.t1)
            return v1

        return publish

    def _build_tree(self, fn):
        timed = self._timed("circuit.build_tree", fn)

        def build_tree(*args):
            self._last_pub.clear()  # a new epoch's signals may reuse ids
            return timed(*args)

        return build_tree

    # ---- installing ----

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        p = self._patch
        p(engine.Engine, "run", self._run(engine.Engine.run))
        p(engine, "build_tree", self._build_tree(engine.build_tree))
        p(engine, "wire_tree", self._timed("circuit.wire_tree", engine.wire_tree))
        p(engine, "full_scan", self._scan(engine.full_scan))
        p(engine, "build_decomposition",
          self._timed("domain.build_decomposition", engine.build_decomposition))
        p(engine, "apply_deltas",
          self._timed("pstore.apply_deltas", engine.apply_deltas, lambda a, r: len(a[2])))
        for kind, cls in REFRESH_CLASSES.items():
            p(cls, "refresh", self._refresh(f"circuit.refresh.{kind}", cls.refresh))
        p(signal.VersionedSignal, "publish", self._publish(signal.VersionedSignal.publish))
        p(signal.SignalCursor, "pull",
          self._timed("signal.pull", signal.SignalCursor.pull, lambda a, r: len(r)))
        p(txn.TxnExec, "__init__", self._txn_init(txn.TxnExec.__init__))
        p(txn.TxnExec, "evaluate", self._timed("txn.evaluate", txn.TxnExec.evaluate))
        p(txn.TxnExec, "repair", self._timed("txn.repair", txn.TxnExec.repair))
        p(txn.TxnExec, "outputs", self._timed("txn.outputs", txn.TxnExec.outputs))
        p(txn, "patch_tree",
          self._timed("views.patch_tree", txn.patch_tree, lambda a, r: len(a[0])))
        p(txn, "view_lookup", self._counted("views.view_lookup", txn.view_lookup))
        p(txn, "rewrite_for_txn", self._timed("rulelang.rewrite_for_txn", txn.rewrite_for_txn))
        p(txn, "compile_rule", self._timed("lftj.compile_rule", txn.compile_rule))
        for mod in (bench, rulelang):
            p(mod, "parse_rules", self._timed("rulelang.parse_rules", mod.parse_rules))
        p(inclftj, "eval_rule", self._timed("lftj.eval_rule", inclftj.eval_rule))
        p(inclftj.RuleMaintainer, "__init__",
          self._timed("inclftj.full_eval", inclftj.RuleMaintainer.__init__))
        p(inclftj.RuleMaintainer, "apply_changes",
          self._timed("inclftj.apply_changes", inclftj.RuleMaintainer.apply_changes,
                      lambda a, r: len(r.contexts)))
        p(inclftj.IntervalIndex, "stab",
          self._counted("inclftj.stab", inclftj.IntervalIndex.stab))
        counted = types.ModuleType(ptree.__name__)
        counted.__dict__.update(ptree.__dict__)
        counted.insert = self._counted("ptree.insert", ptree.insert)
        counted.remove = self._counted("ptree.remove", ptree.remove)
        counted.from_sorted = self._counted("ptree.from_sorted", ptree.from_sorted)
        for mod in (views, signal, pstore, txn):
            p(mod, "ptree", counted)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ---- reading ----

    def spans(self) -> list:
        return sorted((s for st in self._states for s in st.spans), key=lambda s: s.t0)

    def counts(self) -> dict:
        out: dict = defaultdict(int)
        for st in self._states:
            for name, c in st.counts.items():
                out[name] += c
        return out

    def run_wall(self) -> float:
        return sum(s.dur for s in self.spans() if s.name == "engine.run")

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, thread, batch."""
        spans = self.spans()
        index = {id(s): i for i, s in enumerate(spans)}
        with open(path, "w") as f:
            for s in spans:
                parent = index.get(id(s.parent)) if s.parent is not None else None
                f.write(json.dumps([s.name, s.t0, s.t1, parent, s.thread, s.batch]) + "\n")


def self_times(spans) -> dict:
    """id(span) -> duration minus the union of its children's intervals
    (children of Engine.run on several worker threads may overlap)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0.0, None
        for t0, t1 in sorted(children.get(id(s), ())):
            if end is None or t0 > end:
                covered += t1 - t0
                end = t1
            elif t1 > end:
                covered += t1 - end
                end = t1
        out[id(s)] = s.dur - covered
    return out


def work_over_span(spans) -> float:
    """Total refresh work over the heaviest causal chain, summed per batch.

    A refresh's causal parent is the refresh that last published to one
    of its input signals before it started; a refresh weighs its wall
    time, including the calls it makes.
    """
    chain: dict = {}
    work: dict = defaultdict(float)
    span_len: dict = defaultdict(float)
    for s in spans:  # sorted by start, so a cause is weighed before its effects
        if not s.name.startswith("circuit.refresh."):
            continue
        w = s.dur + (chain.get(id(s.cause), 0.0) if s.cause is not None else 0.0)
        chain[id(s)] = w
        work[s.batch] += s.dur
        span_len[s.batch] = max(span_len[s.batch], w)
    return sum(work.values()) / sum(span_len.values())


def layer_metrics(tracer: Tracer, admitted: int, statuses, scale=None) -> dict:
    """Every per-layer metric except those measured outside the trace
    (rulelang.parse_s, engine.repair_over_serial, engine.work_over_span).
    scale: batch -> factor applied to that batch's self times."""
    scale = scale or {}
    spans = tracer.spans()
    counts = tracer.counts()
    selfs = self_times(spans)
    calls: dict = defaultdict(int)
    items: dict = defaultdict(int)
    empty: dict = defaultdict(int)
    m: dict = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        items[s.name] += s.n
        if s.n == 0:
            empty[s.name] += 1
        m[SELF_TIME[s.name]] += selfs[id(s)] * scale.get(s.batch, 1.0)
    run_wall = sum(s.dur * scale.get(s.batch, 1.0) for s in spans if s.name == "engine.run")
    refreshes = sum(calls[f"circuit.refresh.{k}"] for k in KINDS)
    m["engine.epochs"] = calls["circuit.build_tree"]
    m["engine.sched_share"] = m["engine.sched_s"] / run_wall
    m["engine.refreshes_per_txn"] = refreshes / admitted
    for k in KINDS:
        name = f"circuit.refresh.{k}"
        m[f"circuit.refreshes.{k}"] = calls[name]
        m[f"circuit.useful.{k}"] = items[name] / calls[name] if calls[name] else 0.0
    for k in SIGNAL_KINDS:
        m[f"signal.publishes.{k}"] = calls[f"signal.publish.{k}"]
        m[f"signal.published_records.{k}"] = items[f"signal.publish.{k}"]
    m["signal.pulls"] = calls["signal.pull"]
    m["signal.pulled_records"] = items["signal.pull"]
    m["signal.empty_pull_share"] = empty["signal.pull"] / calls["signal.pull"]
    m["txn.inits"] = calls["txn.init"]
    m["txn.evaluates"] = calls["txn.evaluate"]
    m["txn.repairs"] = calls["txn.repair"]
    m["txn.repairs_per_txn"] = calls["txn.repair"] / admitted
    m["txn.abort_share"] = sum(1 for st in statuses if st != txn.EVALUATED) / admitted
    m["views.patch_calls"] = calls["views.patch_tree"]
    m["views.patch_entries"] = items["views.patch_tree"]
    m["views.lookups"] = counts["views.view_lookup"]
    m["rulelang.rewrite_calls"] = calls["rulelang.rewrite_for_txn"]
    m["lftj.compile_calls"] = calls["lftj.compile_rule"]
    m["lftj.eval_calls"] = calls["lftj.eval_rule"]
    m["lftj.seeks"] = tracer.txn_stats["seeks"]
    m["lftj.bindings"] = tracer.txn_stats["bindings"]
    m["lftj.seeks_per_binding"] = m["lftj.seeks"] / max(m["lftj.bindings"], 1)
    m["inclftj.full_evals"] = calls["inclftj.full_eval"]
    m["inclftj.applies"] = calls["inclftj.apply_changes"]
    m["inclftj.contexts"] = items["inclftj.apply_changes"]
    m["inclftj.stabs"] = counts["inclftj.stab"]
    m["pstore.commits"] = calls["pstore.apply_deltas"]
    m["pstore.commit_records"] = items["pstore.apply_deltas"]
    m["pstore.scan_records"] = items["pstore.full_scan"]
    m["domain.builds"] = calls["domain.build_decomposition"]
    m["ptree.inserts"] = counts["ptree.insert"]
    m["ptree.removes"] = counts["ptree.remove"]
    m["ptree.bulk_builds"] = counts["ptree.from_sorted"]
    return dict(m)
