"""One transaction's execution unit: isolated evaluation plus repair.

A transaction is a set of rules evaluated against an immutable database
snapshot overlaid with corrections (records other transactions changed
underneath it). Evaluation materializes every rule; repair applies
correction changes through the per-rule sensitivity indexes, so the cost
tracks how much of the transaction's reads actually changed.

Rules read persistent overlays: per predicate, one patch tree of
corrections over the snapshot, one of the transaction's own upserts
(`end:`) over that, and one tuple set per derived predicate (`out:`).
The support counts are the source of truth; each overlay root is derived
from them and path-copied by one insert or remove when its content
changes, so building a rule's views costs O(predicates) and a view a
maintainer keeps as its old inputs stays a true snapshot.

Failure (violated constraint, conflicting upserts, or an upserted tuple
whose key or value fails its predicate's signature, such as int64
arithmetic overflow) empties the requested-delta output but keeps the
sensitivity output, which stays monotone: a failed transaction can
recover when later corrections restore consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import ptree
from .inclftj import RuleMaintainer
from .lftj import Stats, compile_rule
from .pstore import DbVersion, PredicateSig, Schema
from .rulelang import FunAtom, rewrite_for_txn
from .signal import DeltaRecord, SensitivityRecord, upsert
from .values import SchemaError
from .views import UPSERT, OverlayView, TreeView, View, patch_tree, view_lookup

UNEVALUATED = "unevaluated"
EVALUATED = "evaluated"
FAILED = "failed"


@dataclass
class TxnOutputs:
    status: str
    deltas: list  # DeltaRecord upserts this txn requests (empty when failed)
    sens: list  # cumulative SensitivityRecords over db predicate keys
    conflicts: list = field(default_factory=list)
    constraint_hits: int = 0


class TxnExec:
    """Evaluate/repair one transaction against a snapshot + corrections."""

    def __init__(self, schema: Schema, rules, txn_id=0, stats: Optional[Stats] = None):
        self.schema = schema
        self.txn_id = txn_id
        self.rules = list(rules)
        self.stats = stats if stats is not None else Stats()
        self.status = UNEVALUATED
        self.rewritten, self.skeleton = rewrite_for_txn(self.rules, schema)
        self.upserted = sorted(
            {h.atom.pred for r in self.rules for h in r.head if h.is_upsert}
        )
        derived_karity = {}
        for r in self.rules:
            for h in r.head:
                if not h.is_upsert:
                    a = h.atom
                    n = len(a.args) if not isinstance(a, FunAtom) else len(
                        a.key_args + a.value_args
                    )
                    derived_karity[a.pred] = n
        self.compiled = [
            compile_rule(r, schema, frozenset(self.upserted), derived_karity)
            for r in self.rules
        ]
        self._derived_karity = derived_karity
        self.base: Optional[DbVersion] = None
        self.corr: dict = {}  # pred name -> {key: (sign, value)}
        # delta support: pred name -> {key: {value: count}}
        self._delta_support: dict = {}
        # out predicate support: pred name -> {tuple: count}
        self._out_support: dict = {}
        # overlay roots derived from the three dicts above, per pred name:
        # corrections, single-live-value own upserts, live out: tuples
        self._corr_root: dict = {}
        self._end_root: dict = {}
        self._out_root: dict = {}
        self._out_of_range = 0  # live upserted tuples failing their signature
        self.maintainers: list = [None] * len(self.rules)
        self._topo = self.skeleton.topo_order()
        self._read_preds = sorted(
            {
                v.split(":", 1)[1]
                for rr in self.rewritten
                for v in rr.reads
                if v.startswith(("db:", "end:"))
            }
        )

    # ---- view construction ----

    def _db_view(self, pred: str) -> View:
        sig = self.schema.sig(pred)
        base_view = TreeView(
            self.base.root(sig.pred_id) if self.base else None,
            sig.arity,
            len(sig.value_types),
        )
        patch_root = self._corr_root.get(pred)
        if patch_root is not None:
            return OverlayView(base_view, patch_root)
        return base_view

    def _build_views(self) -> dict:
        views: dict = {}
        for pred in self._read_preds:
            views[f"db:{pred}"] = self._db_view(pred)
        for pred in self.upserted:
            base = views.get(f"db:{pred}")
            if base is None:
                base = self._db_view(pred)
            views[f"end:{pred}"] = OverlayView(base, self._end_root.get(pred))
        for pred, root in self._out_root.items():
            views[f"out:{pred}"] = TreeView(root, self._derived_karity[pred], 0)
        return views

    # ---- evaluation ----

    def evaluate(self, base: DbVersion, corrections=()) -> TxnOutputs:
        """Full evaluation on a snapshot plus initial corrections."""
        self.base = base
        self.corr = {}
        self._corr_root = {}  # no overlay built yet: records only fill corr
        for rec, inserted in corrections:
            self._apply_corr_record(rec, inserted)
        self._corr_root = {
            pred: patch_tree(self.corr.get(pred, {}))
            for pred in sorted(set(self._read_preds) | set(self.upserted))
        }
        self._delta_support = {}
        self._out_support = {}
        self._end_root = {}
        self._out_root = {}
        self._out_of_range = 0
        for vertex in self._topo:
            if not vertex.startswith("rule"):
                continue
            i = int(vertex[4:])
            views = self._build_views()
            m = RuleMaintainer(self.compiled[i], views, stats=self.stats)
            self.maintainers[i] = m
            self._apply_rule_output(i, self._full_diffs(m))
        self._refresh_status()
        return self.outputs()

    def _full_diffs(self, m: RuleMaintainer):
        return [
            {t: (0, c) for t, c in counts.items()} for counts in m.head_counts
        ]

    def _apply_corr_record(self, rec: DeltaRecord, inserted: bool):
        """Fold one correction change into `corr` and, once the overlay of
        its predicate is built, path-copy that overlay's root."""
        pred = self.schema.sig_by_id(rec.pred_id).name
        patches = self.corr.setdefault(pred, {})
        entry = (rec.sign, rec.value if rec.sign > 0 else None)
        if inserted:
            patches[rec.key] = entry
        elif patches.get(rec.key) == entry:
            del patches[rec.key]
        else:
            return
        if pred in self._corr_root:
            root = self._corr_root[pred]
            self._corr_root[pred] = (
                ptree.insert(root, rec.key, entry) if inserted else ptree.remove(root, rec.key)
            )

    def _apply_rule_output(self, rule_idx: int, head_diffs) -> dict:
        """Fold one rule's head-count transitions into the shared vertex
        contents and their overlay roots; returns pending changed points
        per downstream vertex."""
        pending: dict = {}
        rule = self.rules[rule_idx]
        for h, diffs in zip(rule.head, head_diffs):
            pred = h.atom.pred
            if h.is_upsert:
                sig = self.schema.sig(pred)
                karity = sig.arity
                support = self._delta_support.setdefault(pred, {})
                root = self._end_root.get(pred)
                touched = pending.setdefault(f"end:{pred}", [])
                for t, (old_c, new_c) in diffs.items():
                    key, value = t[:karity], t[karity:]
                    vals = support.setdefault(key, {})
                    before = next(iter(vals)) if len(vals) == 1 else None
                    was_live = value in vals
                    vals[value] = vals.get(value, 0) + (new_c - old_c)
                    if vals[value] <= 0:
                        del vals[value]
                    if was_live != (value in vals) and not _in_signature(sig, key, value):
                        self._out_of_range += 1 if not was_live else -1
                    # conflicting keys stay out of the overlay; the conflict
                    # fails the txn
                    after = next(iter(vals)) if len(vals) == 1 else None
                    if after != before:
                        root = (
                            ptree.remove(root, key)
                            if after is None
                            else ptree.insert(root, key, (UPSERT, after))
                        )
                    touched.append(t)
                self._end_root[pred] = root
            else:
                support = self._out_support.setdefault(pred, {})
                root = self._out_root.get(pred)
                touched = pending.setdefault(f"out:{pred}", [])
                for t, (old_c, new_c) in diffs.items():
                    was_live = t in support
                    support[t] = support.get(t, 0) + (new_c - old_c)
                    if support[t] <= 0:
                        del support[t]
                        if was_live:
                            root = ptree.remove(root, t)
                    elif not was_live:
                        root = ptree.insert(root, t, ())
                    touched.append(t)
                self._out_root[pred] = root
        return pending

    # ---- repair ----

    def repair(self, corr_changes) -> TxnOutputs:
        """Apply correction signal changes [(DeltaRecord, inserted)]."""
        if self.status == UNEVALUATED:
            raise RuntimeError("repair before evaluate")
        pending: dict = {}
        for rec, inserted in corr_changes:
            pred = self.schema.sig_by_id(rec.pred_id).name
            pts = pending.setdefault(f"db:{pred}", [])
            old_view = self._db_view(pred)
            old_val = view_lookup(old_view, rec.key)
            if old_val is not None:
                pts.append(rec.key + old_val)
            self._apply_corr_record(rec, inserted)
            new_view = self._db_view(pred)
            new_val = view_lookup(new_view, rec.key)
            if new_val is not None:
                pts.append(rec.key + new_val)
            if pred in self.upserted:
                pending.setdefault(f"end:{pred}", []).extend(pts)
        for vertex in self._topo:
            if not vertex.startswith("rule"):
                continue
            i = int(vertex[4:])
            rr = self.rewritten[i]
            touched = {v: pending[v] for v in rr.reads if pending.get(v)}
            if not touched:
                continue
            views = self._build_views()
            report = self.maintainers[i].apply_changes(views, touched, stats=self.stats)
            downstream = self._apply_rule_output(i, report.head_diffs)
            for v, pts in downstream.items():
                pending.setdefault(v, []).extend(pts)
        self._refresh_status()
        return self.outputs()

    # ---- outputs ----

    def _conflicts(self):
        out = []
        for pred, keys in sorted(self._delta_support.items()):
            for key, vals in sorted(keys.items()):
                live = sorted(v for v, c in vals.items() if c > 0)
                if len(live) > 1:
                    out.append((pred, key, tuple(live)))
        return out

    def _refresh_status(self):
        hits = sum(
            m.constraint_hits for m in self.maintainers if m is not None
        )
        failed = hits > 0 or self._out_of_range > 0 or self._conflicts()
        self.status = FAILED if failed else EVALUATED

    def delta_records(self):
        if self.status != EVALUATED:
            return []
        out = []
        for pred, root in sorted(self._end_root.items()):
            pred_id = self.schema.sig(pred).pred_id
            for key, (_sign, value) in ptree.items(root):
                out.append(upsert(pred_id, key, value))
        return out

    def sens_records(self):
        """Cumulative key-space sensitivity over database predicates."""
        seen = set()
        out = []
        for m in self.maintainers:
            if m is None:
                continue
            for e in m.entry_log:
                kind, _, pred = e.vertex.partition(":")
                if kind not in ("db", "end"):
                    continue
                sig = self.schema.sig(pred)
                karity = sig.arity
                rec = SensitivityRecord(sig.pred_id, e.lo[:karity], e.hi[:karity])
                if rec.identity() not in seen:
                    seen.add(rec.identity())
                    out.append(rec)
        return out

    def outputs(self) -> TxnOutputs:
        return TxnOutputs(
            status=self.status,
            deltas=self.delta_records(),
            sens=self.sens_records(),
            conflicts=self._conflicts(),
            constraint_hits=sum(
                m.constraint_hits for m in self.maintainers if m is not None
            ),
        )


def _in_signature(sig: PredicateSig, key: tuple, value: tuple) -> bool:
    try:
        sig.check_key(key)
        sig.check_value(value)
    except SchemaError:
        return False
    return True


def make_null_txn(schema: Schema, txn_id=0) -> TxnExec:
    """A transaction with no rules: evaluates trivially, never fails."""
    return TxnExec(schema, [], txn_id=txn_id)
