"""One transaction's execution unit: isolated evaluation plus repair.

A transaction is a set of rules evaluated against an immutable database
snapshot overlaid with corrections (records other transactions changed
underneath it). Corrections arrive as a signal pull: each changed record
identity `(pred_id, key)` with its current value tuple, or None when the
correction is withdrawn. Evaluation materializes every rule; repair
applies correction changes through the per-rule sensitivity indexes, so
the cost tracks how much of the transaction's reads actually changed.

Rules bound from one template (see `rulelang`) share a compiled plan:
the constructor compiles each distinct template once, and each rule's
maintainer evaluates that plan with the rule's own bound `$param`
values (`Rule.args`).

Evaluation and repair run the rules in dependency order, read off their
plans: a rule runs after every rule that writes a vertex it reads
(`rulelang.atom_vertex`), ties broken by rule index.

Rules read persistent overlays: per predicate, one patch tree of
corrected values over the snapshot, one of the transaction's own upserts
(`end:`) over that, and one tuple set per derived predicate (`out:`).
The correction overlays, one per predicate some rule reads or upserts,
are the transaction's only copy of its corrections (corrections to other
predicates are dropped); the other two are derived from support counts.
Each root is path-copied by one insert or remove when its content
changes, so building a rule's views costs O(predicates) and a view a
maintainer keeps as its old inputs stays a true snapshot.

Outputs are changes: each `outputs()` call, which `evaluate` and
`repair` end with, drains what changed since the previous one, the
requested deltas as `(identity, value or None)` pairs, the format
signal pulls use, and the sensitivity intervals `(pred_id, lo, hi)` not
reported before. A relation's value is `()`, so absence is tested with
`is None`.

Failure (violated constraint, conflicting upserts, or an upserted tuple
whose key or value fails its predicate's signature, such as int64
arithmetic overflow) withdraws its published deltas but keeps the
sensitivity output, which stays monotone: a failed transaction can
recover when later corrections restore consistency.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import ptree
from .inclftj import RuleMaintainer
from .lftj import Stats, compile_rule
from .pstore import DbVersion, PredicateSig, Schema
from .rulelang import atom_terms
from .values import SchemaError
from .views import OverlayView, TreeView, View, patch_tree, view_lookup

UNEVALUATED = "unevaluated"
EVALUATED = "evaluated"
FAILED = "failed"


@dataclass
class TxnOutputs:
    """What changed in a transaction's outputs since the previous drain."""

    status: str
    # [((pred_id, key), value, or None when withdrawn)], in identity
    # order; folded in order, they give the requested deltas, which are
    # empty unless the status is EVALUATED
    deltas: list
    sens: list  # (pred_id, lo, hi) intervals of db keys not reported before


class TxnExec:
    """Evaluate/repair one transaction against a snapshot + corrections."""

    def __init__(self, schema: Schema, rules, txn_id=0, stats: Optional[Stats] = None):
        self.schema = schema
        self.txn_id = txn_id
        self.rules = list(rules)
        self.stats = stats if stats is not None else Stats()
        self.status = UNEVALUATED
        self.upserted, self._derived_arity = rewrite_for_txn(self.rules, schema)
        self._upserted_ids = sorted((schema.sig(p).pred_id, p) for p in self.upserted)
        # a compiled rule reads its bindings at evaluation, and the rules
        # bound from one template share its head and body objects: compile
        # each template once, keyed by their identities, which are stable
        # while self.rules holds them and cheaper than hashing the ASTs
        upserted = frozenset(self.upserted)
        plans: dict = {}
        self.compiled = []
        for r in self.rules:
            key = (id(r.head), id(r.body))
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = compile_rule(r, schema, upserted)
            self.compiled.append(plan)
        self._reads, self._order = _order_rules(self.rules, self.compiled, self._derived_arity)
        self._read_preds = sorted(
            {v.split(":", 1)[1] for rs in self._reads for v in rs if not v.startswith("out:")}
        )
        self.base: Optional[DbVersion] = None
        # delta support: pred name -> {key: {value: count}}
        self._delta_support: dict = {}
        # out predicate support: pred name -> {tuple: count}
        self._out_support: dict = {}
        # overlay roots per pred name: corrections, and, derived from the
        # two dicts above, single-live-value own upserts and live out: tuples
        self._corr_root: dict = {}
        self._end_root: dict = {}
        self._out_root: dict = {}
        self._out_of_range = 0  # live upserted tuples failing their signature
        self._conflicted = 0  # upserted keys with more than one live value
        self._hits = 0  # live constraint violations, summed over the rules
        self.maintainers: list = [None] * len(self.rules)
        # drain state: identities whose end: overlay entry moved, the end:
        # roots the last drain reported (None when it reported no deltas),
        # and per maintainer the entry_log offset reported so far
        self._moved: set = set()
        self._reported: Optional[dict] = None
        self._sens_offsets = [0] * len(self.rules)
        self._sens_seen: set = set()

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
            views[f"out:{pred}"] = TreeView(root, self._derived_arity[pred], 0)
        return views

    # ---- evaluation ----

    def evaluate(self, base: DbVersion, corrections=()) -> TxnOutputs:
        """Full evaluation, once, on a snapshot plus initial corrections, a
        pull [((pred_id, key), value)] from an empty start."""
        if self.status != UNEVALUATED:
            raise RuntimeError("evaluate twice")
        self.base = base
        patches: dict = {}  # pred_id -> {key: value}
        for (pred_id, key), value in corrections:
            patches.setdefault(pred_id, {})[key] = value
        self._corr_root = {
            pred: patch_tree(patches.get(self.schema.sig(pred).pred_id, {}))
            for pred in sorted(set(self._read_preds) | set(self.upserted))
        }
        for i in self._order:
            views = self._build_views()
            m = RuleMaintainer(self.compiled[i], views, self.rules[i].args, stats=self.stats)
            self.maintainers[i] = m
            self._hits += m.constraint_hits
            self._apply_rule_output(i, self._full_diffs(m))
        self._refresh_status()
        return self.outputs()

    def _full_diffs(self, m: RuleMaintainer):
        return [
            {t: (0, c) for t, c in counts.items()} for counts in m.head_counts
        ]

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
                    conflicted = len(vals) > 1
                    vals[value] = vals.get(value, 0) + (new_c - old_c)
                    if vals[value] <= 0:
                        del vals[value]
                    if was_live != (value in vals) and not _in_signature(sig, key, value):
                        self._out_of_range += 1 if not was_live else -1
                    self._conflicted += (len(vals) > 1) - conflicted
                    # conflicting keys stay out of the overlay; the conflict
                    # fails the txn
                    after = next(iter(vals)) if len(vals) == 1 else None
                    if after != before:
                        root = (
                            ptree.remove(root, key)
                            if after is None
                            else ptree.insert(root, key, after)
                        )
                        self._moved.add((sig.pred_id, key))
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
        """Apply a correction pull [((pred_id, key), value or None)]:
        path-copy the predicate's overlay with one insert, or one remove
        when the correction is withdrawn."""
        if self.status == UNEVALUATED:
            raise RuntimeError("repair before evaluate")
        pending: dict = {}
        for (pred_id, key), value in corr_changes:
            pred = self.schema.sig_by_id(pred_id).name
            if pred not in self._corr_root:
                continue  # no rule reads or upserts pred
            pts = pending.setdefault(f"db:{pred}", [])
            old_val = view_lookup(self._db_view(pred), key)
            if old_val is not None:
                pts.append(key + old_val)
            root = self._corr_root[pred]
            self._corr_root[pred] = (
                ptree.remove(root, key) if value is None
                else ptree.insert(root, key, value)
            )
            new_val = view_lookup(self._db_view(pred), key)
            if new_val is not None:
                pts.append(key + new_val)
            if pred in self.upserted:
                pending.setdefault(f"end:{pred}", []).extend(pts)
        for i in self._order:
            touched = {v: pending[v] for v in self._reads[i] if pending.get(v)}
            if not touched:
                continue
            views = self._build_views()
            report = self.maintainers[i].apply_changes(views, touched, stats=self.stats)
            self._hits += report.constraint_delta
            downstream = self._apply_rule_output(i, report.head_diffs)
            for v, pts in downstream.items():
                pending.setdefault(v, []).extend(pts)
        self._refresh_status()
        return self.outputs()

    # ---- outputs ----

    def _refresh_status(self):
        failed = self._hits or self._out_of_range or self._conflicted
        self.status = FAILED if failed else EVALUATED

    def outputs(self) -> TxnOutputs:
        """Drain what changed since the previous call (since evaluate,
        for the first call)."""
        return TxnOutputs(self.status, self._delta_changes(), self._sens_changes())

    def _delta_changes(self):
        old = self._reported
        new = dict(self._end_root) if self.status == EVALUATED else None
        self._reported = new
        moved, self._moved = self._moved, set()
        out = []
        if old is None or new is None:
            # first drain or a status flip: every key of the side that
            # holds deltas changes; walk its roots in identity order
            live = new is not None
            roots = new if live else old or {}
            for pred_id, pred in self._upserted_ids:
                for key, value in ptree.items(roots.get(pred)):
                    out.append(((pred_id, key), value if live else None))
            return out
        for pred_id, key in sorted(moved):
            pred = self.schema.sig_by_id(pred_id).name
            cur = ptree.get(new.get(pred), key)
            if cur != ptree.get(old.get(pred), key):
                out.append(((pred_id, key), cur))
        return out

    def _sens_changes(self):
        """Key-space sensitivity over database predicates absorbed since
        the last drain."""
        out = []
        for i, m in enumerate(self.maintainers):
            if m is None:
                continue
            for e in m.entry_log[self._sens_offsets[i]:]:
                kind, _, pred = e.vertex.partition(":")
                if kind not in ("db", "end"):
                    continue
                sig = self.schema.sig(pred)
                karity = sig.arity
                ident = (sig.pred_id, e.lo[:karity], e.hi[:karity])
                if ident not in self._sens_seen:
                    self._sens_seen.add(ident)
                    out.append(ident)
            self._sens_offsets[i] = len(m.entry_log)
        return out


def _in_signature(sig: PredicateSig, key: tuple, value: tuple) -> bool:
    try:
        sig.check_key(key)
        sig.check_value(value)
    except SchemaError:
        return False
    return True


def rewrite_for_txn(rules, schema: Schema):
    """One pass over the heads: the sorted upserted predicates and the
    arity of each derived one. Rejects a database write without `^`, an
    upsert outside the schema and a derived predicate at two arities.
    The name stays because perfbench's tracer wraps it by name."""
    upserted, derived = set(), {}
    for rule in rules:
        for h in rule.head:
            a = h.atom
            if h.is_upsert and a.pred not in schema:
                raise SchemaError(f"^ upserts {a.pred}, which is not a database predicate")
            if not h.is_upsert and a.pred in schema:
                raise SchemaError(f"head writes database predicate {a.pred} without ^ upsert")
            if h.is_upsert:
                upserted.add(a.pred)
            else:
                _note_arity(derived, a.pred, len(atom_terms(a)))
    return sorted(upserted), derived


def _note_arity(derived, pred, n):
    """Note derived predicate `pred` used at arity `n`; rejects a second arity."""
    if derived.setdefault(pred, n) != n:
        raise SchemaError(f"derived predicate {pred} used at arities {derived[pred]} and {n}")


def _order_rules(rules, compiled, derived):
    """Each rule's distinct read vertices, from its plan, and the rule
    indexes in dependency order (Kahn's algorithm, ties broken by index).
    Rejects a read of an undefined predicate or of a derived one at
    another arity, and a cycle."""
    reads = []
    for plan in compiled:
        atoms = plan.atoms + plan.neg_atoms
        for a in atoms:
            kind, _, pred = a.vertex.partition(":")
            if kind == "out" and pred not in derived:
                raise SchemaError(f"{pred} is neither a database predicate nor derived by a rule")
            if kind == "out":
                _note_arity(derived, pred, len(a.pattern))
        reads.append(tuple(dict.fromkeys(a.vertex for a in atoms)))
    writes = [{("end:" if h.is_upsert else "out:") + h.atom.pred for h in r.head} for r in rules]
    left = Counter(v for ws in writes for v in ws)  # vertex -> writers yet to run
    readers: dict = {}  # vertex -> the rules that read it
    waiting = [0] * len(rules)  # per rule, its reads with writers yet to run
    for i, vertices in enumerate(reads):
        for v in vertices:
            if v in left:
                readers.setdefault(v, []).append(i)
                waiting[i] += 1
    ready = [i for i, n in enumerate(waiting) if not n]  # sorted, so a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for v in writes[i]:
            left[v] -= 1
            if not left[v]:
                for j in readers.get(v, ()):
                    waiting[j] -= 1
                    if not waiting[j]:
                        heapq.heappush(ready, j)
    if len(order) != len(rules):
        raise SchemaError("cyclic rule dependencies: recursion is not supported")
    return reads, order
