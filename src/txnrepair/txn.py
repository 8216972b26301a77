"""One transaction's execution unit: isolated evaluation plus repair.

A transaction is a set of rules evaluated in its own branch of the
database: an immutable snapshot with corrections (records other
transactions changed underneath it) put in. Corrections arrive as the
identities `(pred_id, key)` a signal pull names, each with its value in
the pulled root, or None when withdrawn; a value the branch already
holds is skipped.

The rules bound from one template (see `rulelang`: same head and body
objects) form a group, evaluated set at a time: one compiled plan, one
`RuleMaintainer` holding the summed result of every binding, one join
call that binds each rule's `$param` values (`Rule.args`) in turn, and
one write per changed root for the group's head count changes. Every
recorded context starts with its binding's index, so a changed record
re-runs only the bindings that read it. Transactions built with one
`PlanCache` (the engine keeps one) from the same templates share one
`Shape`: the upserted predicates, plans, group order and read lists,
derived once, so each plan is compiled once per shape.

Evaluation materializes every group and indexes the sensitivity
intervals it records, one `IntervalIndex` per read vertex over every
group: the first repair whose corrections move a branch value sorts in
the evaluation's entries, each later one the earlier re-runs' as one
batch. Repair stabs that index once with each changed point, a
correction's or a re-run group's output, and calls only the groups it
hits, so the cost tracks how much of the reads changed. Evaluation and
repair run the groups in dependency order, read off their plans: a
group runs after every group that writes a vertex it reads
(`rulelang.atom_vertex`), ties broken by the index of each group's first
rule. All rules of a group read and write the same vertices, so no rule
of a group reads another's output.

The branch is one persistent `ptree` root per view, and a group's join
reads each root directly:
- `db:p`, for every predicate some rule reads or upserts, is the
  snapshot's root of p with each correction put in; a withdrawn
  correction puts the snapshot's value back (corrections to other
  predicates are dropped);
- `end:p`, only for predicates some plan reads at `end:`, is the `db:p`
  root with the transaction's single-live-value upserts put in; a key the
  transaction upserts ignores corrections, and shows the `db:` value
  again when its upsert leaves;
- `out:q` is the set of live tuples of derived predicate q.
The `end:` and `out:` contents, and a key's own value (its single live
upserted value, which the drain reports), come from support counts.
A group's output, and a repair's correction pull, path-copies each root
it changes in one `patch_tree` write, so building a group's views costs
O(predicates), and a view a maintainer keeps as its old inputs stays a
snapshot while the transaction moves on.

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

from dataclasses import dataclass
from typing import Optional

from . import ptree
from .inclftj import IntervalIndex, RuleMaintainer
from .lftj import Stats, compile_rule
from .pstore import DbVersion, PredicateSig, Schema
from .rulelang import atom_terms, topological_order
from .values import SchemaError, conforms
from .views import patch_tree, view_lookup

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

    def __init__(self, schema: Schema, rules, txn_id=0, plans: Optional[PlanCache] = None):
        self.schema = schema
        self.txn_id = txn_id
        self.rules = list(rules)
        self.stats = Stats()
        self.status = UNEVALUATED
        # the rule indexes bound from each template, in order of first rule
        groups: dict = {}
        for i, r in enumerate(self.rules):
            groups.setdefault((id(r.head), id(r.body)), []).append(i)
        self.groups = list(groups.values())
        self._bindings = [[self.rules[i].args for i in g] for g in self.groups]
        self.shape = (plans if plans is not None else PlanCache()).shape(
            [self.rules[g[0]] for g in self.groups], schema)
        self.base: Optional[DbVersion] = None
        # delta support, by upserted pred id in id order: {key: {value: count}}
        self._delta_support = {pred_id: {} for pred_id in self.shape.upserted_ids}
        # out predicate support: pred name -> {tuple: count}
        self._out_support: dict = {}
        # roots per pred name: the db: and end: views, and the live out:
        # tuples derived from the support above
        self._db_root: dict = {}
        self._end_full: dict = {}
        self._out_root: dict = {}
        self._out_of_range = 0  # live upserted tuples failing their signature
        self._conflicted = 0  # upserted keys with more than one live value
        self._hits = 0  # live constraint violations, summed over the groups
        self.maintainers: list = [None] * len(self.groups)
        # read vertex -> IntervalIndex of (group index, SensEntry); a repair
        # that moves a branch value first indexes the (group index, entries)
        # recorded before it, so a transaction never repaired builds no index
        self._sens_index: dict = {}
        self._unindexed: list = []
        # drain state: identity whose own value moved since the last drain
        # -> its own value then, whether that drain reported deltas (None
        # before the first), the key intervals first recorded since then
        # and every one recorded
        self._moved: dict = {}
        self._live: Optional[bool] = None
        self._sens_new: list = []
        self._sens_seen: set = set()

    # ---- view construction ----

    def _build_views(self) -> dict:
        views = {f"db:{pred}": self._db_root[pred] for pred in self.shape.db_reads}
        for pred in self.shape.end_reads:
            views[f"end:{pred}"] = self._end_full[pred]
        for pred, root in self._out_root.items():
            views[f"out:{pred}"] = root
        return views

    # ---- evaluation ----

    def evaluate(self, base: DbVersion, corrections=()) -> TxnOutputs:
        """Full evaluation, once, on a snapshot plus initial corrections, a
        pull [((pred_id, key), value or None)] from an empty start; a
        correction withdrawn before it (None) leaves the snapshot's value."""
        if self.status != UNEVALUATED:
            raise RuntimeError("evaluate twice")
        self.base = base
        shape = self.shape
        patches: dict = {}  # pred_id -> {key: value}
        for (pred_id, key), value in corrections:
            if value is not None:
                patches.setdefault(pred_id, {})[key] = value
        for pred in shape.db_preds:
            pred_id = self.schema.sig(pred).pred_id
            self._db_root[pred] = patch_tree(patches.get(pred_id, {}), base.root(pred_id))
        self._end_full = {pred: self._db_root[pred] for pred in shape.end_reads}
        for g in shape.order:
            m = RuleMaintainer(shape.compiled[g], self._build_views(), stats=self.stats,
                               bindings=self._bindings[g])
            self.maintainers[g] = m
            self._hits += m.constraint_hits
            self._record(g, m.entries)
            self._apply_output(g, m.head_counts)  # its changes from none
        self._refresh_status()
        return self.outputs()

    def _record(self, group: int, entries):
        """Keep one group's recorded entries for the index, and queue their
        key intervals over database predicates never queued before."""
        self._unindexed.append((group, entries))
        db_sigs, seen = self.shape.db_sigs, self._sens_seen
        for e in entries:
            sig = db_sigs.get(e.vertex)
            if sig is None:
                continue  # an out: vertex
            ident = (sig.pred_id, e.lo[: sig.arity], e.hi[: sig.arity])
            if ident not in seen:
                seen.add(ident)
                self._sens_new.append(ident)

    def _stab(self, stabs, hits: dict) -> dict:
        """Add to `hits`, per group, the entries of each (vertex, points)
        pair's vertex holding one of its points; returns `hits`."""
        for vertex, points in stabs:
            idx = self._sens_index.get(vertex)
            if idx is None:
                continue  # no entry on vertex indexed
            for t in points:
                for g, e in idx.stab(t):
                    hits.setdefault(g, []).append(e)
        return hits

    def _apply_output(self, group: int, head_changes) -> dict:
        """Add one group's head count changes, `{tuple: change}` per head,
        to the shared vertex contents, and write each changed root in one
        `patch_tree` call; returns pending changed points per downstream
        vertex."""
        pending: dict = {}
        for h, changes in zip(self.shape.heads[group], head_changes):
            pred = h.atom.pred
            moves: dict = {}  # key or tuple -> its entry's new value, None to remove
            if h.is_upsert:
                sig = self.schema.sig(pred)
                karity = sig.arity
                support = self._delta_support[sig.pred_id]
                touched = pending.setdefault(f"end:{pred}", [])
                for t, change in changes.items():
                    key, value = t[:karity], t[karity:]
                    vals = support.setdefault(key, {})
                    before = _single(vals)
                    was_live = value in vals
                    conflicted = len(vals) > 1
                    vals[value] = vals.get(value, 0) + change
                    if vals[value] <= 0:
                        del vals[value]
                    if was_live != (value in vals) and not _in_signature(sig, key, value):
                        self._out_of_range += 1 if not was_live else -1
                    self._conflicted += (len(vals) > 1) - conflicted
                    # a conflicting key has no own value and shows its db:
                    # value at end:; the conflict fails the txn
                    after = _single(vals)
                    if after != before:
                        moves[key] = after
                        self._moved.setdefault((sig.pred_id, key), before)
                    touched.append(t)
                if moves and pred in self._end_full:
                    db = self._db_root[pred]
                    shown = {k: ptree.get(db, k) if v is None else v for k, v in moves.items()}
                    self._end_full[pred] = patch_tree(shown, self._end_full[pred])
            else:
                support = self._out_support.setdefault(pred, {})
                touched = pending.setdefault(f"out:{pred}", [])
                for t, change in changes.items():
                    was_live = t in support
                    count = support.get(t, 0) + change
                    if count > 0:
                        support[t] = count
                    elif was_live:
                        del support[t]
                    if was_live != (count > 0):
                        moves[t] = () if count > 0 else None
                    touched.append(t)
                root = self._out_root.get(pred)
                self._out_root[pred] = patch_tree(moves, root) if moves else root
        return pending

    # ---- repair ----

    def repair(self, corr_changes) -> TxnOutputs:
        """Apply a correction pull [((pred_id, key), value or None)], which
        names each identity once: patch the predicate's db: root, and its
        end: root unless the transaction upserts the key, with the corrected
        value, or with the snapshot's when the correction is withdrawn, in
        one write per root; a value the branch already holds moves nothing."""
        if self.status == UNEVALUATED:
            raise RuntimeError("repair before evaluate")
        stabs = []  # (vertex, changed points), per moved entry of a root
        db_moves: dict = {}  # pred -> {key: corrected value}
        end_moves: dict = {}
        for (pred_id, key), value in corr_changes:
            pred = self.schema.sig_by_id(pred_id).name
            if pred not in self._db_root:
                continue  # no rule reads or upserts pred
            old_val = view_lookup(self._db_root[pred], key)
            if value is None:
                value = ptree.get(self.base.root(pred_id), key)
            if value == old_val:
                continue
            db_moves.setdefault(pred, {})[key] = value
            pts = [key + v for v in (old_val, value) if v is not None]
            stabs.append((f"db:{pred}", pts))
            if (pred in self._end_full
                    and _single(self._delta_support[pred_id].get(key, ())) is None):
                end_moves.setdefault(pred, {})[key] = value
                stabs.append((f"end:{pred}", pts))
        for pred, moves in db_moves.items():
            self._db_root[pred] = patch_tree(moves, self._db_root[pred])
        for pred, moves in end_moves.items():
            self._end_full[pred] = patch_tree(moves, self._end_full[pred])
        if stabs:
            batches: dict = {}  # vertex -> [(lo, hi, (group index, entry))]
            for g, entries in self._unindexed:
                for e in entries:
                    batches.setdefault(e.vertex, []).append((e.lo, e.hi, (g, e)))
            for vertex, batch in batches.items():
                self._sens_index.setdefault(vertex, IntervalIndex()).extend(batch)
            self._unindexed = []
        hits = self._stab(stabs, {})  # group index -> its entries a changed point stabbed
        # a group's points stab only the groups after it in the order; its
        # re-runs record entries only on vertices no later group writes, so
        # the next repair indexes them in time
        for g in self.shape.order:
            stabbed = hits.get(g)
            if stabbed is None:
                continue
            report = self.maintainers[g].apply_changes(self._build_views(), stabbed,
                                                       stats=self.stats)
            self._hits += report.constraint_delta
            self._record(g, report.entries)
            self._stab(self._apply_output(g, report.head_diffs).items(), hits)
        self._refresh_status()
        return self.outputs()

    # ---- outputs ----

    def _refresh_status(self):
        failed = self._hits or self._out_of_range or self._conflicted
        self.status = FAILED if failed else EVALUATED

    def outputs(self) -> TxnOutputs:
        """Drain what changed since the previous call (since evaluate,
        for the first call)."""
        sens, self._sens_new = self._sens_new, []
        return TxnOutputs(self.status, self._delta_changes(), sens)

    def _delta_changes(self):
        live, was_live = self.status == EVALUATED, self._live
        self._live = live
        moved, self._moved = self._moved, {}
        support = self._delta_support
        if live and was_live is not False:
            # no other own value moved since the last drain, nor, at the
            # first drain, from none since evaluate
            idents = sorted(moved)
        elif live or was_live:  # a later status flip
            idents = [(i, key) for i, keys in support.items() for key in sorted(keys)]
        else:
            return []
        out = []
        for ident in idents:
            now = _single(support[ident[0]][ident[1]])
            new = now if live else None
            if new != (moved.get(ident, now) if was_live else None):  # the value reported then
                out.append((ident, new))
        return out


def _single(vals):
    """The one live value of a key's `{value: count}` support, or None."""
    return next(iter(vals)) if len(vals) == 1 else None


def _in_signature(sig: PredicateSig, key: tuple, value: tuple) -> bool:
    return conforms(sig.key_types, key) and conforms(sig.value_types, value)


@dataclass
class Shape:
    """What a transaction derives from its templates alone, whatever
    their bindings: shared, never changed, by every transaction built
    from the same templates with one `PlanCache`."""

    heads: list  # per group: its template's head
    compiled: list  # per group: its plan
    order: list  # the group indexes in dependency order
    db_reads: list  # the predicates read at db:, sorted
    end_reads: list  # the predicates read at end:, sorted
    db_sigs: dict  # db: and end: vertex -> its predicate's signature
    db_preds: list  # the predicates with a db: root, sorted
    upserted_ids: list  # the upserted predicates' ids, sorted


class PlanCache:
    """Transaction shapes, shared by the transactions built with one cache.

    A transaction's `Shape` depends only on its groups' templates, in
    order: a compiled plan reads its bindings at evaluation, and the rules
    bound from one template share its head and body objects. So a shape
    is keyed by the identities of each group's head and body (cheaper
    than hashing the ASTs) and the schema's, and its plans are compiled
    once, with it. A program that raises caches no shape, so it raises
    again at every construction. Each entry holds the objects whose ids
    key it, so no id is reused while it lives; once `size` entries are
    held, the oldest leaves first. Not for concurrent use."""

    size = 1024

    def __init__(self):
        self._shapes: dict = {}

    def shape(self, firsts, schema: Schema) -> Shape:
        """The shape of a transaction whose groups' first rules are
        `firsts`, in group order; raises on a program no binding makes
        valid. Derived arities only validate the program, so the shape
        drops them."""
        key = (id(schema), *[(id(r.head), id(r.body)) for r in firsts])
        entry = self._shapes.get(key)
        if entry is not None:
            return entry[2]
        upserted, derived = rewrite_for_txn(firsts, schema)
        frozen = frozenset(upserted)
        heads = [r.head for r in firsts]
        compiled = [compile_rule(r, schema, frozen) for r in firsts]
        reads, order = _order_groups(heads, compiled, derived)
        read = {v.partition(":") for rs in reads for v in rs}
        shape = Shape(
            heads=heads,
            compiled=compiled,
            order=order,
            db_reads=sorted(p for kind, _, p in read if kind == "db"),
            end_reads=sorted(p for kind, _, p in read if kind == "end"),
            db_sigs={f"{kind}:{p}": schema.sig(p) for kind, _, p in read if kind != "out"},
            db_preds=sorted({p for kind, _, p in read if kind != "out"} | frozen),
            upserted_ids=sorted(schema.sig(p).pred_id for p in upserted),
        )
        if len(self._shapes) >= self.size:
            del self._shapes[next(iter(self._shapes))]
        self._shapes[key] = ([(r.head, r.body) for r in firsts], schema, shape)
        return shape


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


def _order_groups(heads, compiled, derived):
    """Each group's distinct read vertices, from its plan, and the group
    indexes in dependency order: `rulelang.topological_order` over the
    edges from each group writing a vertex to each group reading it, ties
    broken by index, which follows each group's first rule. Rejects a read
    of an undefined predicate or of a derived one at another arity, and a
    cycle."""
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
    writers: dict = {}  # vertex -> the groups that write it
    for i, head in enumerate(heads):
        for h in head:
            writers.setdefault(("end:" if h.is_upsert else "out:") + h.atom.pred, []).append(i)
    edges = {i: set() for i in range(len(heads))}
    for j, vertices in enumerate(reads):
        for v in vertices:
            for i in writers.get(v, ()):
                edges[i].add(j)
    order = topological_order(edges)
    if order is None:
        raise SchemaError("cyclic rule dependencies: recursion is not supported")
    return reads, order
