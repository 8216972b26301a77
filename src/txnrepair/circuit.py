"""The repair circuit: a transaction tree with signal operators.

Transactions sit at the leaves of a binary tree in serial order. Requested
deltas and sensitivities merge upward; corrections flow downward:

  - delta merge at a group node: per key, the later (right) child wins;
  - sensitivity merge: interval union, clipped to the node's subdomain;
  - corrections into a left child: the parent's corrections, filtered to
    the child's sensitivity;
  - corrections into a right child: the parent's corrections overridden
    by the left sibling's deltas (later writes supersede), filtered to
    the child's sensitivity.

Nothing precedes the root's transactions, so the root has no correction
signals and its correction operators read only deltas and sensitivity.

Signals at a node of height h are partitioned into 2^h subdomains of the
global domain decomposition, so independent key regions refresh in
parallel. Every operator pulls per-signal change lists and republishes
only what changed, which keeps refresh cost proportional to change
volume.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .domain import DomainDecomposition, DomainPoint
from .inclftj import IntervalIndex
from .lftj import SensEntry
from .pstore import DbVersion
from .signal import (
    CORR,
    DELTA,
    SENS,
    SensitivityRecord,
    SignalCursor,
    VersionedSignal,
)
from .txn import UNEVALUATED, TxnExec
from .values import MINK, TOP


def labels(h: int):
    return ["".join(bits) for bits in itertools.product("01", repeat=h)]


class TreeNode:
    def __init__(self, label: str, height: int):
        self.label = label
        self.height = height
        self.left: Optional[TreeNode] = None
        self.right: Optional[TreeNode] = None
        self.txn: Optional[TxnExec] = None
        self.delta = {d: VersionedSignal(DELTA, label, d) for d in labels(height)}
        self.sens = {d: VersionedSignal(SENS, label, d) for d in labels(height)}
        # corrections INTO this node, produced by the parent's corr ops;
        # nothing precedes the root's (label "") transactions: it has none
        self.corr = {d: VersionedSignal(CORR, label, d) for d in labels(height) if label}

    def __repr__(self):
        return f"<node {self.label!r} h={self.height}>"

    def is_leaf(self):
        return self.height == 0

    def leaves(self):
        if self.is_leaf():
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def internal(self):
        if not self.is_leaf():
            yield self
            yield from self.left.internal()
            yield from self.right.internal()


def build_tree(height: int, label: str = "") -> TreeNode:
    node = TreeNode(label, height)
    if height > 0:
        node.left = build_tree(height - 1, label + "0")
        node.right = build_tree(height - 1, label + "1")
    return node


def _in_interval(lo_pt: DomainPoint, hi_pt: DomainPoint, pred_id: int, key: tuple) -> bool:
    p = (1, pred_id, tuple(key))
    return lo_pt.sort_key() <= p < hi_pt.sort_key()


def clip_sens(rec: SensitivityRecord, lo_pt: DomainPoint, hi_pt: DomainPoint):
    """Closed clip of a key interval to a subdomain; both subdomains keep
    the boundary point, which preserves covering."""
    arity = len(rec.lo)
    a = (1, rec.pred_id, rec.lo)
    b = (1, rec.pred_id, rec.hi)
    nlo = max(a, lo_pt.sort_key())
    nhi = min(b, hi_pt.sort_key())
    if nlo > nhi:
        return None
    if nlo == a:
        lo = rec.lo
    else:
        key = tuple(nlo[2])
        lo = (key + (MINK,) * arity)[:arity]
    if nhi == b:
        hi = rec.hi
    else:
        key = tuple(nhi[2])
        hi = (key + (TOP,) * arity)[:arity]
    if not lo <= hi:
        return None
    return SensitivityRecord(rec.pred_id, lo, hi)


class Op:
    """A circuit operator: pulls input changes, republishes outputs."""

    kind = "op"

    def __init__(self, node_label: str, domain_label: str):
        self.node_label = node_label
        self.op_id = f"{self.kind}:{node_label or 'root'}:{domain_label or '*'}"
        self.cursors: list = []
        self.output_signals: list = []

    @property
    def input_signals(self):
        return [c.signal for c in self.cursors]

    def _cursor(self, signal: VersionedSignal) -> SignalCursor:
        cur = SignalCursor(signal)
        self.cursors.append(cur)
        signal.readers.append(self)
        return cur

    def refresh(self) -> bool:
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.op_id}>"


class DeltaMergeOp(Op):
    kind = "dmerge"

    def __init__(self, group: TreeNode, d: str, decomp: DomainDecomposition):
        super().__init__(group.label, d)
        self.interval = decomp.subdomain_interval(d)
        self.left_sig = group.left.delta[d[:-1]]
        self.right_sig = group.right.delta[d[:-1]]
        self.out = group.delta[d]
        self.cur_l = self._cursor(self.left_sig)
        self.cur_r = self._cursor(self.right_sig)
        self.output_signals = [self.out]

    def refresh(self) -> bool:
        changes = self.cur_l.pull() + self.cur_r.pull()
        lo_pt, hi_pt = self.interval
        idents = []
        seen = set()
        for rec, _ins in changes:
            ident = rec.identity()
            if ident in seen:
                continue
            seen.add(ident)
            if _in_interval(lo_pt, hi_pt, rec.pred_id, rec.key):
                idents.append(ident)
        inserts, removes = [], []
        for pred_id, key in idents:
            winner = self.right_sig.get(pred_id, key)
            if winner is None:
                winner = self.left_sig.get(pred_id, key)
            cur = self.out.get(pred_id, key)
            if winner is None:
                if cur is not None:
                    removes.append(cur)
            elif winner != cur:
                inserts.append(winner)
        if not inserts and not removes:
            return False
        v0 = self.out.latest
        return self.out.publish(inserts, removes) != v0


class SensMergeOp(Op):
    kind = "smerge"

    def __init__(self, group: TreeNode, d: str, decomp: DomainDecomposition):
        super().__init__(group.label, d)
        self.interval = decomp.subdomain_interval(d)
        self.out = group.sens[d]
        self.cur_l = self._cursor(group.left.sens[d[:-1]])
        self.cur_r = self._cursor(group.right.sens[d[:-1]])
        self.output_signals = [self.out]

    def refresh(self) -> bool:
        changes = self.cur_l.pull() + self.cur_r.pull()
        lo_pt, hi_pt = self.interval
        inserts = []
        for rec, _ins in changes:  # sensitivity only grows: every change inserts
            clipped = clip_sens(rec, lo_pt, hi_pt)
            if clipped is None:
                continue
            if self.out.get_record(clipped) is None:
                inserts.append(clipped)
        if not inserts:
            return False
        v0 = self.out.latest
        return self.out.publish(inserts) != v0


class CorrOp(Op):
    """Produces the corrections INTO one child of a group node."""

    kind = "corr"

    def __init__(self, group: TreeNode, child: TreeNode, e: str, with_delta: bool):
        super().__init__(child.label, e)
        self.out = child.corr[e]
        parents = [self._cursor(group.corr[e + b]) for b in "01"] if group.corr else []
        delta = [self._cursor(group.left.delta[e])] if with_delta else []
        self.cur_sens = self._cursor(child.sens[e])
        self._inputs = parents + delta
        self._by_precedence = delta + parents  # the left sibling's writes are later
        self._sens_index = IntervalIndex()
        self.output_signals = [self.out]

    def _covered(self, pred_id: int, key: tuple) -> bool:
        return bool(self._sens_index.stab((pred_id, tuple(key))))

    def _winner(self, pred_id: int, key: tuple):
        for cur in self._by_precedence:
            rec = cur.signal.get(pred_id, key)
            if rec is not None:
                return rec
        return None

    def refresh(self) -> bool:
        sens_changes = [rec for rec, _ins in self.cur_sens.pull()]
        idents = set()
        for cur in self._inputs:
            idents.update(rec.identity() for rec, _ins in cur.pull())
        for rec in sens_changes:
            self._sens_index.insert(
                SensEntry("", (rec.pred_id, rec.lo), (rec.pred_id, rec.hi), (), 0)
            )
            # candidates already present in the inputs inside the new interval
            lo_ident = (rec.pred_id, rec.lo)
            hi_ident = (rec.pred_id, rec.hi)
            for cur in self._inputs:
                for r in cur.signal.range_records(lo_ident, hi_ident):
                    idents.add(r.identity())
        inserts, removes = [], []
        for pred_id, key in idents:
            winner = self._winner(pred_id, key) if self._covered(pred_id, key) else None
            cur = self.out.get(pred_id, key)
            if winner is None:
                if cur is not None:
                    removes.append(cur)
            elif winner != cur:
                inserts.append(winner)
        if not inserts and not removes:
            return False
        v0 = self.out.latest
        return self.out.publish(inserts, removes) != v0


class TxnOp(Op):
    """Leaf operator: evaluates/repairs the transaction at a leaf."""

    kind = "txn"

    def __init__(self, leaf: TreeNode, base: DbVersion):
        super().__init__(leaf.label, "")
        self.leaf = leaf
        self.base = base
        # a leaf that is the whole tree receives no corrections
        self.cur_corr = self._cursor(leaf.corr[""]) if leaf.corr else None
        self.out_delta = leaf.delta[""]
        self.out_sens = leaf.sens[""]
        self.output_signals = [self.out_delta, self.out_sens]

    def refresh(self) -> bool:
        txn = self.leaf.txn
        changes = self.cur_corr.pull() if self.cur_corr is not None else []
        if txn is None:
            return False
        if txn.status == UNEVALUATED:
            out = txn.evaluate(self.base, changes)
        elif changes:
            out = txn.repair(changes)
        else:
            return False
        changed = False
        desired = {rec.identity(): rec for rec in out.deltas}
        current = {rec.identity(): rec for rec in self.out_delta.records()}
        removes = [current[i] for i in current if i not in desired]
        inserts = [rec for i, rec in desired.items() if current.get(i) != rec]
        if inserts or removes:
            v0 = self.out_delta.latest
            changed |= self.out_delta.publish(inserts, removes) != v0
        new_sens = [r for r in out.sens if self.out_sens.get_record(r) is None]
        if new_sens:
            v0 = self.out_sens.latest
            changed |= self.out_sens.publish(new_sens) != v0
        return changed


def wire_group(group: TreeNode, decomp: DomainDecomposition):
    """All merge/corr operators owned by one internal node."""
    ops = []
    for d in labels(group.height):
        ops.append(DeltaMergeOp(group, d, decomp))
        ops.append(SensMergeOp(group, d, decomp))
    for e in labels(group.height - 1):
        ops.append(CorrOp(group, group.left, e, with_delta=False))
        ops.append(CorrOp(group, group.right, e, with_delta=True))
    return ops


def wire_tree(root: TreeNode, decomp: DomainDecomposition):
    ops = []
    for node in root.internal():
        ops.extend(wire_group(node, decomp))
    return ops

