"""The repair circuit: a transaction tree with signal operators.

Transactions sit at the leaves of a binary tree in serial order. Requested
deltas and sensitivities merge upward; corrections flow downward:

  - delta merge at a group node: per key, the later (right) child wins;
  - sensitivity merge: interval union;
  - corrections into a left child: the parent's corrections, filtered to
    the child's sensitivity;
  - corrections into a right child: the parent's corrections overridden
    by the left sibling's deltas (later writes supersede), filtered to
    the child's sensitivity.

Corrections reach a transaction only from transactions that precede it,
filtered by its sensitivity. Nothing precedes the transactions under a
node whose label has no "1" (the leftmost spine, the root included), so
a spine node has no correction and no sensitivity signals: no operator
corrects into it, no sensitivity merge runs at it, and the first leaf
publishes no sensitivity. A correction operator into the right child of
a spine node reads only its left sibling's deltas and its sensitivity.

At the fixpoint, the root's delta merge holds, per key, the write of the
latest transaction that committed: the net effect of running the
transactions serially. Those records are the epoch's commit.

Only delta signals are split by key region: the deltas of a node of
height h are partitioned into 2^h subdomains of the global domain
decomposition, each merged by its own operator, and the commit reads the
root's. A node off the spine has one sensitivity and one correction
signal, so an interval is stored once, unclipped; the correction into a
right child reads every subdomain signal of its left sibling's deltas.
Each signal maps an identity to a value: a record identity
`(pred_id, key)` to its value for deltas and corrections, a key interval
`(pred_id, lo, hi)` to `()` for sensitivity. Every operator pulls, per
input signal, the identities logged since its last pull, reads their
values from the roots it pulled (never a signal's newer content, which
its next pull names again), and publishes every value it computed: the
tree write of the publish (`ptree.update`) finds the ones that moved, so
a change is detected once, and a refresh returns the outputs it changed.

The wiring returns the operators, a `TxnOp` per leaf among them, with a
map from each signal to the operators that read it; signals keep no links to their readers. The
data flow has a cycle (a transaction publishes sensitivity, the
correction operator into its leaf reads it and writes the corrections
the transaction reads), so links between operators would keep a circuit
alive after its owner drops it, until the cyclic collector runs.

A correction operator only asks whether any interval of its child's
sensitivity covers a record, so it keeps them merged (`CoverageSet`),
and a refresh merges the intervals it pulled in one pass. The records
those intervals newly cover are found by one forward cursor walk per
input through the pulled intervals, in order (`SignalCursor.within`),
which also reads each one's winning value; only a pulled record outside
them is checked against the coverage and looked up again, and one the
coverage misses is dropped: it was never published.

A refresh wakes only the readers of the outputs it changed, and of
those only the ones whose output that change can change (`woken_by`,
`Op.wakes_on`). A correction operator's output depends on sensitivity
only where it meets an input record, so it sleeps through sensitivity
growth while every correction input is empty; the input publish that
ends the sleep wakes it, and that refresh pulls the sensitivity it
skipped. Sensitivity only grows and an empty input meets none of it, so
the sleep is safe at any worker count.

A wired circuit is reused: `Op.reset` empties its outputs and rewinds
its cursors, so one wiring serves every epoch.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Optional

from .domain import DomainDecomposition
from .inclftj import CoverageSet
from .pstore import DbVersion
from .signal import CORR, DELTA, SENS, SignalCursor, VersionedSignal
from .txn import UNEVALUATED, TxnExec


def labels(h: int):
    return ["".join(bits) for bits in itertools.product("01", repeat=h)]


class TreeNode:
    def __init__(self, label: str, height: int):
        self.label = label
        self.height = height
        self.left: Optional[TreeNode] = None
        self.right: Optional[TreeNode] = None
        self.txn: Optional[TxnExec] = None
        self.delta = {d: VersionedSignal(DELTA) for d in labels(height)}
        # corrections INTO this node, produced by the parent's corr op,
        # and the sensitivity that filters them; nothing precedes the
        # transactions under a spine node, so it has neither
        off_spine = "1" in label
        self.sens = VersionedSignal(SENS) if off_spine else None
        self.corr = VersionedSignal(CORR) if off_spine else None

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


def _first(cursors, ident: tuple):
    """The value at `ident` in the first of `cursors`' pulled roots that
    holds one."""
    for cur in cursors:
        value = cur.get(ident)
        if value is not None:
            return value
    return None


def _publish(out: VersionedSignal, inserts, removes=()) -> list:
    """Publish to `out`; `[out]` when that changed its content, else `[]`."""
    v0 = out.latest
    return [out] if out.publish(inserts, removes) != v0 else []


def _publish_winners(out: VersionedSignal, winners) -> list:
    """Make `out` hold each winning value, None meaning no value, at its
    identity; `[out]` when that changed `out`, else `[]`."""
    inserts, removes = [], []
    for ident, winner in winners:
        if winner is None:
            removes.append(ident)
        else:
            inserts.append((ident, winner))
    return _publish(out, inserts, removes)


def woken_by(changed, readers) -> list:
    """The readers a refresh wakes, given the outputs it changed and the
    wiring's signal -> readers map: the readers of each whose output that
    publish can change; `wakes_on` is asked only of readers that define
    it."""
    return [reader for sig in changed for reader in readers.get(sig, ())
            if reader.wakes_on is None or reader.wakes_on(sig)]


class Op:
    """A circuit operator: pulls input changes, republishes outputs."""

    kind = "op"

    def __init__(self, node_label: str, domain_label: str = ""):
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
        return cur

    def reset(self):
        """Empty the outputs and rewind the cursors, as if just wired."""
        for sig in self.output_signals:
            sig.reset()
        for cur in self.cursors:
            cur.reset()

    def refresh(self) -> list:
        """Pull the inputs and publish; returns the output signals whose
        content that changed."""
        raise NotImplementedError

    # (signal) -> whether a publish to input `signal` can change this op's
    # output; None when every publish can
    wakes_on = None

    def __repr__(self):
        return f"<{self.op_id}>"


class DeltaMergeOp(Op):
    kind = "dmerge"

    def __init__(self, group: TreeNode, d: str, decomp: DomainDecomposition):
        super().__init__(group.label, d)
        self.interval = decomp.subdomain_interval(d)
        self.out = group.delta[d]
        self.cur_l = self._cursor(group.left.delta[d[:-1]])
        self.cur_r = self._cursor(group.right.delta[d[:-1]])
        self._by_precedence = (self.cur_r, self.cur_l)  # later wins
        self.output_signals = [self.out]

    def refresh(self) -> list:
        lo_pt, hi_pt = self.interval
        idents = {}
        for cur in (self.cur_l, self.cur_r):
            pulled = cur.pull()  # sorted: the region [lo_pt, hi_pt) is a slice
            lo = bisect_left(pulled, lo_pt)
            idents.update(dict.fromkeys(pulled[lo : bisect_left(pulled, hi_pt, lo)]))
        return _publish_winners(
            self.out, ((i, _first(self._by_precedence, i)) for i in idents)
        )


class SensMergeOp(Op):
    kind = "smerge"

    def __init__(self, group: TreeNode):
        super().__init__(group.label)
        self.out = group.sens
        self.cur_l = self._cursor(group.left.sens)
        self.cur_r = self._cursor(group.right.sens)
        self.output_signals = [self.out]

    def refresh(self) -> list:
        # sensitivity only grows: re-inserting an interval already merged
        # changes nothing
        return _publish(self.out, [(i, ()) for i in self.cur_l.pull() + self.cur_r.pull()])


class CorrOp(Op):
    """Produces the corrections INTO one child of a group node; into the
    right child, the left sibling's deltas (every key region) too.

    A refresh publishes, at its winning value, every input record inside
    an interval of the sensitivity it pulled, found by walking each input
    in precedence order, the first value found per identity winning; and,
    for each identity an input pull named outside those records that the
    coverage held before covers, its winning value or none. An identity
    that coverage misses was never published, so it is dropped: a
    refresh whose pulls all lie outside the coverage publishes nothing.
    """

    kind = "corr"

    def __init__(self, group: TreeNode, child: TreeNode):
        super().__init__(child.label)
        self.out = child.corr
        parents = [self._cursor(group.corr)] if group.corr is not None else []
        delta = [self._cursor(s) for s in group.left.delta.values()] if child is group.right else []
        self.cur_sens = self._cursor(child.sens)
        self._inputs = parents + delta
        # the left sibling's writes are later than the parent's corrections
        self._by_precedence = delta + parents
        self._cover = CoverageSet()
        self.output_signals = [self.out]

    def reset(self):
        super().reset()
        self._cover = CoverageSet()

    def wakes_on(self, signal: VersionedSignal) -> bool:
        # new sensitivity meets no record while every input is empty
        return signal is not self.cur_sens.signal or not all(
            cur.signal.empty for cur in self._inputs
        )

    def refresh(self) -> list:
        bounds = [((pred_id, lo), (pred_id, hi)) for pred_id, lo, hi in self.cur_sens.pull()]
        pulled = [cur.pull() for cur in self._inputs]  # first: the walk reads their roots
        # every input record inside a new interval, at its winning value
        winners = {}
        if bounds:
            for cur in self._by_precedence:
                if cur.root is not None:
                    for ident, value in cur.within(bounds):
                        winners.setdefault(ident, value)
        # a pulled identity the old coverage misses was never published
        # (coverage only grows), so it needs no removal
        cover = self._cover
        for idents in pulled:
            for i in idents:
                if i not in winners and cover.covers(i):
                    winners[i] = _first(self._by_precedence, i)
        if bounds:
            cover.merge(bounds)
        return _publish_winners(self.out, winners.items())


class TxnOp(Op):
    """Leaf operator: evaluates/repairs the transaction at a leaf and
    publishes the changes to its outputs.

    Only a leaf that holds a transaction is refreshed: the engine queues
    those, and a leaf past the epoch's transactions publishes no
    sensitivity, so the correction operator into it covers nothing,
    publishes nothing and never wakes it."""

    kind = "txn"

    def __init__(self, leaf: TreeNode, base: Optional[DbVersion] = None):
        super().__init__(leaf.label)
        self.leaf = leaf
        self.base = base
        # the first leaf receives no corrections and reports no sensitivity
        self.cur_corr = self._cursor(leaf.corr) if leaf.corr is not None else None
        self.out_delta = leaf.delta[""]
        self.out_sens = leaf.sens
        self.output_signals = [s for s in (self.out_delta, self.out_sens) if s is not None]

    def refresh(self) -> list:
        txn = self.leaf.txn
        cur = self.cur_corr
        changes = [(i, cur.get(i)) for i in cur.pull()] if cur is not None else []
        if txn.status == UNEVALUATED:
            out = txn.evaluate(self.base, changes)
        elif changes:
            out = txn.repair(changes)
        else:
            return []
        changed = _publish_winners(self.out_delta, out.deltas)
        if out.sens and self.out_sens is not None:  # only intervals not reported before
            changed += _publish(self.out_sens, [(i, ()) for i in out.sens])
        return changed


def wire_group(group: TreeNode, decomp: DomainDecomposition):
    """All merge/corr operators owned by one internal node: no sensitivity
    merge at a spine node, and no correction into a spine child."""
    ops = [DeltaMergeOp(group, d, decomp) for d in labels(group.height)]
    if group.sens is not None:
        ops.append(SensMergeOp(group))
    if group.left.corr is not None:
        ops.append(CorrOp(group, group.left))
    ops.append(CorrOp(group, group.right))
    return ops


def wire_tree(root: TreeNode, decomp: DomainDecomposition):
    """Every operator of the circuit, a `TxnOp` per leaf last and in leaf
    order, and the map from each signal to the operators that read it."""
    ops = [op for node in root.internal() for op in wire_group(node, decomp)]
    ops += [TxnOp(leaf) for leaf in root.leaves()]
    readers: dict = {}
    for op in ops:
        for cur in op.cursors:
            readers.setdefault(cur.signal, []).append(op)
    return ops, readers
