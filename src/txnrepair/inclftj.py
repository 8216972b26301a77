"""Incremental rule maintenance via recorded sensitivity intervals.

After a full evaluation, every cursor operation's sensitivity interval
sits in a per-input interval index. When input records change, stabbing
the index yields the set of variable-binding prefixes (contexts) whose
join subtrees could have changed; the rule is re-run restricted to the
prefix-minimal contexts against the old and new inputs, and the two
restricted results are diffed. Everything outside the stabbed contexts
is untouched by construction, so the maintained result matches a full
re-evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .lftj import CompiledRule, SensCollector, Stats, eval_rule


_MASK64 = (1 << 64) - 1


def _priority(n: int) -> int:
    """splitmix64 of n: well-spread treap priorities from a plain counter."""
    z = (n * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _INode:
    __slots__ = ("lo", "hi", "payload", "prio", "left", "right", "max_hi")

    def __init__(self, lo, hi, payload, prio):
        self.lo = lo
        self.hi = hi
        self.payload = payload
        self.prio = prio
        self.left = None
        self.right = None
        self.max_hi = hi

    def _pull(self):
        m = self.hi
        if self.left is not None and self.left.max_hi > m:
            m = self.left.max_hi
        if self.right is not None and self.right.max_hi > m:
            m = self.right.max_hi
        self.max_hi = m


class IntervalIndex:
    """Insert-only set of intervals, each with a payload; a stabbing
    query returns the payloads of the intervals that contain a point.

    Treap keyed by interval low endpoint, augmented with subtree max
    high endpoint, so a stab visits only subtrees that can contain the
    point. Priorities mix the insert count, so repeated intervals still
    get distinct ones.
    """

    def __init__(self):
        self.root = None
        self._inserts = 0

    def insert(self, lo: tuple, hi: tuple, payload):
        self._inserts += 1
        node = _INode(lo, hi, payload, _priority(self._inserts))
        self.root = self._insert(self.root, node)

    def _insert(self, t, node):
        if t is None:
            return node
        if node.lo < t.lo:
            t.left = self._insert(t.left, node)
            if t.left.prio < t.prio:
                t = self._rot_right(t)
        else:
            t.right = self._insert(t.right, node)
            if t.right.prio < t.prio:
                t = self._rot_left(t)
        t._pull()
        return t

    @staticmethod
    def _rot_right(t):
        l = t.left
        t.left = l.right
        l.right = t
        t._pull()
        l._pull()
        return l

    @staticmethod
    def _rot_left(t):
        r = t.right
        t.right = r.left
        r.left = t
        t._pull()
        r._pull()
        return r

    def stab(self, point: tuple):
        """Payloads of all intervals [lo, hi] that contain the point tuple."""
        out = []
        stack = [self.root]
        while stack:
            t = stack.pop()
            if t is None or t.max_hi < point:
                continue
            stack.append(t.left)
            if t.lo <= point:
                if point <= t.hi:
                    out.append(t.payload)
                stack.append(t.right)
        return out


def minimal_contexts(entries):
    """Prefix-minimal set of binding contexts from stabbed entries.

    Returns contexts sorted; a context that extends another stabbed
    context is dropped, so restricted re-runs never overlap.
    """
    ctxs = sorted({e.ctx for e in entries}, key=lambda c: (len(c), c))
    out = []
    for c in ctxs:
        if not any(len(m) <= len(c) and c[: len(m)] == m for m in out):
            out.append(c)
    return sorted(out)


@dataclass
class MaintainReport:
    contexts: tuple
    # per head atom: {tuple: (old_count, new_count)} for counts that changed
    head_diffs: list = field(default_factory=list)
    constraint_delta: int = 0


class RuleMaintainer:
    """Holds one rule's materialized result and its sensitivity index;
    `args` binds the compiled template's `$param` slots (`Rule.args`)."""

    def __init__(
        self, compiled: CompiledRule, views: dict, args: tuple = (),
        stats: Optional[Stats] = None,
    ):
        self.compiled = compiled
        self.args = args
        self.views = dict(views)
        self.index: dict = {}  # vertex -> IntervalIndex
        self.entry_log: list = []  # every entry ever absorbed, in order
        col = SensCollector()
        res = eval_rule(compiled, views, args, collector=col, stats=stats)
        self.head_counts = res.head_counts
        self.constraint_hits = res.constraint_hits
        self._absorb(col)

    def _absorb(self, col: SensCollector):
        for e in col.entries:
            self.index.setdefault(e.vertex, IntervalIndex()).insert(e.lo, e.hi, e)
            self.entry_log.append(e)

    def changed_contexts(self, changed_points: dict):
        """changed_points: vertex -> iterable of full tuples touched."""
        hits = []
        for vertex, points in changed_points.items():
            idx = self.index.get(vertex)
            if idx is None:
                continue
            for t in points:
                hits.extend(idx.stab(tuple(t)))
        return minimal_contexts(hits)

    def apply_changes(
        self, new_views: dict, changed_points: dict, stats: Optional[Stats] = None
    ) -> MaintainReport:
        """Maintain the result across a views change.

        changed_points must cover every record whose presence or payload
        differs between self.views and new_views (stale extra points are
        harmless). Returns the head-tuple count transitions.
        """
        contexts = self.changed_contexts(changed_points)
        report = MaintainReport(contexts=tuple(contexts))
        order = self.compiled.var_order
        n_heads = len(self.head_counts)
        deltas = [dict() for _ in range(n_heads)]
        cdelta = 0
        for ctx in contexts:
            fixed = dict(zip(order, ctx))
            old = eval_rule(self.compiled, self.views, self.args, fixed=fixed, stats=stats)
            col = SensCollector()
            new = eval_rule(
                self.compiled, new_views, self.args, collector=col, fixed=fixed, stats=stats
            )
            self._absorb(col)
            cdelta += new.constraint_hits - old.constraint_hits
            for i in range(n_heads):
                for t, c in old.head_counts[i].items():
                    deltas[i][t] = deltas[i].get(t, 0) - c
                for t, c in new.head_counts[i].items():
                    deltas[i][t] = deltas[i].get(t, 0) + c
        for i in range(n_heads):
            diffs = {}
            counts = self.head_counts[i]
            for t, d in deltas[i].items():
                if d == 0:
                    continue
                old_c = counts.get(t, 0)
                new_c = old_c + d
                if new_c < 0:
                    raise AssertionError(f"support count underflow for {t}")
                diffs[t] = (old_c, new_c)
                if new_c == 0:
                    counts.pop(t, None)
                else:
                    counts[t] = new_c
            report.head_diffs.append(diffs)
        self.constraint_hits += cdelta
        report.constraint_delta = cdelta
        self.views = dict(new_views)
        return report
