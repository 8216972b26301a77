"""Incremental rule maintenance via recorded sensitivity intervals.

A full evaluation records every cursor operation's sensitivity interval,
and the caller (`txn`) keeps them in one interval index per input. When
input records change, stabbing that index yields the variable-binding
prefixes (contexts) whose join subtrees could have changed; the rule is
re-run restricted to the prefix-minimal contexts against the old and new
inputs, and the two restricted results are diffed. Everything outside
the stabbed contexts is untouched by construction, so the maintained
result matches a full re-evaluation.

One maintainer may hold a group of bindings of one template (`txn`
groups a transaction's rules so): its contexts start with the binding's
index, so a re-run stays within one binding, and a binding repeated in
the group supports its head tuples once per repeat.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .lftj import BINDING, CompiledRule, Stats, eval_rule


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
    context is dropped, so restricted re-runs never overlap. In sorted
    order a context's extensions directly follow it.
    """
    out = []
    for c in sorted({e.ctx for e in entries}):
        if not out or c[: len(out[-1])] != out[-1]:
            out.append(c)
    return out


@dataclass
class MaintainReport:
    contexts: tuple
    # per head atom: {tuple: (old_count, new_count)} for counts that changed
    head_diffs: list = field(default_factory=list)
    constraint_delta: int = 0
    entries: list = field(default_factory=list)  # recorded by the re-runs


class RuleMaintainer:
    """Holds one rule's materialized result over `views`, a map from each
    read vertex to its `ptree` root as `eval_rule` takes it; `args` binds
    the compiled template's `$param` slots (`Rule.args`). Given in place
    of `args`, `bindings` lists the `args` of a group of rules bound from
    the template, and the maintainer holds their summed result, as
    `eval_rule` computes it for a group.

    The maintainer keeps no index of its sensitivity: `entries` are those
    of the full evaluation, each report carries those of its re-runs, and
    the caller stabs them with the changed points and passes the hits to
    `apply_changes`. So a rule that no point stabs is not called, and its
    kept `views` lag behind the caller's. That is safe. A change that
    meets none of the rule's recorded intervals leaves its evaluation,
    binding by binding, unchanged (the `lftj` covering property), and a
    restricted re-run enumerates exactly the bindings under its context.
    So every re-run returns the same on the kept `views` as on the views
    just before the change that stabs it.
    """

    def __init__(
        self, compiled: CompiledRule, views: dict, args: tuple = (),
        stats: Optional[Stats] = None, bindings: Optional[list] = None,
    ):
        self.compiled = compiled
        self.args = args
        self.bindings = bindings
        # the names a context's values bind, in order
        self.ctx_vars = compiled.var_order if bindings is None else (BINDING,) + compiled.var_order
        self.views = dict(views)
        self.entries: list = []
        res = eval_rule(compiled, views, args, collector=self.entries, stats=stats,
                        bindings=bindings)
        self.head_counts = res.head_counts
        self.constraint_hits = res.constraint_hits

    def apply_changes(
        self, new_views: dict, stabbed_entries, stats: Optional[Stats] = None
    ) -> MaintainReport:
        """Maintain the result across a views change.

        stabbed_entries must hold each of the rule's recorded entries
        (`entries` or a report's) whose interval contains a record whose
        presence or payload differs between self.views and new_views
        (stale extra entries are harmless). Returns the head-tuple count
        transitions.
        """
        contexts = minimal_contexts(stabbed_entries)
        report = MaintainReport(contexts=tuple(contexts))
        deltas = [Counter() for _ in self.head_counts]
        for ctx in contexts:
            fixed = dict(zip(self.ctx_vars, ctx))
            old = eval_rule(self.compiled, self.views, self.args, fixed=fixed, stats=stats,
                            bindings=self.bindings)
            new = eval_rule(
                self.compiled, new_views, self.args, collector=report.entries, fixed=fixed,
                stats=stats, bindings=self.bindings,
            )
            report.constraint_delta += new.constraint_hits - old.constraint_hits
            for delta, old_counts, new_counts in zip(deltas, old.head_counts, new.head_counts):
                delta.subtract(old_counts)
                delta.update(new_counts)
        for counts, delta in zip(self.head_counts, deltas):
            diffs = {}
            for t, d in delta.items():
                if d:
                    old_c = counts.get(t, 0)
                    new_c = old_c + d
                    if new_c < 0:
                        raise AssertionError(f"support count underflow for {t}")
                    diffs[t] = (old_c, new_c)
                    if new_c:
                        counts[t] = new_c
                    else:
                        del counts[t]
            report.head_diffs.append(diffs)
        self.constraint_hits += report.constraint_delta
        self.views = dict(new_views)
        return report
