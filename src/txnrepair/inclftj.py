"""Incremental rule maintenance via recorded sensitivity intervals.

A full evaluation records every cursor operation's sensitivity interval,
and the caller (`txn`) keeps them in one `IntervalIndex` per input, built
in batches. When input records change, stabbing that index yields the
variable-binding prefixes (contexts) whose join subtrees could have
changed; the rule is re-run restricted to the prefix-minimal contexts
against the old and new inputs, and the two restricted results are
diffed. Everything outside the stabbed contexts is untouched by
construction, so the maintained result matches a full re-evaluation.
(`circuit.CorrOp` asks only whether any interval covers an identity: a
merged `CoverageSet` answers that.)

One maintainer may hold a group of bindings of one template (`txn`
groups a transaction's rules so): its contexts start with the binding's
index, so a re-run stays within one binding, and a binding repeated in
the group supports its head tuples once per repeat.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from .lftj import BINDING, CompiledRule, Stats, eval_rule
from .values import MINK


class IntervalIndex:
    """Set of closed intervals [lo, hi], each with a payload; a stabbing
    query returns the payloads of the intervals that contain a point.

    The entries sit in one array sorted by `lo`, under an implicit
    balanced tree (node i has children 2i and 2i + 1; leaf `size + j` is
    entry j) holding each subtree's greatest `hi`. A stab splits the
    entries with `lo <= point` into O(log n) subtrees and descends only
    where `hi` reaches the point: O((1 + hits) log n), however wide some
    intervals are. `extend` re-sorts and rebuilds in O(n): few, large
    batches suit it.
    """

    def __init__(self):
        self._entries = []  # (lo, hi, payload), sorted by lo
        self._los = []
        self._max = [(), ()]  # the tree: 2 * size nodes, size a power of two

    def __len__(self):
        return len(self._entries)

    def extend(self, entries):
        """Add each (lo, hi, payload) of `entries`."""
        items = self._entries + list(entries)
        items.sort(key=itemgetter(0))  # two sorted runs: one merge
        size = 1
        while size < len(items):
            size *= 2
        mx = [()] * (2 * size)  # () is below every point
        mx[size : size + len(items)] = [hi for _lo, hi, _p in items]
        while size > 1:
            mx[size // 2 : size] = map(max, mx[size : 2 * size : 2], mx[size + 1 : 2 * size : 2])
            size //= 2
        self._entries, self._los, self._max = items, [e[0] for e in items], mx

    def stab(self, point: tuple):
        """Payloads of all intervals [lo, hi] that contain the point tuple."""
        mx = self._max
        size = len(mx) // 2
        n = bisect_right(self._los, point)
        # the subtrees that exactly cover the entries with lo <= point
        stack = [1] if n == size else []
        hi = size + n
        while hi > 1:
            if hi & 1:
                stack.append(hi - 1)
            hi //= 2
        out = []
        while stack:
            i = stack.pop()
            if mx[i] < point:
                continue
            if i >= size:
                out.append(self._entries[i - size][2])
            else:
                stack += (2 * i, 2 * i + 1)
        return out


class CoverageSet:
    """Whether a growing set of closed intervals of identities
    `(pred_id, key)` covers an identity. `_bounds` holds the start and
    exclusive end of each merged, disjoint interval in order, so an
    identity is covered when an odd number of bounds lie at or below it.
    An end `hi` is kept as `hi + (MINK,)`: identities are pairs, so none
    lies strictly between the two.
    """

    def __init__(self):
        self._bounds = []

    def merge(self, bounds):
        """Cover the identities in each closed interval `(lo, hi)` of
        `bounds`, which are sorted by `lo`, in one pass over `_bounds`."""
        spans = []  # the batch's own union: [lo, end) each, disjoint and in order
        for lo, hi in bounds:
            end = hi + (MINK,)
            if spans and lo < spans[-1][1]:
                if spans[-1][1] < end:
                    spans[-1][1] = end
            else:
                spans.append([lo, end])
        old, out, pos = self._bounds, [], 0
        for lo, end in spans:
            i = bisect_left(old, lo, pos)
            j = bisect_right(old, end, i)
            out += old[pos:i]
            # an odd i (j) falls inside an interval, whose start (end) stays
            if not i & 1:
                out.append(lo)
            if not j & 1:
                out.append(end)
            pos = j
        out += old[pos:]
        self._bounds = out

    def covers(self, ident: tuple) -> bool:
        return bisect_right(self._bounds, ident) & 1 == 1


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
    """One `apply_changes` call: the contexts it re-ran and the count changes."""

    contexts: tuple
    # per head atom: {tuple: change in its count}, for counts that changed
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
        (stale extra entries are harmless). Returns the change in each
        head tuple's count, which `head_counts` now holds added; raises
        when a count would fall below zero.
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
                    new_c = counts.get(t, 0) + d
                    if new_c < 0:
                        raise AssertionError(f"support count underflow for {t}")
                    diffs[t] = d
                    if new_c:
                        counts[t] = new_c
                    else:
                        del counts[t]
            report.head_diffs.append(diffs)
        self.constraint_hits += report.constraint_delta
        self.views = dict(new_views)
        return report
