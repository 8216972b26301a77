"""Persistent B-tree of sorted Python lists.

Path-copying ordered map used for predicate storage, transaction views
and signal contents. `None` is the empty tree; every write returns a new
root and old roots stay valid forever. A node's lists are never mutated
once the node is reachable from a returned root, so any number of
threads may read any root while another writes.

Layout. A leaf holds its keys in one sorted list and their values in a
parallel list. A branch holds the least key of each child in one sorted
list and the children in a parallel list. Every leaf sits at the same
depth, and every node but the root holds between `_WIDTH // 2` and
`_WIDTH` entries.

Width. `_WIDTH` is 64. A write copies a touched node's lists whole, a C
copy that is cheap at this size, while each level of the tree costs a
Python-level step; at 64 the stores met here (2 000 to 20 000 records)
are 2 or 3 levels deep. In interleaved passes over the sku_dense pool,
widths of 32 and 128 ran within noise of 64.

Costs, for n records. A lookup, a cursor seek or the start of a range
scan bisects one list per level: O(log_B n) node steps, each a C
`bisect`. A forward seek from a cursor's finger climbs only as far as
the distance travelled needs. A write of m sorted pairs descends once,
touching each node whose range holds a pair, and copies one list pair
per touched node; nodes that overflow split and nodes that underflow
merge with a neighbour, so a write never rebuilds more than the nodes
it touches and their siblings.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter
from typing import Iterator, Optional

_WIDTH = 64
_MIN = _WIDTH // 2

_first = itemgetter(0)


class Node:
    """A leaf maps `keys[i]` to `vals[i]`; a branch's `vals[i]` is the
    child whose least key is `keys[i]`."""

    __slots__ = ("keys", "vals", "leaf")

    def __init__(self, keys: list, vals: list, leaf: bool):
        self.keys = keys
        self.vals = vals
        self.leaf = leaf


def _spans(n: int) -> list:
    """Bounds of the fewest near-equal parts of n entries that each fit
    one node; every part of n > _WIDTH entries holds at least _MIN."""
    k = -(-n // _WIDTH)
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def _branches(nodes: list) -> list:
    """Branches over the same-height `nodes`, split as `_spans` does."""
    return [
        Node([n.keys[0] for n in nodes[a:b]], nodes[a:b], False) for a, b in _spans(len(nodes))
    ]


def _root(nodes: list) -> Optional[Node]:
    """One root over the same-height `nodes`, in order."""
    while len(nodes) > 1:
        nodes = _branches(nodes)
    if not nodes:
        return None
    root = nodes[0]
    while not root.leaf and len(root.vals) == 1:
        root = root.vals[0]
    return root


def _merge(a: Node, b: Node) -> list:
    """One or two nodes holding a's entries then b's, its same-height
    right neighbour; the children of merged branches are merged in turn
    where either is underfull."""
    if a.leaf:
        keys, vals = a.keys + b.keys, a.vals + b.vals
    else:
        vals = _fix(a.vals + b.vals)
        keys = [n.keys[0] for n in vals]
    if len(keys) <= _WIDTH:
        return [Node(keys, vals, a.leaf)]
    h = len(keys) // 2
    return [Node(keys[:h], vals[:h], a.leaf), Node(keys[h:], vals[h:], a.leaf)]


def _fix(nodes: list) -> list:
    """The same-height `nodes` with each underfull one merged into a
    neighbour; only a lone node may stay underfull."""
    out = []
    for n in nodes:
        # out[-1] is underfull only while it is out's one node, so a
        # merge that leaves it underfull leaves it alone in out
        if out and (len(n.keys) < _MIN or len(out[-1].keys) < _MIN):
            out[-1:] = _merge(out[-1], n)
        else:
            out.append(n)
    return out


def _update(node: Node, pairs: list, lo: int, hi: int, changed: list) -> Optional[list]:
    """The nodes, of node's height and in order, that hold node's entries
    with pairs[lo:hi] applied, or None when nothing moved. There may be
    none, or one underfull; the caller merges those into neighbours."""
    keys = node.keys
    if node.leaf:
        vals = node.vals
        own_keys = own_vals = False
        i = 0
        for k, v in islice(pairs, lo, hi):
            i = bisect_left(keys, k, i)
            if i < len(keys) and keys[i] == k:
                old = vals[i]
                if v == old:
                    continue
                changed.append((k, old))
                if not own_vals:
                    vals, own_vals = vals[:], True
                if v is None:
                    if not own_keys:
                        keys, own_keys = keys[:], True
                    del keys[i], vals[i]
                else:
                    vals[i] = v
            elif v is not None:
                changed.append((k, None))
                if not own_keys:
                    keys, own_keys = keys[:], True
                if not own_vals:
                    vals, own_vals = vals[:], True
                keys.insert(i, k)
                vals.insert(i, v)
        if not own_vals:
            return None
        if len(keys) <= _WIDTH:
            return [Node(keys, vals, True)] if keys else []
        return [Node(keys[a:b], vals[a:b], True) for a, b in _spans(len(keys))]

    kids = node.vals
    last = len(keys) - 1
    moved = []  # (child index, its replacement nodes)
    c = max(bisect_right(keys, pairs[lo][0]) - 1, 0)
    while True:
        end = hi if c == last else bisect_left(pairs, keys[c + 1], lo, hi, key=_first)
        res = _update(kids[c], pairs, lo, end, changed)
        if res is not None:
            moved.append((c, res))
        if end == hi:
            break
        lo = end
        c = bisect_right(keys, pairs[lo][0], c + 1) - 1
    if not moved:
        return None
    kids = kids[:]
    if all(len(res) == 1 and len(res[0].keys) >= _MIN for _c, res in moved):
        # each touched child is one node in bounds: patch the copies
        own_keys = False
        for c, (new,) in moved:
            kids[c] = new
            if new.keys[0] is not keys[c]:
                if not own_keys:
                    keys, own_keys = keys[:], True
                keys[c] = new.keys[0]
        return [Node(keys, kids, False)]
    for c, res in reversed(moved):
        kids[c : c + 1] = res
    kids = _fix(kids)
    if len(kids) <= _WIDTH:
        return [Node([n.keys[0] for n in kids], kids, False)] if kids else []
    return _branches(kids)


def update(root: Optional[Node], pairs) -> tuple:
    """Apply the sorted, distinct `(key, value)` pairs in one descent, a
    value of None removing its key. Returns the new root and, in key
    order, `(key, old value or None)` for every key whose value moved;
    when none moved the root is `root` itself."""
    changed: list = []
    if root is None:
        keys, vals = [], []
        for k, v in pairs:
            if v is not None:
                keys.append(k)
                vals.append(v)
                changed.append((k, None))
        return _build(keys, vals), changed
    if not pairs:
        return root, changed
    nodes = _update(root, pairs, 0, len(pairs), changed)
    return (root if nodes is None else _root(nodes)), changed


def insert(node: Optional[Node], key, val) -> Node:
    """Insert or replace; returns a new root (the same tree when key
    already maps to val)."""
    return update(node, [(key, val)])[0]


def remove(node: Optional[Node], key) -> Optional[Node]:
    """Remove key if present; returns a new root (or the same tree)."""
    return update(node, [(key, None)])[0]


def _build(keys: list, vals: list) -> Optional[Node]:
    """A tree of the sorted `keys` mapped to `vals`, its leaves as full
    as `_spans` makes them; it takes ownership of both lists."""
    if len(keys) <= _WIDTH:
        return Node(keys, vals, True) if keys else None
    return _root([Node(keys[a:b], vals[a:b], True) for a, b in _spans(len(keys))])


def from_sorted(pairs) -> Optional[Node]:
    """Build a tree from sorted (key, val) pairs."""
    pairs = list(pairs)
    return _build([k for k, _v in pairs], [v for _k, v in pairs])


def get(node: Optional[Node], key):
    """Value at key, or None when absent."""
    if node is None:
        return None
    while not node.leaf:
        i = bisect_right(node.keys, key) - 1
        if i < 0:
            return None
        node = node.vals[i]
    keys = node.keys
    i = bisect_left(keys, key)
    if i < len(keys) and keys[i] == key:
        return node.vals[i]
    return None


def _walk(stack: list) -> Iterator[tuple]:
    """The (k, v) pairs of the subtrees on `stack`, the last one first."""
    while stack:
        node = stack.pop()
        if node.leaf:
            yield from zip(node.keys, node.vals)
        else:
            stack += node.vals[::-1]


def items(node: Optional[Node]) -> Iterator[tuple]:
    if node is None:
        return iter(())
    if node.leaf:
        return zip(node.keys, node.vals)
    return _walk([node])


class Cursor:
    """Seekable forward cursor with a finger.

    `_path` holds `(branch, child index)` from the root down to the
    current leaf, whose lists and position are `_keys`, `_vals` and `_i`;
    `key` and `val` are the current record's. seek(k) advances to the
    least key >= k and never moves backward. It bisects the current leaf
    when the target is in it, and otherwise climbs only until a branch's
    next child starts at or past the target, so a short hop costs a few
    comparisons whatever the tree's size.
    """

    __slots__ = ("_path", "_keys", "_vals", "_i", "key", "val", "at_end")

    def __init__(self, root: Optional[Node]):
        self._path: list = []
        self.at_end = root is None
        if root is not None:
            self._leftmost(root)

    def _leftmost(self, node: Node) -> None:
        while not node.leaf:
            self._path.append((node, 0))
            node = node.vals[0]
        self._land(node, 0)

    def _land(self, leaf: Node, i: int) -> None:
        self._keys, self._vals, self._i = leaf.keys, leaf.vals, i
        self.key, self.val = leaf.keys[i], leaf.vals[i]

    def next(self) -> None:
        if self.at_end:
            return
        i = self._i + 1
        if i < len(self._keys):
            self._i, self.key, self.val = i, self._keys[i], self._vals[i]
            return
        path = self._path
        while path:
            node, j = path.pop()
            if j + 1 < len(node.keys):
                path.append((node, j + 1))
                self._leftmost(node.vals[j + 1])
                return
        self.at_end = True

    def seek(self, key) -> None:
        """Advance to the least record with key >= `key`."""
        if self.at_end or not self.key < key:
            return
        keys = self._keys
        if not keys[-1] < key:
            i = bisect_left(keys, key, self._i + 1)
            self._i, self.key, self.val = i, keys[i], self._vals[i]
            return
        # Every key under the deepest frame's child is below the target;
        # climbing past a branch's last child keeps that true one level up.
        path = self._path
        while path:
            node, j = path.pop()
            bk = node.keys
            j += 1
            if j == len(bk):
                continue
            if not bk[j] < key:
                path.append((node, j))
                self._leftmost(node.vals[j])
                return
            j = bisect_right(bk, key, j + 1) - 1
            path.append((node, j))
            node = node.vals[j]
            while not node.leaf:
                i = bisect_right(node.keys, key) - 1
                path.append((node, i))
                node = node.vals[i]
            i = bisect_left(node.keys, key)
            if i < len(node.keys):
                self._land(node, i)
                return
        self.at_end = True
