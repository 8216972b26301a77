"""Persistent weight-balanced search tree.

Path-copying ordered map used for predicate storage and signal contents.
Every update returns a new root; old roots stay valid forever. Cursors
keep a finger (ancestor stack) so a forward seek costs time proportional
to the log of the distance travelled, which is what gives the
O(m log(n/m)) bound for visiting m of n records via seeks.

Writes of many records go through one bulk `update`, built on Adams'
join (`_link`): it applies m sorted upserts and removals to a tree of n
records in one walk, in O(m log(n/m + 1)) time, and reports each key
whose value moved.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterator, Optional

# Weight-balance parameters (delta, gamma) = (3, 2): a classic valid pair.
_DELTA = 3
_GAMMA = 2

_first = itemgetter(0)


class Node:
    __slots__ = ("key", "val", "left", "right", "size")

    def __init__(self, key, val, left, right):
        self.key = key
        self.val = val
        self.left = left
        self.right = right
        self.size = 1 + size(left) + size(right)


def size(node: Optional[Node]) -> int:
    return node.size if node is not None else 0


def _single_left(n: Node) -> Node:
    r = n.right
    return Node(r.key, r.val, Node(n.key, n.val, n.left, r.left), r.right)


def _single_right(n: Node) -> Node:
    l = n.left
    return Node(l.key, l.val, l.left, Node(n.key, n.val, l.right, n.right))


def _double_left(n: Node) -> Node:
    r = n.right
    rl = r.left
    return Node(
        rl.key,
        rl.val,
        Node(n.key, n.val, n.left, rl.left),
        Node(r.key, r.val, rl.right, r.right),
    )


def _double_right(n: Node) -> Node:
    l = n.left
    lr = l.right
    return Node(
        lr.key,
        lr.val,
        Node(l.key, l.val, l.left, lr.left),
        Node(n.key, n.val, lr.right, n.right),
    )


def _balance(key, val, left, right) -> Node:
    ls, rs = size(left), size(right)
    if ls + rs <= 1:
        return Node(key, val, left, right)
    if rs > _DELTA * ls:
        if size(right.left) < _GAMMA * size(right.right):
            return _single_left(Node(key, val, left, right))
        return _double_left(Node(key, val, left, right))
    if ls > _DELTA * rs:
        if size(left.right) < _GAMMA * size(left.left):
            return _single_right(Node(key, val, left, right))
        return _double_right(Node(key, val, left, right))
    return Node(key, val, left, right)


def _link(key, val, left, right) -> Node:
    """Adams' join: one tree of `left`, then (key, val), then `right`,
    whose keys are all below and all above key. It descends the larger
    side until the two sides balance, so it costs O(|log(l/r)|) for
    sides of l and r records."""
    ls, rs = size(left), size(right)
    if _DELTA * ls < rs:
        return _balance(right.key, right.val, _link(key, val, left, right.left), right.right)
    if _DELTA * rs < ls:
        return _balance(left.key, left.val, left.left, _link(key, val, left.right, right))
    return Node(key, val, left, right)


def _delete_min(node: Node):
    if node.left is None:
        return node.key, node.val, node.right
    k, v, new_left = _delete_min(node.left)
    return k, v, _balance(node.key, node.val, new_left, node.right)


def _join2(left, right):
    """`_link` without a middle key: the least key of `right` stands in."""
    if left is None:
        return right
    if right is None:
        return left
    k, v, rest = _delete_min(right)
    return _link(k, v, left, rest)


def _build(pairs, lo, hi) -> Node:
    """Perfectly balanced tree of the sorted pairs[lo:hi], lo < hi."""
    mid = (lo + hi) // 2
    k, v = pairs[mid]
    left = _build(pairs, lo, mid) if lo < mid else None
    right = _build(pairs, mid + 1, hi) if mid + 1 < hi else None
    return Node(k, v, left, right)


def _put(node, key, val, changed):
    """One path-copying descent: `node` with key mapped to val, or without
    key when val is None; returns `node` itself when nothing moved."""
    if node is None:
        if val is None:
            return None
        changed.append((key, None))
        return Node(key, val, None, None)
    k = node.key
    if key < k:
        left = _put(node.left, key, val, changed)
        return node if left is node.left else _balance(k, node.val, left, node.right)
    if key > k:
        right = _put(node.right, key, val, changed)
        return node if right is node.right else _balance(k, node.val, node.left, right)
    if val == node.val:
        return node
    changed.append((key, node.val))
    if val is None:
        return _join2(node.left, node.right)
    return Node(key, val, node.left, node.right)


def insert(node: Optional[Node], key, val) -> Node:
    """Insert or replace; returns a new root (the same tree when key
    already maps to val)."""
    return _put(node, key, val, [])


def remove(node: Optional[Node], key) -> Optional[Node]:
    """Remove key if present; returns a new root (or the same tree)."""
    return _put(node, key, None, [])


def update(root: Optional[Node], pairs) -> tuple:
    """Apply the sorted, distinct `(key, value)` pairs in one walk, a
    value of None removing its key. Returns the new root and, in key
    order, `(key, old value or None)` for every key whose value moved;
    when none moved the root is `root` itself.

    At each node the run of pairs is bisected at the node's key, both
    halves recurse, and `_link` rejoins them (`_join2` when the node's
    own key is removed). An empty subtree takes its run as a balanced
    build, and a single pair is one `_put` descent. m pairs into n
    records cost O(m log(n/m + 1)) (Blelloch, Ferizovic & Sun, "Just
    Join for Parallel Ordered Sets", SPAA 2016).
    """
    changed: list = []
    return _update(root, pairs, 0, len(pairs), changed), changed


def _update(node, pairs, lo, hi, changed):
    if lo == hi:
        return node
    if hi - lo == 1:
        key, val = pairs[lo]
        return _put(node, key, val, changed)
    if node is None:
        run = [p for p in pairs[lo:hi] if p[1] is not None]
        changed += [(k, None) for k, _v in run]
        return _build(run, 0, len(run)) if run else None
    key = node.key
    i = bisect_left(pairs, key, lo, hi, key=_first)
    j = i + 1 if i < hi and pairs[i][0] == key else i
    left = _update(node.left, pairs, lo, i, changed)
    val = node.val
    if i < j and pairs[i][1] != val:
        changed.append((key, val))
        val = pairs[i][1]
    right = _update(node.right, pairs, j, hi, changed)
    if val is None:
        return _join2(left, right)
    if left is node.left and right is node.right and val is node.val:
        return node
    return _link(key, val, left, right)


def get(node: Optional[Node], key):
    """Value at key, or None when absent."""
    while node is not None:
        if key < node.key:
            node = node.left
        elif key > node.key:
            node = node.right
        else:
            return node.val
    return None


def items(node: Optional[Node]) -> Iterator[tuple]:
    stack = []
    while node is not None or stack:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        yield node.key, node.val
        node = node.right


def items_from(node: Optional[Node], key) -> Iterator[tuple]:
    """Iterate (k, v) pairs with k >= key, in order."""
    stack = []
    while node is not None:
        if node.key < key:
            node = node.right
        else:
            stack.append(node)
            node = node.left
    while stack:
        node = stack.pop()
        yield node.key, node.val
        node = node.right
        while node is not None:
            stack.append(node)
            node = node.left


class Cursor:
    """Seekable forward cursor with a finger.

    The stack holds the pending in-order positions: the current node on
    top, below it every ancestor whose key (and right subtree) is still
    ahead of the cursor. seek(k) advances to the least key >= k and never
    moves backward; its cost is proportional to the log of the distance
    travelled.
    """

    __slots__ = ("_stack", "at_end")

    def __init__(self, root: Optional[Node]):
        self._stack: list = []
        self._push_left(root)
        self.at_end = not self._stack

    @property
    def key(self):
        return self._stack[-1].key

    @property
    def val(self):
        return self._stack[-1].val

    def _push_left(self, node):
        while node is not None:
            self._stack.append(node)
            node = node.left

    def next(self) -> None:
        if self.at_end:
            return
        node = self._stack.pop()
        self._push_left(node.right)
        self.at_end = not self._stack

    def seek(self, key) -> None:
        """Advance to the least record with key >= `key`."""
        if self.at_end:
            return
        s = self._stack
        if s[-1].key >= key:
            return
        # Pending entries are increasing from top to bottom. While the entry
        # *below* the top is still < key, everything reachable from the top
        # entry (its key and right subtree) is < key too, so drop it.
        while len(s) >= 2 and s[-2].key < key:
            s.pop()
        node = s.pop()  # node.key < key; answer may be in its right subtree
        sub = node.right
        while sub is not None:
            if sub.key < key:
                sub = sub.right
            else:
                s.append(sub)
                sub = sub.left
        self.at_end = not s


def from_sorted(pairs) -> Optional[Node]:
    """Build a perfectly balanced tree from sorted (key, val) pairs."""
    pairs = list(pairs)
    return _build(pairs, 0, len(pairs)) if pairs else None
