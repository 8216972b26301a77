"""Persistent weight-balanced search tree.

Path-copying ordered map used for predicate storage and signal contents.
Every update returns a new root; old roots stay valid forever. Cursors
keep a finger (ancestor stack) so a forward seek costs time proportional
to the log of the distance travelled, which is what gives the
O(m log(n/m)) bound for visiting m of n records via seeks.
"""

from __future__ import annotations

from typing import Iterator, Optional

# Weight-balance parameters (delta, gamma) = (3, 2): a classic valid pair.
_DELTA = 3
_GAMMA = 2


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


def insert(node: Optional[Node], key, val) -> Node:
    """Insert or replace; returns a new root."""
    if node is None:
        return Node(key, val, None, None)
    if key < node.key:
        return _balance(node.key, node.val, insert(node.left, key, val), node.right)
    if key > node.key:
        return _balance(node.key, node.val, node.left, insert(node.right, key, val))
    return Node(key, val, node.left, node.right)


def _delete_min(node: Node):
    if node.left is None:
        return node.key, node.val, node.right
    k, v, new_left = _delete_min(node.left)
    return k, v, _balance(node.key, node.val, new_left, node.right)


def remove(node: Optional[Node], key) -> Optional[Node]:
    """Remove key if present; returns a new root (or the same tree)."""
    if node is None:
        return None
    if key < node.key:
        new_left = remove(node.left, key)
        if new_left is node.left:
            return node
        return _balance(node.key, node.val, new_left, node.right)
    if key > node.key:
        new_right = remove(node.right, key)
        if new_right is node.right:
            return node
        return _balance(node.key, node.val, node.left, new_right)
    if node.right is None:
        return node.left
    if node.left is None:
        return node.right
    k, v, new_right = _delete_min(node.right)
    return _balance(k, v, node.left, new_right)


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

    def build(lo, hi):
        if lo >= hi:
            return None
        mid = (lo + hi) // 2
        k, v = pairs[mid]
        return Node(k, v, build(lo, mid), build(mid + 1, hi))

    return build(0, len(pairs))
