"""Seekable full-tuple cursors over persistent predicate trees.

A view exposes one predicate's records as sorted full tuples (key
components followed by value components). It is one persistent `ptree`
root mapping keys to value tuples, so a changed copy of a view is a path
copy of its root (`patch_tree`), never a layer over it. A view captures
the root it was built with, so it stays a snapshot while its holder
moves on.
"""

from __future__ import annotations

from typing import Optional

from . import ptree
from .values import MINK, TOP


class TreeView:
    """View over one predicate tree root (key -> value tuple)."""

    __slots__ = ("root", "karity", "varity", "arity")

    def __init__(self, root, karity: int, varity: int = 0):
        self.root = root
        self.karity = karity
        self.varity = varity
        self.arity = karity + varity

    def cursor(self) -> "TreeTupleCursor":
        return TreeTupleCursor(self)

    def pad(self, prefix, low=True) -> tuple:
        fill = MINK if low else TOP
        return tuple(prefix) + (fill,) * (self.arity - len(prefix))


class TreeTupleCursor:
    """Forward-only sorted cursor over a view's full tuples."""

    __slots__ = ("_view", "_cur", "at_end")

    def __init__(self, view: TreeView):
        self._view = view
        self._cur = ptree.Cursor(view.root)
        self.at_end = self._cur.at_end

    def current(self) -> tuple:
        return self._cur.key + self._cur.val

    def seek(self, t: tuple) -> None:
        if self.at_end:
            return
        kt = t[: self._view.karity]
        self._cur.seek(kt)
        # one key holds one value: if the key matches exactly but the value
        # part is below the target, the next key is the answer
        if not self._cur.at_end and self._cur.key == kt and self.current() < t:
            self._cur.next()
        self.at_end = self._cur.at_end

    def next(self) -> None:
        if self.at_end:
            return
        self._cur.next()
        self.at_end = self._cur.at_end


def patch_tree(entries, root=None):
    """`root` with every entry of {key: value_tuple} applied in one
    `ptree.update` walk; a value of None removes its key."""
    return ptree.update(root, sorted(entries.items()))[0]


def view_lookup(view: TreeView, key: tuple) -> Optional[tuple]:
    """Value tuple for key under the view, or None."""
    return ptree.get(view.root, key)
