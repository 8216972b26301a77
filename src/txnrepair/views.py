"""Seekable full-tuple cursors over predicate trees and overlays.

A view exposes one predicate's records as sorted full tuples
(key components followed by value components). Overlay views patch a
base view with a tree mapping keys to value tuples without touching it:
a patched key takes the patch value. Overlays nest, so `base +
corrections + own-deltas` is two stacked overlays over the same
immutable snapshot.

Patch trees are persistent `ptree` roots: a holder bulk-builds one once
and then path-copies it with one insert or remove per changed key. A
view captures the root it was built with, so it stays a snapshot while
its holder moves on.
"""

from __future__ import annotations

from typing import Optional

from . import ptree
from .values import MINK, TOP


class TupleCursor:
    """Protocol: forward-only sorted cursor over full tuples."""

    at_end: bool

    def current(self) -> tuple:
        raise NotImplementedError

    def seek(self, t: tuple) -> None:
        raise NotImplementedError

    def next(self) -> None:
        raise NotImplementedError


class View:
    karity: int
    varity: int

    @property
    def arity(self) -> int:
        return self.karity + self.varity

    def cursor(self) -> TupleCursor:
        raise NotImplementedError

    def pad(self, prefix, low=True) -> tuple:
        fill = MINK if low else TOP
        return tuple(prefix) + (fill,) * (self.arity - len(prefix))


class TreeView(View):
    """View over one predicate tree root (key -> value tuple)."""

    def __init__(self, root, karity: int, varity: int = 0):
        self.root = root
        self.karity = karity
        self.varity = varity

    def cursor(self) -> "TreeTupleCursor":
        return TreeTupleCursor(self)


class TreeTupleCursor(TupleCursor):
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


def patch_tree(entries):
    """Bulk-build a patch tree from {key: value_tuple}."""
    return ptree.from_sorted((tuple(k), entries[k]) for k in sorted(entries))


class OverlayView(View):
    """base view patched by a key -> value tree; a patched key takes the
    patch value."""

    def __init__(self, base: View, patch_root):
        self.base = base
        self.patch_root = patch_root
        self.karity = base.karity
        self.varity = base.varity

    def cursor(self) -> "OverlayTupleCursor":
        return OverlayTupleCursor(self)


class OverlayTupleCursor(TupleCursor):
    __slots__ = ("_view", "_base", "_pcur", "_mode", "at_end")

    def __init__(self, view: OverlayView):
        self._view = view
        self._base = view.base.cursor()
        self._pcur = ptree.Cursor(view.patch_root)
        self._mode = "base"
        self.at_end = False
        self._settle()

    def _settle(self) -> None:
        self.at_end = self._base.at_end and self._pcur.at_end
        if self._pcur.at_end:
            self._mode = "base"
        elif self._base.at_end:
            self._mode = "patch"
        else:
            bk = self._base.current()[: self._view.karity]
            pk = self._pcur.key
            self._mode = "base" if bk < pk else "both" if bk == pk else "patch"

    def current(self) -> tuple:
        if self._mode == "base":
            return self._base.current()
        return self._pcur.key + self._pcur.val

    def next(self) -> None:
        if self.at_end:
            return
        if self._mode in ("patch", "both"):
            self._pcur.next()
        if self._mode in ("base", "both"):
            self._base.next()
        self._settle()

    def seek(self, t: tuple) -> None:
        if self.at_end:
            return
        self._base.seek(t)
        self._pcur.seek(tuple(t[: self._view.karity]))
        self._settle()
        # a patch value below the target value part needs one more step
        while not self.at_end and self.current() < t:
            self.next()


def view_lookup(view: View, key: tuple) -> Optional[tuple]:
    """Value tuple for key under the view, or None."""
    cur = view.cursor()
    target = view.pad(key, low=True)
    cur.seek(target)
    if cur.at_end:
        return None
    t = cur.current()
    if t[: view.karity] != tuple(key):
        return None
    return t[view.karity :]
