"""Views: persistent predicate tree roots, patched by path copy.

A view is one persistent `ptree` root mapping a predicate's keys to its
value tuples; the join (`lftj`) reads it as the sorted full tuples, key
components followed by value components. A changed copy of a view is a
path copy of its root (`patch_tree`): new copies of the B-tree nodes the
patch lands in, sharing every other node, never a layer over it, so a
root stays a snapshot while its holder moves on.
"""

from __future__ import annotations

from typing import Optional

from . import ptree


def patch_tree(entries, root=None):
    """`root` with every entry of {key: value_tuple} applied in one
    `ptree.update` descent; a value of None removes its key."""
    return ptree.update(root, sorted(entries.items()))[0]


def view_lookup(root, key: tuple) -> Optional[tuple]:
    """Value tuple for key under the view's root, or None."""
    return ptree.get(root, key)
