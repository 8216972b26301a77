"""Helpers shared by the test modules."""

from txnrepair import ptree


def view_scan(root):
    """Every full tuple (key + value) of a view's root, in order."""
    for key, value in ptree.items(root):
        yield key + value


def stab_linear(entries, changed):
    """The recorded entries whose interval holds a changed point, by a
    linear scan; changed maps a vertex to its changed full tuples."""
    return [
        e for v, points in changed.items() for t in points
        for e in entries if e.vertex == v and e.lo <= t <= e.hi
    ]
