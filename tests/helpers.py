"""Helpers shared by the test modules."""


def view_scan(view):
    """Every full tuple of a view, in order."""
    cur = view.cursor()
    while not cur.at_end:
        yield cur.current()
        cur.next()


def stab_linear(entries, changed):
    """The recorded entries whose interval holds a changed point, by a
    linear scan; changed maps a vertex to its changed full tuples."""
    return [
        e for v, points in changed.items() for t in points
        for e in entries if e.vertex == v and e.lo <= t <= e.hi
    ]
