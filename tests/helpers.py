"""Helpers shared by the test modules."""


def view_scan(view):
    """Every full tuple of a view, in order."""
    cur = view.cursor()
    while not cur.at_end:
        yield cur.current()
        cur.next()
