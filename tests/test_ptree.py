"""Persistent B-tree vs a dict/sorted-list oracle, and its invariants.

Property tests draw the node width as well as the data: at the module's
width of 64 their drawn sizes make at most one level of leaves, so the
narrow widths make the same sizes split, merge and grow several levels
deep."""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from txnrepair import ptree
from txnrepair.values import MINK, TOP

keys = st.integers(0, 200)
ops = st.lists(
    st.tuples(st.sampled_from(["ins", "del"]), keys, st.integers(0, 5)),
    max_size=60,
)
widths = st.sampled_from([4, 5, 8, ptree._WIDTH])


@contextmanager
def width(w):
    """Run with node width `w` (minimum occupancy w // 2)."""
    saved = ptree._WIDTH, ptree._MIN
    ptree._WIDTH, ptree._MIN = w, w // 2
    try:
        yield
    finally:
        ptree._WIDTH, ptree._MIN = saved


def build(pairs):
    root = None
    for k, v in pairs:
        root = ptree.insert(root, k, v)
    return root


def check_tree(root):
    """Assert the B-tree invariants under the current width and return
    the number of records: every leaf at one depth, every non-root node
    within its occupancy bounds (the root: a non-empty leaf or a branch
    of at least two children), each branch key equal to its child's
    least key, and keys strictly increasing across the whole tree."""
    if root is None:
        return 0
    depths, seen = set(), []

    def walk(node, depth):
        assert len(node.keys) == len(node.vals) <= ptree._WIDTH
        if node is not root:
            assert len(node.keys) >= ptree._MIN
        if node.leaf:
            depths.add(depth)
            seen.extend(node.keys)
            return
        for k, kid in zip(node.keys, node.vals):
            assert k is kid.keys[0]
            walk(kid, depth + 1)

    assert root.keys and (root.leaf or len(root.keys) >= 2)
    walk(root, 0)
    assert len(depths) == 1
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert sum(1 for _ in ptree.items(root)) == len(seen)
    return len(seen)


def depth(root):
    d = 0
    while root is not None and not root.leaf:
        root, d = root.vals[0], d + 1
    return d


def test_basic():
    root = build([(2, "b"), (1, "a"), (3, "c")])
    assert ptree.get(root, 2) == "b"
    assert ptree.get(root, 9) is None
    assert list(ptree.items(root)) == [(1, "a"), (2, "b"), (3, "c")]
    root2 = ptree.remove(root, 2)
    assert ptree.get(root2, 2) is None
    assert ptree.get(root, 2) == "b"  # old version untouched


def test_remove_absent_is_identity():
    root = build([(1, "a")])
    assert ptree.remove(root, 7) is root


@given(ops, widths)
@settings(max_examples=200)
def test_vs_dict(op_list, w):
    with width(w):
        root = None
        model = {}
        for kind, k, v in op_list:
            if kind == "ins":
                root = ptree.insert(root, k, v)
                model[k] = v
            else:
                root = ptree.remove(root, k)
                model.pop(k, None)
            check_tree(root)
        assert list(ptree.items(root)) == sorted(model.items())
        assert all(ptree.get(root, k) == v for k, v in model.items())
        assert all(ptree.get(root, k) is None for k in range(-1, 202) if k not in model)


def test_narrow_trees_grow_deep():
    """At the narrowest drawn width, 20 keys take three levels and the
    largest drawn trees four or more."""
    with width(4):
        assert depth(ptree.from_sorted([(k, k) for k in range(20)])) == 2
        assert depth(ptree.from_sorted([(k, k) for k in range(120)])) == 3
        assert depth(build([(k, k) for k in range(60)])) >= 3


# Two-component keys sought by targets padded the way signal interval
# endpoints and join seeks are: a prefix, then MINK or TOP.
pair_keys = st.tuples(st.integers(0, 12), st.integers(0, 4))
padded = st.one_of(
    pair_keys,
    st.tuples(st.integers(0, 13), st.sampled_from([MINK, TOP])),
    st.sampled_from([(MINK, MINK), (TOP, TOP)]),
)


@given(st.sets(keys, max_size=40), widths)
def test_from_sorted(ks, w):
    with width(w):
        pairs = [(k, k * 2) for k in sorted(ks)]
        root = ptree.from_sorted(pairs)
        assert list(ptree.items(root)) == pairs
        assert check_tree(root) == len(pairs)


initial_trees = st.dictionaries(keys, st.integers(0, 5), max_size=120)
runs = st.dictionaries(keys, st.one_of(st.none(), st.integers(0, 5)), max_size=40)


@given(initial_trees, runs, st.booleans(), widths)
@example({}, {4: 9}, False, 4)  # single pairs
@example({5: 0}, {5: None}, False, 4)
@example({5: 0}, {5: 0}, False, 4)
@example({5: 0}, {6: None}, False, 4)
@example(dict.fromkeys(range(0, 200, 3), 1), {9: None}, True, 4)
@example(dict.fromkeys(range(0, 200, 3), 1), {10: 2}, True, 4)
@example(dict.fromkeys(range(0, 200, 3), 1), dict.fromkeys(range(0, 150), None), False, 4)
@settings(max_examples=300)
def test_update_vs_dict(initial, run, by_inserts, w):
    """One bulk update of mixed upserts (equal values among them) and
    removals (absent keys among them) equals the dict model, keeps the
    B-tree invariants, reports exactly the keys whose value moved with
    their old values, and returns the same root when none moved."""
    with width(w):
        pairs = sorted(initial.items())
        root = build(pairs) if by_inserts else ptree.from_sorted(pairs)
        new, changed = ptree.update(root, sorted(run.items()))
        model = dict(initial)
        for k, v in run.items():
            if v is None:
                model.pop(k, None)
            else:
                model[k] = v
        assert list(ptree.items(new)) == sorted(model.items())
        check_tree(new)
        assert changed == [(k, initial.get(k)) for k in sorted(run) if model.get(k) != initial.get(k)]
        assert (new is root) == (not changed)
        assert list(ptree.items(root)) == pairs  # old version untouched
        check_tree(root)


sides = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 8, 100, 2000]), st.integers(0, 2000))


@given(sides, sides, st.floats(0, 1), st.sampled_from(["ins", "del", "mixed"]),
       st.booleans(), st.sampled_from([4, ptree._WIDTH]))
@example(2000, 2000, 0.0, "del", False, ptree._WIDTH)  # empties the tree
@example(2000, 1999, 0.0, "del", True, ptree._WIDTH)  # the root collapses to a leaf
@example(2000, 1990, 0.0025, "del", False, 4)  # the survivors at both ends merge
@example(0, 2000, 0.0, "ins", False, 4)
@example(1, 2000, 1.0, "ins", False, ptree._WIDTH)  # a lone leaf becomes two levels
@example(2000, 700, 0.3, "mixed", False, ptree._WIDTH)
@settings(max_examples=40, deadline=None)
def test_bulk_update_skewed_sizes(n, m, at, kind, by_inserts, w):
    """A run of m changes landing on one block of a tree of n records,
    for any sizes from 0 to 2 000: inserts between and after the keys
    split whole subtrees, removals of a block empty whole subtrees and
    merge what is left, and a tree that shrinks to one node loses its
    upper levels; the result keeps the invariants and matches the model."""
    with width(w):
        initial = {k: k for k in range(0, 2 * n, 2)}
        root = build(sorted(initial.items())) if by_inserts else ptree.from_sorted(sorted(initial.items()))
        lo = int(at * n)
        if kind == "ins":
            run = {k: -k for k in range(2 * lo + 1, 2 * (lo + m), 2)}
        elif kind == "del":
            run = dict.fromkeys(range(2 * lo, 2 * (lo + m), 2))
        else:
            run = {k: (-k if k % 4 else None) for k in range(2 * lo, 2 * (lo + m))}
        new, changed = ptree.update(root, sorted(run.items()))
        model = dict(initial)
        for k, v in run.items():
            if v is None:
                model.pop(k, None)
            else:
                model[k] = v
        assert check_tree(new) == len(model)
        assert list(ptree.items(new)) == sorted(model.items())
        assert changed == [(k, initial.get(k)) for k in sorted(run) if model.get(k) != initial.get(k)]
        assert list(ptree.items(root)) == sorted(initial.items())
        if len(model) < 2 * ptree._MIN:  # too few for two nodes: the root is a leaf
            assert new is None or new.leaf


class _CountingKey(int):
    """An int key that counts the order comparisons made on it."""

    compares = 0

    def __lt__(self, other):
        _CountingKey.compares += 1
        return int.__lt__(self, other)

    def __le__(self, other):
        _CountingKey.compares += 1
        return int.__le__(self, other)

    def __gt__(self, other):
        _CountingKey.compares += 1
        return int.__gt__(self, other)

    def __ge__(self, other):
        _CountingKey.compares += 1
        return int.__ge__(self, other)


class TestCursor:
    @given(st.sets(keys, min_size=1, max_size=40), st.lists(keys, max_size=10), widths)
    def test_seek_lands_on_lower_bound(self, ks, seeks, w):
        with width(w):
            root = build([(k, ()) for k in sorted(ks)])
            order = sorted(ks)
            for target in sorted(seeks):  # cursor seeks must be monotone
                cur = ptree.Cursor(root)
                cur.seek(target)
                expect = [k for k in order if k >= target]
                if expect:
                    assert not cur.at_end
                    assert cur.key == expect[0]
                else:
                    assert cur.at_end

    @given(st.sets(pair_keys, max_size=40),
           st.lists(st.one_of(st.just("next"), padded), max_size=20), widths)
    def test_one_cursor_walk_vs_oracle(self, ks, moves, w):
        """One cursor moved by any sequence of steps and seeks, including
        stale and padded targets, stays on the oracle's position."""
        with width(w):
            order = sorted(ks)
            root = ptree.from_sorted([(k, k[::-1]) for k in order])
            cur = ptree.Cursor(root)
            pos = 0
            for move in moves:
                if move == "next":
                    cur.next()
                    pos = min(pos + 1, len(order))
                else:
                    cur.seek(move)
                    while pos < len(order) and order[pos] < move:
                        pos += 1
                assert cur.at_end == (pos == len(order))
                if not cur.at_end:
                    assert (cur.key, cur.val) == (order[pos], order[pos][::-1])

    def test_next_walks_in_order(self):
        root = build([(k, ()) for k in (5, 1, 9, 3)])
        cur = ptree.Cursor(root)
        seen = []
        while not cur.at_end:
            seen.append(cur.key)
            cur.next()
        assert seen == [1, 3, 5, 9]

    @pytest.mark.parametrize("w", [4, 5, ptree._WIDTH])
    def test_next_walks_every_level(self, w):
        with width(w):
            root = build([(k, -k) for k in range(500)])
            cur = ptree.Cursor(root)
            seen = []
            while not cur.at_end:
                seen.append((cur.key, cur.val))
                cur.next()
            assert seen == list(ptree.items(root)) == [(k, -k) for k in range(500)]

    def test_seek_cost_is_local(self):
        root = ptree.from_sorted([(_CountingKey(k), ()) for k in range(4096)])
        cur = ptree.Cursor(root)
        for k in range(1000, 1100):
            cur.seek(_CountingKey(k))
            c0 = _CountingKey.compares
            cur.seek(_CountingKey(k + 1))
            # short hop: logarithmic in distance
            assert _CountingKey.compares - c0 < 16
            assert cur.key == k + 1
