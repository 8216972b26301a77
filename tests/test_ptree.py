"""Persistent ordered tree vs a dict/sorted-list oracle."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from txnrepair import ptree

keys = st.integers(0, 200)
ops = st.lists(
    st.tuples(st.sampled_from(["ins", "del"]), keys, st.integers(0, 5)),
    max_size=60,
)


def build(pairs):
    root = None
    for k, v in pairs:
        root = ptree.insert(root, k, v)
    return root


def check_balance(node):
    # weight-balance invariant: neither subtree more than _DELTA times the other
    if node is None:
        return 0
    ls, rs = check_balance(node.left), check_balance(node.right)
    if ls + rs > 1:
        assert ls <= ptree._DELTA * rs
        assert rs <= ptree._DELTA * ls
    assert node.size == ls + rs + 1
    return node.size


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


@given(ops)
@settings(max_examples=200)
def test_vs_dict(op_list):
    root = None
    model = {}
    for kind, k, v in op_list:
        if kind == "ins":
            root = ptree.insert(root, k, v)
            model[k] = v
        else:
            root = ptree.remove(root, k)
            model.pop(k, None)
    assert list(ptree.items(root)) == sorted(model.items())
    check_balance(root)


@given(st.lists(st.tuples(keys, st.integers()), max_size=40), keys)
def test_items_from(pairs, start):
    root = build(pairs)
    model = dict(pairs)
    assert list(ptree.items_from(root, start)) == [
        (k, v) for k, v in sorted(model.items()) if k >= start
    ]


@given(st.sets(keys, max_size=40))
def test_from_sorted(ks):
    pairs = [(k, k * 2) for k in sorted(ks)]
    root = ptree.from_sorted(pairs)
    assert list(ptree.items(root)) == pairs
    check_balance(root)


initial_trees = st.dictionaries(keys, st.integers(0, 5), max_size=120)
runs = st.dictionaries(keys, st.one_of(st.none(), st.integers(0, 5)), max_size=40)


@given(initial_trees, runs, st.booleans())
@example({}, {4: 9}, False)  # single pairs: one `_put` descent
@example({5: 0}, {5: None}, False)
@example({5: 0}, {5: 0}, False)
@example({5: 0}, {6: None}, False)
@example(dict.fromkeys(range(0, 200, 3), 1), {9: None}, True)
@example(dict.fromkeys(range(0, 200, 3), 1), {10: 2}, True)
@settings(max_examples=300)
def test_update_vs_dict(initial, run, by_inserts):
    """One bulk update of mixed upserts (equal values among them) and
    removals (absent keys among them) equals the dict model, keeps every
    node balanced, reports exactly the keys whose value moved with their
    old values, and returns the same root when none moved."""
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
    check_balance(new)
    assert changed == [(k, initial.get(k)) for k in sorted(run) if model.get(k) != initial.get(k)]
    assert (new is root) == (not changed)
    assert list(ptree.items(root)) == pairs  # old version untouched


sides = st.one_of(st.sampled_from([0, 1, 2, 3, 4, 8, 100, 2000]), st.integers(0, 2000))


@given(sides, sides, st.booleans())
@settings(max_examples=40, deadline=None)
def test_link_skewed_sides(ls, rs, middle):
    """`_link` and `_join2` of balanced sides of any two sizes from 0 to
    2 000 give a balanced tree of their keys in order."""
    left = build([(k, k) for k in range(ls)])  # ascending inserts: not a perfect shape
    right = ptree.from_sorted([(k, k) for k in range(ls + 1, ls + 1 + rs)])
    if middle:
        root = ptree._link(ls, ls, left, right)
        expect = list(range(ls + 1 + rs))
    else:
        root = ptree._join2(left, right)
        expect = [k for k in range(ls + 1 + rs) if k != ls]
    assert [k for k, _v in ptree.items(root)] == expect
    check_balance(root)


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
    @given(st.sets(keys, min_size=1, max_size=40), st.lists(keys, max_size=10))
    def test_seek_lands_on_lower_bound(self, ks, seeks):
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

    def test_next_walks_in_order(self):
        root = build([(k, ()) for k in (5, 1, 9, 3)])
        cur = ptree.Cursor(root)
        seen = []
        while not cur.at_end:
            seen.append(cur.key)
            cur.next()
        assert seen == [1, 3, 5, 9]

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
