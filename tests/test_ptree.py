"""Persistent ordered tree vs a dict/sorted-list oracle."""

import pytest
from hypothesis import given, settings
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
