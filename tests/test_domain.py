"""Domain order and decomposition partition properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txnrepair.circuit import labels
from txnrepair.domain import BOTTOM_POINT, TOP_POINT, build_decomposition, point
from txnrepair.values import MINK, TOP

pts = st.tuples(st.integers(0, 3), st.integers(0, 40))


def _contains(decomp, d, pred_id, key):
    lo, hi = decomp.subdomain_interval(d)
    return lo <= point(pred_id, key) < hi


def test_total_order():
    assert BOTTOM_POINT < point(0, (MINK,)) < point(0, (0,))
    assert point(0, (99,)) < point(1, (0,))
    assert point(2, (5,)) < point(2, (TOP,)) < TOP_POINT
    assert point(1, (5,)) == (1, (5,))
    assert not point(1, (5,)) < point(1, (5,))


@given(
    st.lists(pts, max_size=30),
    st.integers(1, 4),
    st.lists(pts, min_size=1, max_size=20),
)
@settings(max_examples=250)
def test_leaf_partition(samples, height, probes):
    """Every record point falls in exactly one leaf subdomain, at every
    level of the decomposition."""
    decomp = build_decomposition([point(p, (k,)) for p, k in samples], height)
    for pred_id, k in probes:
        key = (k,)
        for h in range(height + 1):
            owners = [d for d in labels(h) if _contains(decomp, d, pred_id, key)]
            assert len(owners) == 1, (pred_id, key, h, owners)


@given(st.lists(pts, max_size=30), st.integers(1, 4))
@settings(max_examples=250)
def test_split_nests_children(samples, height):
    """Node d's interval is the union of d0's and d1's, which meet at one
    split point inside it."""
    decomp = build_decomposition([point(p, (k,)) for p, k in samples], height)
    for h in range(height):
        for d in labels(h):
            lo, hi = decomp.subdomain_interval(d)
            l0, h0 = decomp.subdomain_interval(d + "0")
            l1, h1 = decomp.subdomain_interval(d + "1")
            assert l0 == lo and h1 == hi and h0 == l1
            assert lo <= h0 <= hi


def test_empty_halves_split_at_a_point_end():
    """A node without samples splits at its lower end if that is a point,
    else at its upper end, else (the whole domain) at (0, (MINK,))."""
    low = point(0, (MINK,))
    empty = build_decomposition([], 2)
    assert empty.subdomain_interval("0") == (BOTTOM_POINT, low)
    assert empty.subdomain_interval("00") == (BOTTOM_POINT, low)
    assert empty.subdomain_interval("01") == (low, low)
    assert empty.subdomain_interval("10") == (low, low)
    assert empty.subdomain_interval("11") == (low, TOP_POINT)
    one = build_decomposition([point(1, (7,))], 2)
    assert one.subdomain_interval("0") == (BOTTOM_POINT, point(1, (7,)))
    assert one.subdomain_interval("01") == (point(1, (7,)), point(1, (7,)))
    assert one.subdomain_interval("11") == (point(1, (7,)), TOP_POINT)


def test_invalid_path_character():
    decomp = build_decomposition([point(0, (i,)) for i in range(10)], 3)
    with pytest.raises(ValueError):
        decomp.subdomain_interval("02")
