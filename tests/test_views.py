"""Views as persistent roots, and patched copies of them."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import view_scan
from txnrepair import ptree
from txnrepair.views import patch_tree, view_lookup


def tree_view(entries):
    return ptree.from_sorted(sorted(entries.items()))


def test_tree_view_scan_and_lookup():
    v = tree_view({(1,): (10,), (3,): (30,)})
    assert list(view_scan(v)) == [(1, 10), (3, 30)]
    assert view_lookup(v, (3,)) == (30,)
    assert view_lookup(v, (2,)) is None


def test_overlay_patch_wins():
    base = tree_view({(1,): (10,), (2,): (20,)})
    pv = patch_tree({(2,): (99,)}, base)
    assert list(view_scan(pv)) == [(1, 10), (2, 99)]
    assert list(view_scan(base)) == [(1, 10), (2, 20)]  # a path copy


def test_overlay_nested():
    """A patch of a patched root, as an end: root over its db: root."""
    base = tree_view({(1,): (10,)})
    mid = patch_tree({(2,): (20,)}, base)
    top = patch_tree({(1,): (11,), (3,): (30,)}, mid)
    assert list(view_scan(top)) == [(1, 11), (2, 20), (3, 30)]
    assert list(view_scan(mid)) == [(1, 10), (2, 20)]


patches = st.dictionaries(st.integers(0, 15), st.integers(0, 9), max_size=10)


@given(st.dictionaries(st.integers(0, 15), st.integers(0, 9), max_size=10), patches)
@settings(max_examples=300)
def test_overlay_vs_dict_merge(base_entries, patch_entries):
    model = {**base_entries, **patch_entries}
    patch = {(k,): (v,) for k, v in patch_entries.items()}
    base = tree_view({(k,): (v,) for k, v in base_entries.items()})
    pv = patch_tree(patch, base)
    assert list(view_scan(pv)) == [(k, v) for k, v in sorted(model.items())]
    for k in range(16):
        want = (model[k],) if k in model else None
        assert view_lookup(pv, (k,)) == want
    assert list(view_scan(base)) == [(k, v) for k, v in sorted(base_entries.items())]


@given(st.dictionaries(st.tuples(st.integers(0, 15), st.integers(0, 3)),
                       st.tuples(st.integers(0, 9)), max_size=30))
@settings(max_examples=200)
def test_patch_tree_bulk_build_matches_insert_loop(entries):
    """A patch tree from nothing holds what the bulk build of the same
    sorted entries does."""
    bulk = ptree.from_sorted(sorted(entries.items()))
    patched_root = patch_tree(entries)
    assert list(ptree.items(patched_root)) == list(ptree.items(bulk))
    assert sum(1 for _ in ptree.items(patched_root)) == len(entries)
