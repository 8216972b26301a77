"""Sorted full-tuple views: tree-backed and overlay composition."""

from hypothesis import given, settings
from hypothesis import strategies as st

from txnrepair import ptree
from txnrepair.views import (
    OverlayView,
    TreeView,
    patch_tree,
    view_lookup,
    view_scan,
)


def tree_view(entries, karity=1, varity=1):
    root = ptree.from_sorted(sorted(entries.items()))
    return TreeView(root, karity, varity)


def test_tree_view_scan_and_lookup():
    v = tree_view({(1,): (10,), (3,): (30,)})
    assert list(view_scan(v)) == [(1, 10), (3, 30)]
    assert view_lookup(v, (3,)) == (30,)
    assert view_lookup(v, (2,)) is None


def test_overlay_patch_wins():
    base = tree_view({(1,): (10,), (2,): (20,)})
    ov = OverlayView(base, patch_tree({(2,): (1, (99,))}))
    assert list(view_scan(ov)) == [(1, 10), (2, 99)]


def test_overlay_retraction_hides():
    base = tree_view({(1,): (10,), (2,): (20,)})
    ov = OverlayView(base, patch_tree({(1,): (-1, None)}))
    assert list(view_scan(ov)) == [(2, 20)]
    assert view_lookup(ov, (1,)) is None


def test_overlay_nested():
    base = tree_view({(1,): (10,)})
    mid = OverlayView(base, patch_tree({(2,): (1, (20,))}))
    top = OverlayView(mid, patch_tree({(1,): (-1, None), (3,): (1, (30,))}))
    assert list(view_scan(top)) == [(2, 20), (3, 30)]


def test_cursor_seek_in_value_part():
    base = tree_view({(1,): (10,)})
    cur = base.cursor()
    cur.seek((1, 5))
    assert cur.current() == (1, 10)  # value part rounds down within the key
    cur2 = base.cursor()
    cur2.seek((1, 50))
    assert cur2.at_end


patches = st.dictionaries(
    st.integers(0, 15),
    st.one_of(st.tuples(st.just(1), st.integers(0, 9)), st.just((-1, None))),
    max_size=10,
)


@given(st.dictionaries(st.integers(0, 15), st.integers(0, 9), max_size=10), patches)
@settings(max_examples=300)
def test_overlay_vs_dict_merge(base_entries, patch_entries):
    model = dict(base_entries)
    patch = {}
    for k, (sign, val) in patch_entries.items():
        patch[(k,)] = (sign, (val,) if sign > 0 else None)
        if sign > 0:
            model[k] = val
        else:
            model.pop(k, None)
    base = tree_view({(k,): (v,) for k, v in base_entries.items()})
    ov = OverlayView(base, patch_tree(patch))
    assert list(view_scan(ov)) == [(k, v) for k, v in sorted(model.items())]
    for k in range(16):
        want = (model[k],) if k in model else None
        assert view_lookup(ov, (k,)) == want


@given(st.dictionaries(st.integers(0, 15), st.integers(0, 9), max_size=10),
       patches, st.lists(st.tuples(st.integers(0, 16), st.integers(0, 10)), max_size=6))
@settings(max_examples=250)
def test_overlay_cursor_seek_monotone(base_entries, patch_entries, seeks):
    model = dict(base_entries)
    patch = {}
    for k, (sign, val) in patch_entries.items():
        patch[(k,)] = (sign, (val,) if sign > 0 else None)
        if sign > 0:
            model[k] = val
        else:
            model.pop(k, None)
    tuples = sorted((k, v) for k, v in model.items())
    base = tree_view({(k,): (v,) for k, v in base_entries.items()})
    ov = OverlayView(base, patch_tree(patch))
    cur = ov.cursor()
    for t in sorted(seeks):
        cur.seek(t)
        expect = [u for u in tuples if u >= t]
        if expect:
            assert not cur.at_end
            assert cur.current() == expect[0]
        else:
            assert cur.at_end


@given(st.dictionaries(st.tuples(st.integers(0, 15), st.integers(0, 3)),
                       st.one_of(st.tuples(st.just(1), st.tuples(st.integers(0, 9))),
                                 st.just((-1, None))),
                       max_size=30))
@settings(max_examples=200)
def test_patch_tree_bulk_build_matches_insert_loop(entries):
    """The bulk-built patch tree holds what inserting key by key would."""
    loop = None
    for key in sorted(entries):
        loop = ptree.insert(loop, key, entries[key])
    bulk = patch_tree(entries)
    assert list(ptree.items(bulk)) == list(ptree.items(loop))
    assert ptree.size(bulk) == len(entries)
