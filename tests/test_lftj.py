"""Leapfrog join: golden trace, brute-force equivalence, sensitivity
soundness."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txnrepair.lftj import Stats, compile_rule, eval_rule
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.values import INT64, MINK, TOP
from txnrepair.views import TreeView, patch_tree

SCHEMA = Schema.from_sigs([
    PredicateSig("A", 0, (INT64,)),
    PredicateSig("B", 1, (INT64, INT64)),
    PredicateSig("C", 2, (INT64,)),
])
RULE = parse_rules("D(x, y) <- A(x), B(x, y), C(y).")[0]
COMPILED = compile_rule(RULE, SCHEMA)


def make_db(A, B, C):
    db = DbVersion()
    for x in A:
        db = store_upsert(db, SCHEMA.sig("A"), (x,))
    for t in B:
        db = store_upsert(db, SCHEMA.sig("B"), t)
    for y in C:
        db = store_upsert(db, SCHEMA.sig("C"), (y,))
    return db


def views_of(db):
    return {
        "db:A": TreeView(db.root(0), 1),
        "db:B": TreeView(db.root(1), 2),
        "db:C": TreeView(db.root(2), 1),
    }


@pytest.fixture(scope="module")
def golden():
    # A = {1,3,4,5,6,7}, B = {(2,110),(5,101),(5,102),(5,106),(7,103)},
    # C = {101,104,108}; only (5,101) joins all three.
    db = make_db(
        (1, 3, 4, 5, 6, 7),
        ((2, 110), (5, 101), (5, 102), (5, 106), (7, 103)),
        (101, 104, 108),
    )
    return db, views_of(db)


class TestGoldenTrace:
    def test_result(self, golden):
        _, views = golden
        # [DERIVED] brute-force join of the fixture: exactly {(5, 101)}
        res = eval_rule(COMPILED, views)
        assert set(res.head_counts[0]) == {(5, 101)}

    def test_sens_intervals_on_c(self, golden):
        _, views = golden
        col = []
        eval_rule(COMPILED, views, collector=col)
        ivals = {(e.lo, e.hi) for e in col
                 if e.vertex == "db:C" and e.ctx and e.ctx[0] == 5}
        # [DERIVED] the x=5 probe pattern over C: seeks toward 101, 102,
        # 106 record the gaps between C records as insensitive-free zones
        assert ((102,), (104,)) in ivals
        assert ((106,), (108,)) in ivals
        assert ((MINK,), (101,)) in ivals

    def test_insert_covered_point_changes_result(self, golden):
        _, views = golden
        patched_c = TreeView(patch_tree({(102,): ()}, views["db:C"].root), 1)
        res = eval_rule(COMPILED, {**views, "db:C": patched_c})
        # 102 lies in the recorded [102,104] interval: result gains (5,102)
        assert set(res.head_counts[0]) == {(5, 101), (5, 102)}

    def test_insert_uncovered_point_is_inert(self, golden):
        _, views = golden
        col = []
        eval_rule(COMPILED, views, collector=col)
        ivals = [(e.lo, e.hi) for e in col if e.vertex == "db:C"]
        assert not any(lo <= (105,) <= hi for lo, hi in ivals)
        patched_c = TreeView(patch_tree({(105,): ()}, views["db:C"].root), 1)
        res = eval_rule(COMPILED, {**views, "db:C": patched_c})
        assert set(res.head_counts[0]) == {(5, 101)}


def test_fixed_prefix(golden_db=None):
    db = make_db((1, 5), ((5, 101), (1, 104)), (101, 104))
    views = views_of(db)
    assert set(eval_rule(COMPILED, views, fixed={"x": 5}).head_counts[0]) == {(5, 101)}
    assert not eval_rule(COMPILED, views, fixed={"x": 2}).head_counts[0]


def test_constraint_and_negation():
    schema = Schema.from_sigs([
        PredicateSig("F", 0, (INT64,), (INT64,)),
        PredicateSig("R", 1, (INT64,)),
    ])
    db = DbVersion()
    db = store_upsert(db, schema.sig("F"), (1,), (10,))
    db = store_upsert(db, schema.sig("F"), (2,), (-5,))
    db = store_upsert(db, schema.sig("R"), (2,))
    views = {
        "db:F": TreeView(db.root(0), 1, 1),
        "db:R": TreeView(db.root(1), 1),
    }
    (constraint,) = parse_rules("false <- F[k] = v, v < 0.", schema)
    assert eval_rule(compile_rule(constraint, schema), views).constraint_hits == 1
    (guarded,) = parse_rules("S(k) <- F[k] = v, !R(k), v > 0.", schema)
    assert set(eval_rule(compile_rule(guarded, schema), views).head_counts[0]) == {(1,)}


rels = st.sets(st.integers(0, 19), max_size=8)
pairs = st.sets(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=15)


@given(rels, pairs, rels)
@settings(max_examples=300)
def test_vs_brute_force(A, B, C):
    views = views_of(make_db(sorted(A), sorted(B), sorted(C)))
    got = set(eval_rule(COMPILED, views).head_counts[0])
    want = {(x, y) for (x, y) in B if x in A and y in C}
    assert got == want


@given(rels, pairs, rels, st.integers(0, 19))
@settings(max_examples=300)
def test_sens_soundness(A, B, C, y):
    """Toggling any single C record that alters the join result must land
    inside a recorded C sensitivity interval."""
    views = views_of(make_db(sorted(A), sorted(B), sorted(C)))
    col = []
    base = set(eval_rule(COMPILED, views, collector=col).head_counts[0])
    views2 = views_of(make_db(sorted(A), sorted(B), sorted(set(C) ^ {y})))
    new = set(eval_rule(COMPILED, views2).head_counts[0])
    if new != base:
        ivals = [(e.lo, e.hi) for e in col if e.vertex == "db:C"]
        assert any(lo <= (y,) <= hi for lo, hi in ivals)


def test_stats_count_seeks():
    views = views_of(make_db((1, 2), ((1, 5), (2, 6)), (5, 6)))
    stats = Stats()
    eval_rule(COMPILED, views, stats=stats)
    assert stats.seeks > 0 and stats.bindings == 2


def test_eval_leaves_no_cyclic_garbage(golden):
    """Reference counting frees everything an evaluation allocates, so
    the cyclic collector finds nothing after 100 recorded evaluations of
    the golden (acceptance criterion 3) fixture."""
    _, views = golden
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            eval_rule(COMPILED, views, collector=[])
        assert gc.collect() == 0
    finally:
        gc.enable()
