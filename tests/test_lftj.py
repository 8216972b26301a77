"""Leapfrog join: golden trace, brute-force equivalence, sensitivity
soundness."""

import gc
import random
from bisect import bisect_left, bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_oracle import SCHEMA as ORACLE_SCHEMA, bound, template
from txnrepair import bench, ptree, txn
from txnrepair.inclftj import minimal_contexts
from txnrepair.lftj import (
    BINDING, CompiledAtom, SensEntry, Stats, _LevelIter, _PointIter, compile_rule, eval_rule,
)
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_upsert
from txnrepair.rulelang import Var, parse_rules
from txnrepair.values import INT64, MINK, TOP
from txnrepair.views import patch_tree

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
        "db:A": db.root(0),
        "db:B": db.root(1),
        "db:C": db.root(2),
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
        patched_c = patch_tree({(102,): ()}, views["db:C"])
        res = eval_rule(COMPILED, {**views, "db:C": patched_c})
        # 102 lies in the recorded [102,104] interval: result gains (5,102)
        assert set(res.head_counts[0]) == {(5, 101), (5, 102)}

    def test_insert_uncovered_point_is_inert(self, golden):
        _, views = golden
        col = []
        eval_rule(COMPILED, views, collector=col)
        ivals = [(e.lo, e.hi) for e in col if e.vertex == "db:C"]
        assert not any(lo <= (105,) <= hi for lo, hi in ivals)
        patched_c = patch_tree({(105,): ()}, views["db:C"])
        res = eval_rule(COMPILED, {**views, "db:C": patched_c})
        assert set(res.head_counts[0]) == {(5, 101)}


def test_fixed_prefix(golden_db=None):
    db = make_db((1, 5), ((5, 101), (1, 104)), (101, 104))
    views = views_of(db)
    assert set(eval_rule(COMPILED, views, fixed={"x": 5}).head_counts[0]) == {(5, 101)}
    assert not eval_rule(COMPILED, views, fixed={"x": 2}).head_counts[0]
    # a pinned value of a computed variable must be the computed one
    computed = compile_rule(parse_rules("D(x, y) <- A(x), y = x + 1.")[0], SCHEMA)
    assert eval_rule(computed, views, fixed={"x": 5, "y": 6}).head_counts == [{(5, 6): 1}]
    assert eval_rule(computed, views, fixed={"x": 5, "y": 7}).head_counts == [{}]


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
        "db:F": db.root(0),
        "db:R": db.root(1),
    }
    (constraint,) = parse_rules("false <- F[k] = v, v < 0.", schema)
    assert eval_rule(compile_rule(constraint, schema), views).constraint_hits == 1
    (guarded,) = parse_rules("S(k) <- F[k] = v, !R(k), v > 0.", schema)
    assert set(eval_rule(compile_rule(guarded, schema), views).head_counts[0]) == {(1,)}


FR_SCHEMA = Schema.from_sigs([
    PredicateSig("F", 0, (INT64,), (INT64,)),
    PredicateSig("R", 1, (INT64, INT64)),
])


@pytest.mark.parametrize("text, vertex, t, hits", [
    ("false <- F[1] = 10.", "db:F", (1, 10), 1),  # present tuple
    ("false <- F[2] = 10.", "db:F", (2, 10), 0),  # absent key
    ("false <- F[1] = 11.", "db:F", (1, 11), 0),  # the key holds another value
    ("false <- !F[1] = 11.", "db:F", (1, 11), 1),
    ("false <- R(1, 2).", "db:R", (1, 2), 1),
    ("false <- R(1, 3).", "db:R", (1, 3), 0),
    ("false <- !R(1, 3).", "db:R", (1, 3), 1),
])
def test_probe(text, vertex, t, hits):
    """A membership probe reads the root by key, compares the value and
    records the probed tuple as a point."""
    db = store_upsert(DbVersion(), FR_SCHEMA.sig("F"), (1,), (10,))
    db = store_upsert(db, FR_SCHEMA.sig("R"), (1, 2))
    views = {"db:F": db.root(0), "db:R": db.root(1)}
    compiled = compile_rule(parse_rules(text, FR_SCHEMA)[0], FR_SCHEMA)
    col = []
    assert eval_rule(compiled, views, collector=col).constraint_hits == hits
    assert col == [SensEntry(vertex, t, t, ())]


F_ATOM = CompiledAtom("db:F", (Var("k"), Var("v")), 1)


def level_iter(entries, p):
    root = ptree.from_sorted([((k,), (v,)) for k, v in sorted(entries.items())])
    col = []
    return _LevelIter(root, F_ATOM, p, Stats(), col, ()), col


def test_level_iter_seek_in_value_part():
    """At the value position a seek past the key's one value leaves the
    prefix, though the key matches; at the key position the value part
    of a target is padding."""
    it, col = level_iter({1: 10, 2: 20}, (1,))
    assert it.key == 10
    it.seek(5)  # below the current component: no operation
    it.seek(50)
    assert it.key is None
    assert [(e.lo, e.hi) for e in col] == [((1, MINK), (1, 10)), ((1, 50), (1, TOP))]
    it, col = level_iter({1: 10, 3: 30}, ())
    it.seek(2)
    assert it.key == 3
    it.next()
    assert it.key is None
    assert [(e.lo, e.hi) for e in col[1:]] == [((2, MINK), (3, 30)), ((3, TOP), (TOP, TOP))]


@given(st.dictionaries(st.integers(0, 15), st.integers(0, 9), max_size=10),
       st.one_of(st.none(), st.integers(0, 15)),
       st.lists(st.one_of(st.none(), st.integers(0, 16)), max_size=8))
@settings(max_examples=300)
def test_level_iter_seeks_match_bisect(entries, k0, ops):
    """Over a function F[k] = v, at the key position (no prefix) and at
    the value position (prefix k0): each landing and its recorded (lo, hi)
    are those of a bisect over the sorted full tuples. An op is a seek to
    a component, or None for next; the join drops an iterator once it
    misses, and so does this walk."""
    tuples = sorted(entries.items())
    p = () if k0 is None else (k0,)
    pad = 1 - len(p)  # positions after the component

    def landing(lo, after):
        i = (bisect_right if after else bisect_left)(tuples, lo)
        found = tuples[i] if i < len(tuples) else None
        if found is not None and found[: len(p)] == p:
            return found[len(p)], (lo, found)
        return None, (lo, p + (TOP,) * (pad + 1))

    it, col = level_iter(entries, p)
    key, entry = landing(p + (MINK,) * (pad + 1), False)
    want = [entry]
    for c in ops:
        assert it.key == key and [(e.lo, e.hi) for e in col] == want
        if key is None:
            return
        if c is None:
            it.next()
            key, entry = landing(p + (key,) + (TOP,) * pad, True)
        elif c > key:
            it.seek(c)
            key, entry = landing(p + (c,) + (MINK,) * pad, False)
        else:
            it.seek(c)
            continue
        want.append(entry)
    assert it.key == key and [(e.lo, e.hi) for e in col] == want


def entry_fields(col):
    return [(e.vertex, e.lo, e.hi, e.ctx) for e in col]


@st.composite
def key_bound_walks(draw):
    """A root of key arity 1-2 and value arity 1-3, a prefix that fixes
    the key (often one the root holds) and maybe part of the value (often
    as the root holds it), and a walk: a seek to a component, or None for
    next."""
    karity, varity = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    comp = st.integers(0, 4)
    entries = draw(st.dictionaries(st.tuples(*[comp] * karity), st.tuples(*[comp] * varity),
                                   max_size=12))
    key = draw(st.sampled_from(sorted(entries)) if entries and draw(st.booleans())
               else st.tuples(*[comp] * karity))
    j = draw(st.integers(0, varity - 1))  # value components in the prefix
    held = entries.get(key)
    if held is not None and draw(st.booleans()):
        vpart = held[:j]
    else:
        vpart = draw(st.tuples(*[comp] * j))
    ops = draw(st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=8))
    return karity, varity, entries, key + vpart, ops


@given(key_bound_walks())
@settings(max_examples=300)
def test_point_iter_matches_level_iter(walk):
    """Where the prefix fixes the key, the lookup lands and records as the
    cursor does on the same root: the same key after every operation, the
    same (lo, hi, ctx) entries and the same seek count. A walk goes on
    seeking after a miss, and steps with next only from a landing."""
    karity, varity, entries, p, ops = walk
    atom = CompiledAtom("db:F", tuple(Var(f"t{i}") for i in range(karity + varity)), karity)
    root = ptree.from_sorted(sorted(entries.items()))
    runs = []
    for cls in (_LevelIter, _PointIter):
        stats, col = Stats(), []
        runs.append((cls(root, atom, p, stats, col, ("ctx",)), stats, col))
    (lev, lev_stats, lev_col), (pt, pt_stats, pt_col) = runs

    def same():
        assert pt.key == lev.key
        assert entry_fields(pt_col) == entry_fields(lev_col)
        assert pt_stats.seeks == lev_stats.seeks

    same()
    for c in ops:
        if c is None:
            if lev.key is None:
                continue
            lev.next()
            pt.next()
        else:
            lev.seek(c)
            pt.seek(c)
        same()


def level_iters_only(compiled):
    """`compiled` as planned without lookups: every joiner a `_LevelIter`."""
    for plan in compiled.plans:
        plan.joiners = [(_LevelIter, ai, q) for _, ai, q in plan.joiners]
        plan.lookup = False
    return compiled


def joiner_classes(compiled):
    return [cls for plan in compiled.plans for cls, _, _ in plan.joiners]


def template_txns(monkeypatch):
    """Transactions of each template the perfbench pools run: an sku bump
    and transfer_mix's transfer (two upserts and a guard), bump and
    `probe(v)`, plus a `probe(v)` reader of the derived relation."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import gen_transfer_mix

    sku = bench.gen_sku(bench.WorkloadConfig(n=400, alpha=2, txns=4, seed=1))
    mix = gen_transfer_mix(seed=1, txns=24)
    yield sku, sku.txns
    yield mix, mix.txns
    reader = parse_rules("seen(w) <- probe(w), w > 10.", mix.schema)
    yield mix, [rules + reader for rules in mix.txns if rules[0].head[0].atom.pred == "probe"]


def test_key_bound_atoms_compile_to_lookups(monkeypatch):
    """Every atom of the pools' templates is read at a bound key, so each
    of its joiners is a lookup and the level takes the lookup path; the
    golden join's `B(x, y)`, whose key is the whole tuple, and a derived
    `out:` relation keep the cursor. Evaluation with lookups gives the
    same head counts, entries and stats as with the cursor everywhere."""
    assert set(joiner_classes(COMPILED)) == {_LevelIter}
    assert not any(plan.lookup for plan in COMPILED.plans)
    seen_out = 0
    for wl, txns in template_txns(monkeypatch):
        for rules in txns:
            t = txn.TxnExec(wl.schema, rules)
            for compiled in t.shape.compiled:
                for plan in compiled.plans:
                    for cls, ai, _ in plan.joiners:
                        out = compiled.atoms[ai].vertex.startswith("out:")
                        seen_out += out
                        assert cls is (_LevelIter if out else _PointIter)
                        assert plan.lookup == (not out)
            t.evaluate(wl.db)
            with monkeypatch.context() as m:
                m.setattr(txn, "compile_rule",
                          lambda *a, **kw: level_iters_only(compile_rule(*a, **kw)))
                forced = txn.TxnExec(wl.schema, rules)
                assert set(joiner_classes(forced.shape.compiled[0])) == {_LevelIter}
                forced.evaluate(wl.db)
            assert forced.stats == t.stats
            assert forced.status == t.status
            for m_pt, m_lev in zip(t.maintainers, forced.maintainers):
                assert m_pt.head_counts == m_lev.head_counts
                assert m_pt.constraint_hits == m_lev.constraint_hits
                assert m_pt.entries == m_lev.entries
    assert seen_out


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


@pytest.mark.parametrize("text", [
    "D(x) <- x = y, A(y).",
    "D(x) <- A(y), x = y.",
    "D(x) <- x = w, w = y, A(y).",
])
def test_eq_orders_its_bound_side_first(text):
    """An equality binds its unsourced side from the sourced one, written
    in either order; `x = y, A(y)` once had no enumerable source for x."""
    db = make_db((1, 3), (), ())
    compiled = compile_rule(parse_rules(text)[0], SCHEMA)
    assert eval_rule(compiled, views_of(db)).head_counts == [{(1,): 1, (3,): 1}]


@st.composite
def grouped_evaluations(draw):
    """A plan of one rule of a `test_oracle.TEMPLATES` text, bound one to
    four times, and random roots for every vertex it reads: function
    vertices map a key to a value, relations (`R`, a derived `d`) hold
    pairs."""
    binds = draw(template().flatmap(lambda text: st.lists(bound(text), min_size=1, max_size=4)))
    groups = [parse_rules(text, ORACLE_SCHEMA, params) for text, params in binds]
    r = draw(st.integers(0, len(groups[0]) - 1))
    rule = groups[0][r]
    upserted = frozenset(h.atom.pred for g in groups[0] for h in g.head if h.is_upsert)
    compiled = compile_rule(rule, ORACLE_SCHEMA, upserted)
    comp = st.integers(-1, 3)
    views = {}
    for atom in compiled.atoms + compiled.neg_atoms:
        if atom.karity < len(atom.pattern):
            items = draw(st.dictionaries(st.tuples(comp), st.tuples(comp), max_size=4))
        else:
            items = dict.fromkeys(draw(st.sets(st.tuples(comp, comp), max_size=6)), ())
        views.setdefault(atom.vertex, ptree.from_sorted(sorted(items.items())))
    return compiled, views, [g[r].args for g in groups]


def context_lengths(compiled):
    """Each (vertex, context length) a grouped join step can record: the
    joiners and probes of level L record the binding index and the values
    of the L variables before it."""
    steps = [(0, atom) for _read, atom, _want in compiled.pre_checks]
    for level, plan in enumerate(compiled.plans):
        steps += [(level, compiled.atoms[ai]) for _cls, ai, _prefix in plan.joiners]
        steps += [(level, atom) for _read, atom, _want in plan.checks]
    return {(atom.vertex, 1 + level) for level, atom in steps if atom is not None}


@given(grouped_evaluations())
@settings(max_examples=300)
def test_reruns_record_the_contexts_they_were_passed(case):
    """Each level passes down the values of the variables before it: every
    entry a grouped evaluation records has the context length of a step
    on its vertex, and is recorded again, equal, by the re-run pinned to
    its context; the re-runs at the minimal contexts add up to the full
    evaluation's head counts and hits."""
    compiled, views, bindings = case
    ctx_vars = (BINDING,) + compiled.var_order
    entries = []
    full = eval_rule(compiled, views, collector=entries, bindings=bindings)
    assert {(e.vertex, len(e.ctx)) for e in entries} <= context_lengths(compiled)
    for e in entries:
        again = []
        eval_rule(compiled, views, collector=again, fixed=dict(zip(ctx_vars, e.ctx)),
                  bindings=bindings)
        assert e in again
    counts = [{} for _ in full.head_counts]
    hits = 0
    for ctx in minimal_contexts(entries):
        part = eval_rule(compiled, views, fixed=dict(zip(ctx_vars, ctx)), bindings=bindings)
        hits += part.constraint_hits
        for total, got in zip(counts, part.head_counts):
            for t, n in got.items():
                total[t] = total.get(t, 0) + n
    assert counts == full.head_counts and hits == full.constraint_hits
