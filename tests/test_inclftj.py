"""Interval index and incremental rule maintenance vs full re-evaluation."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import stab_linear
from txnrepair.inclftj import (
    CoverageSet,
    IntervalIndex,
    RuleMaintainer,
    minimal_contexts,
)
from txnrepair.lftj import SensEntry, compile_rule, eval_rule
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.values import MINK, TOP

coord = st.integers(0, 6)
# full-arity bounds as the join records them: exact, padded after the
# first element, or padded throughout (a wide interval)
bound = st.one_of(
    st.tuples(coord, coord),
    st.tuples(coord, st.sampled_from([MINK, TOP])),
    st.sampled_from([(MINK, MINK), (TOP, TOP)]),
)
interval = st.tuples(bound, bound).map(lambda t: tuple(sorted(t)))
points = st.lists(st.tuples(coord, coord), max_size=6)
# each batch repeats some of its own intervals
batches = st.lists(
    st.tuples(st.lists(interval, max_size=10).map(lambda xs: xs + xs[: len(xs) // 2]), points),
    max_size=5,
)


@given(batches)
@settings(max_examples=200)
def test_interval_index_vs_linear(steps):
    """Batches of inserts with stabs after each: a stab returns the
    payload of every interval holding the point, repeats included."""
    idx, ivals = IntervalIndex(), []
    for batch, probes in steps:
        idx.extend((lo, hi, len(ivals) + i) for i, (lo, hi) in enumerate(batch))
        ivals += batch
        assert len(idx) == len(ivals)
        for p in probes:
            want = [i for i, (lo, hi) in enumerate(ivals) if lo <= p <= hi]
            assert sorted(idx.stab(p)) == want


@given(st.lists(st.tuples(st.lists(st.tuples(st.integers(0, 1), interval), max_size=10),
                          st.lists(st.tuples(st.integers(0, 1), st.tuples(coord, coord)),
                                   max_size=6)),
                max_size=5))
@settings(max_examples=200)
def test_coverage_set_vs_linear(steps):
    """Identity intervals of two predicates merged in batches: an
    identity is covered exactly when one of the intervals so far holds
    it."""
    cover, ivals = CoverageSet(), []
    for batch, probes in steps:
        cover.merge(sorted(((pred_id, lo), (pred_id, hi)) for pred_id, (lo, hi) in batch))
        ivals += batch
        for ident in probes:
            want = any(p == ident[0] and lo <= ident[1] <= hi for p, (lo, hi) in ivals)
            assert cover.covers(ident) == want


# one-column keys on a small line, so that many intervals touch: a batch
# strings some end to end (one's hi is the next one's lo)
line = st.integers(0, 9)
touching = st.lists(st.tuples(line, st.integers(0, 3)), max_size=6).map(
    lambda xs: [((lo,), (lo + w,)) for lo, w in xs] + [((lo + w,), (lo + w + 1,)) for lo, w in xs]
)


@given(st.lists(st.tuples(touching, st.lists(st.tuples(line, line).map(sorted), max_size=4)),
                min_size=1, max_size=6))
@settings(max_examples=300)
def test_coverage_merge_of_touching_batches_vs_membership(steps):
    """After any sequence of batches, where intervals touch, nest, repeat
    and meet the intervals of earlier batches at an end, `covers` agrees
    with membership in some interval merged so far, at every key of the
    line and at both padded ends of each."""
    cover, ivals = CoverageSet(), []
    for chained, more in steps:
        batch = sorted(((0, lo), (0, hi)) for lo, hi in chained + [((a,), (b,)) for a, b in more])
        cover.merge(batch)
        ivals += batch
        for k in range(-1, 15):
            for key in ((k,), (k, MINK), (k, TOP)):
                ident = (0, key)
                assert cover.covers(ident) == any(lo <= ident <= hi for lo, hi in ivals)
        assert not cover.covers((1, (0,)))
        bounds = cover._bounds
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds)


def test_one_wide_interval_among_many_narrow():
    """4 096 narrow intervals, added in two batches around one [MINK, TOP]
    interval: each point stabs exactly the narrow intervals holding it
    and the wide one."""
    n = 4096
    idx = IntervalIndex()
    idx.extend(((i,), (i + 1,), i) for i in range(0, n, 2))
    idx.extend([((MINK,), (TOP,), "wide")] + [((i,), (i + 1,), i) for i in range(1, n, 2)])
    for p in range(-1, n + 2):
        want = sorted(i for i in (p - 1, p) if 0 <= i < n)
        got = idx.stab((p,))
        assert got.count("wide") == 1
        got.remove("wide")
        assert sorted(got) == want


def test_minimal_contexts_drops_extensions():
    es = [
        SensEntry("v", (0,), (1,), (5,)),
        SensEntry("v", (0,), (1,), (5, 7)),
        SensEntry("v", (0,), (1,), (6, 1)),
    ]
    assert minimal_contexts(es) == [(5,), (6, 1)]
    assert minimal_contexts([SensEntry("v", (0,), (1,), ())] + es) == [()]


@given(st.sets(st.lists(st.integers(0, 2), max_size=3).map(tuple), max_size=12))
@settings(max_examples=300)
def test_minimal_contexts_vs_prefix_definition(ctxs):
    """The sorted contexts that extend no other context."""
    es = [SensEntry("v", (0,), (1,), c) for c in ctxs]
    want = sorted(c for c in ctxs if not any(d != c and c[: len(d)] == d for d in ctxs))
    assert minimal_contexts(es) == want


SCHEMA = Schema.from_sigs([
    PredicateSig("A", 0, (INT64 := "int64",)),
    PredicateSig("B", 1, (INT64, INT64)),
    PredicateSig("C", 2, (INT64,)),
])
RULE = compile_rule(parse_rules("D(x, y) <- A(x), B(x, y), C(y).")[0], SCHEMA)


def make_views(A, B, C):
    db = DbVersion()
    for x in A:
        db = store_upsert(db, SCHEMA.sig("A"), (x,))
    for t in B:
        db = store_upsert(db, SCHEMA.sig("B"), t)
    for y in C:
        db = store_upsert(db, SCHEMA.sig("C"), (y,))
    return {
        "db:A": db.root(0),
        "db:B": db.root(1),
        "db:C": db.root(2),
    }


def run_maintenance_trial(seed, rounds=3):
    """One randomized maintenance run checked against full re-evaluation
    after every change batch. A batch that stabs no recorded entry is not
    applied, as in a transaction, so the maintainer's kept views lag and a
    later round re-runs its contexts on them."""
    rnd = random.Random(seed)
    A = set(rnd.sample(range(12), rnd.randint(0, 5)))
    B = set((rnd.randrange(12), rnd.randrange(12)) for _ in range(rnd.randint(0, 10)))
    C = set(rnd.sample(range(12), rnd.randint(0, 5)))
    m = RuleMaintainer(RULE, make_views(A, B, C))
    entries = list(m.entries)
    for _ in range(rounds):
        target = rnd.choice("ABC")
        changed = {}
        if target == "A":
            x = rnd.randrange(12)
            A ^= {x}
            changed["db:A"] = [(x,)]
        elif target == "B":
            t = (rnd.randrange(12), rnd.randrange(12))
            B ^= {t}
            changed["db:B"] = [t]
        else:
            y = rnd.randrange(12)
            C ^= {y}
            changed["db:C"] = [(y,)]
        views = make_views(A, B, C)
        stabbed = stab_linear(entries, changed)
        if stabbed:
            entries += m.apply_changes(views, stabbed).entries
        want = eval_rule(RULE, views).head_counts[0]
        assert m.head_counts[0] == want, (seed, target, m.head_counts[0], want)


def test_maintenance_vs_full_reeval_sample():
    for seed in range(150):
        run_maintenance_trial(seed)


GROUP = compile_rule(parse_rules("D(y) <- A(y), B($x, y), C(y).", params={"x": 0})[0], SCHEMA)


def run_group_trial(seed, rounds=3):
    """A maintainer of several bindings of one template (some repeated)
    against the per-binding full evaluations, after every change batch.
    Each binding records the entries its own evaluation records, under
    contexts that start with its index, so a re-run stays in one binding."""
    rnd = random.Random(seed)
    A = set(rnd.sample(range(8), rnd.randint(0, 5)))
    B = set((rnd.randrange(8), rnd.randrange(8)) for _ in range(rnd.randint(0, 12)))
    C = set(rnd.sample(range(8), rnd.randint(0, 5)))
    bindings = [(("$x", rnd.randrange(8)),) for _ in range(rnd.randint(1, 5))]
    views = make_views(A, B, C)
    m = RuleMaintainer(GROUP, views, bindings=bindings)
    for i, args in enumerate(bindings):
        alone = []
        eval_rule(GROUP, views, args, collector=alone)
        mine = [(e.vertex, e.lo, e.hi, e.ctx[1:]) for e in m.entries if e.ctx[0] == i]
        assert mine == [(e.vertex, e.lo, e.hi, e.ctx) for e in alone]
    entries = list(m.entries)
    for _ in range(rounds):
        target = rnd.choice("ABC")
        if target == "B":
            t = (rnd.randrange(8), rnd.randrange(8))
            B ^= {t}
        else:
            t = (rnd.randrange(8),)
            (A if target == "A" else C).symmetric_difference_update({t[0]})
        views = make_views(A, B, C)
        stabbed = stab_linear(entries, {f"db:{target}": [t]})
        if stabbed:
            report = m.apply_changes(views, stabbed)
            assert all(len(c) >= 1 and c[0] < len(bindings) for c in report.contexts)
            entries += report.entries
        want = {}
        for args in bindings:
            for head, n in eval_rule(GROUP, views, args).head_counts[0].items():
                want[head] = want.get(head, 0) + n
        assert m.head_counts[0] == want, (seed, target)


def test_group_maintenance_vs_per_binding_evaluation():
    for seed in range(150):
        run_group_trial(seed)


def test_group_count_changes_sum_to_its_counts():
    """A group's evaluation head counts are its changes from none: added
    to every later report's count changes, they give the maintainer's
    head counts and a full re-evaluation's, through batches that add and
    remove several records at once."""
    for seed in range(100):
        rnd = random.Random(seed)
        sets = {"A": set(rnd.sample(range(6), 3)), "C": set(rnd.sample(range(6), 3)),
                "B": {(rnd.randrange(6), rnd.randrange(6)) for _ in range(8)}}
        bindings = [(("$x", rnd.randrange(6)),) for _ in range(rnd.randint(1, 4))]
        m = RuleMaintainer(GROUP, make_views(sets["A"], sets["B"], sets["C"]), bindings=bindings)
        summed = Counter(m.head_counts[0])
        entries = list(m.entries)
        for _ in range(4):
            changed = {}
            for name in rnd.sample("ABC", 2):
                for _ in range(2):
                    t = (rnd.randrange(6), rnd.randrange(6)) if name == "B" else (rnd.randrange(6),)
                    sets[name] ^= {t if name == "B" else t[0]}
                    changed.setdefault(f"db:{name}", []).append(t)
            views = make_views(sets["A"], sets["B"], sets["C"])
            stabbed = stab_linear(entries, changed)
            if stabbed:
                report = m.apply_changes(views, stabbed)
                entries += report.entries
                assert all(report.head_diffs[0].values())
                summed.update(report.head_diffs[0])
            want = Counter()
            for args in bindings:
                want.update(eval_rule(GROUP, views, args).head_counts[0])
            assert {t: n for t, n in summed.items() if n} == m.head_counts[0] == want, seed


def test_constraint_delta_tracks_hits():
    schema = Schema.from_sigs([PredicateSig("F", 0, ("int64",), ("int64",))])
    compiled = compile_rule(parse_rules("false <- F[k] = v, v < 0.", schema)[0], schema)

    def views(entries):
        db = DbVersion()
        for k, v in entries.items():
            db = store_upsert(db, schema.sig("F"), (k,), (v,))
        return {"db:F": db.root(0)}

    m = RuleMaintainer(compiled, views({1: 5}))
    assert m.constraint_hits == 0
    entries = list(m.entries)
    rep = m.apply_changes(views({1: -3}), stab_linear(entries, {"db:F": [(1, 5), (1, -3)]}))
    assert rep.constraint_delta == 1 and m.constraint_hits == 1
    entries += rep.entries
    rep = m.apply_changes(views({1: 2}), stab_linear(entries, {"db:F": [(1, -3), (1, 2)]}))
    assert rep.constraint_delta == -1 and m.constraint_hits == 0
