"""Repair circuit operators: merge partition/precedence, correction
filtering and idempotence, schedule-independent fixpoint."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from txnrepair.circuit import (
    CorrOp,
    DeltaMergeOp,
    SensMergeOp,
    TxnOp,
    _in_interval,
    build_tree,
    clip_sens,
    wire_tree,
)
from txnrepair.domain import build_decomposition, point
from txnrepair.pstore import (
    DbVersion,
    PredicateSig,
    Schema,
    apply_deltas,
    store_upsert,
)
from txnrepair.rulelang import parse_rules
from txnrepair.signal import sens_interval, upsert
from txnrepair.txn import EVALUATED, TxnExec
from txnrepair.values import INT64

keys = st.integers(0, 30)


def _delta_batch(draw_keys, vals):
    # unique identities per child signal
    return [upsert(0, (k,), (v,)) for k, v in zip(sorted(set(draw_keys)), vals)]


batches = st.tuples(st.lists(keys, max_size=8), st.lists(st.integers(0, 5), min_size=8, max_size=8)).map(
    lambda t: _delta_batch(*t)
)


@given(st.lists(keys, max_size=10), batches, batches)
@settings(max_examples=250)
def test_delta_merge_partition_and_precedence(samples, lrecs, rrecs):
    """Each merged record lands in exactly one subdomain signal, and for
    shared keys the right (serially later) child's record wins."""
    decomp = build_decomposition([point(0, (k,)) for k in samples], 1)
    group = build_tree(1)
    ops = [DeltaMergeOp(group, d, decomp) for d in ("0", "1")]
    group.left.delta[""].publish(inserts=lrecs)
    group.right.delta[""].publish(inserts=rrecs)
    for op in ops:
        op.refresh()
    merged = {}
    for op, d in zip(ops, ("0", "1")):
        lo, hi = decomp.subdomain_interval(d)
        for rec in group.delta[d].records():
            assert rec.identity() not in merged  # no double ownership
            assert _in_interval(lo, hi, rec.pred_id, rec.key)
            merged[rec.identity()] = rec
    want = {r.identity(): r for r in lrecs}
    want.update({r.identity(): r for r in rrecs})  # right wins
    assert merged == want
    # already-settled ops refresh to no-op
    assert not any(op.refresh() for op in ops)


@given(st.lists(keys, max_size=10), batches, batches, batches)
@settings(max_examples=200)
def test_delta_merge_incremental_update(samples, lrecs, rrecs, later):
    decomp = build_decomposition([point(0, (k,)) for k in samples], 1)
    group = build_tree(1)
    ops = [DeltaMergeOp(group, d, decomp) for d in ("0", "1")]
    group.left.delta[""].publish(inserts=lrecs)
    for op in ops:
        op.refresh()
    group.right.delta[""].publish(inserts=rrecs)
    group.left.delta[""].publish(inserts=later)
    for op in ops:
        op.refresh()
    want = {r.identity(): r for r in lrecs}
    want.update({r.identity(): r for r in later})
    want.update({r.identity(): r for r in rrecs})
    merged = {}
    for d in ("0", "1"):
        for rec in group.delta[d].records():
            merged[rec.identity()] = rec
    assert merged == want


ivals = st.tuples(keys, keys).map(lambda t: sens_interval(0, (min(t),), (max(t),)))


@given(st.lists(keys, max_size=8), st.lists(ivals, max_size=6),
       st.lists(ivals, max_size=6), keys)
@settings(max_examples=250)
def test_sens_merge_preserves_covering(samples, lrecs, rrecs, probe):
    decomp = build_decomposition([point(0, (k,)) for k in samples], 1)
    group = build_tree(1)
    ops = [SensMergeOp(group, d, decomp) for d in ("0", "1")]
    group.left.sens[""].publish(inserts=lrecs)
    group.right.sens[""].publish(inserts=rrecs)
    for op in ops:
        op.refresh()
    covered_in = any(r.contains((probe,)) for r in lrecs + rrecs)
    covered_out = any(
        r.contains((probe,))
        for d in ("0", "1")
        for r in group.sens[d].records()
    )
    assert covered_in == covered_out


@given(ivals, keys, keys)
@settings(max_examples=200)
def test_clip_covering(rec, split_key, probe):
    lo, hi = build_decomposition([point(0, (split_key,))], 1).subdomain_interval("")
    split = point(0, (split_key,))
    left = clip_sens(rec, lo, split)
    right = clip_sens(rec, split, hi)
    before = rec.contains((probe,))
    after = any(c is not None and c.contains((probe,)) for c in (left, right))
    assert before == after


corr_recs = st.lists(
    st.tuples(keys, st.integers(0, 5)).map(lambda t: upsert(0, (t[0],), (t[1],))),
    max_size=6,
)


@given(st.lists(ivals, max_size=5), corr_recs, corr_recs)
@settings(max_examples=300)
def test_corr_filtering_and_idempotence(sens, corr0, corr1):
    """Corrections reach a child only inside its sensitivity; redelivery
    of identical upstream content leaves the output version unchanged."""
    group = build_tree(1, label="0")  # below the root: it receives corrections
    child = group.left
    op = CorrOp(group, child, "", with_delta=False)
    child.sens[""].publish(inserts=sens)
    group.corr["0"].publish(inserts=corr0)
    group.corr["1"].publish(inserts=corr1)
    op.refresh()
    got = {r.identity(): r for r in child.corr[""].records()}
    want = {}
    for rec in corr1:
        want[rec.identity()] = rec
    for rec in corr0:  # first half of the parent's corrections wins
        want[rec.identity()] = rec
    want = {i: r for i, r in want.items()
            if any(s.contains(r.key) for s in sens)}
    assert got == want
    # idempotence: nothing new upstream -> refresh is a no-op
    v = child.corr[""].latest
    assert op.refresh() is False
    assert child.corr[""].latest == v
    # republishing identical records is version-neutral, hence a no-op too
    group.corr["0"].publish(inserts=corr0)
    assert op.refresh() is False
    assert child.corr[""].latest == v


def test_corr_delta_supersedes_parent():
    group = build_tree(1, label="0")  # below the root: it receives corrections
    child = group.right
    op = CorrOp(group, child, "", with_delta=True)
    child.sens[""].publish(inserts=[sens_interval(0, (0,), (99,))])
    group.corr["0"].publish(inserts=[upsert(0, (1,), (10,))])
    group.left.delta[""].publish(inserts=[upsert(0, (1,), (42,))])
    op.refresh()
    (rec,) = child.corr[""].records()
    assert rec.value == (42,)  # the left sibling's write is serially later


def test_sens_growth_pulls_existing_corrections():
    group = build_tree(1, label="0")  # below the root: it receives corrections
    child = group.left
    op = CorrOp(group, child, "", with_delta=False)
    group.corr["0"].publish(inserts=[upsert(0, (5,), (1,))])
    op.refresh()
    assert list(child.corr[""].records()) == []  # not sensitive yet
    child.sens[""].publish(inserts=[sens_interval(0, (0,), (9,))])
    assert op.refresh() is True
    (rec,) = child.corr[""].records()
    assert rec.key == (5,)


# ---- whole-circuit fixpoint vs the serial oracle ----

SCHEMA = Schema.from_sigs([PredicateSig("bal", 0, (INT64,), (INT64,))])


def transfer(a, b, m):
    return parse_rules(
        """
^bal[$a] = x <- x = bal@start[$a] - $m.
^bal[$b] = y <- y = bal@start[$b] + $m.
false <- bal[$a] = v, v < 0.
""",
        SCHEMA,
        params={"a": a, "b": b, "m": m},
    )


def run_fixpoint(base, txn_rules, height, rnd):
    decomp = build_decomposition(
        [point(0, (k,)) for k in range(8)], height
    )
    root = build_tree(height)
    ops = list(wire_tree(root, decomp))
    leaves = list(root.leaves())
    for i, rules in enumerate(txn_rules):
        leaves[i].txn = TxnExec(SCHEMA, rules, txn_id=i)
        ops.append(TxnOp(leaves[i], base))
    dirty = [op for op in ops if isinstance(op, TxnOp)]
    steps = 0
    while dirty:
        steps += 1
        assert steps < 20000, "no fixpoint"
        op = dirty.pop(rnd.randrange(len(dirty)))
        if op.refresh():
            for sig in op.output_signals:
                for reader in sig.readers:
                    if reader not in dirty:
                        dirty.append(reader)
    db = base
    statuses = []
    for leaf in leaves:
        if leaf.txn is None:
            continue
        out = leaf.txn.outputs()
        statuses.append(out.status)
        if out.status == EVALUATED:
            db = apply_deltas(db, SCHEMA, out.deltas)
    return db, statuses


def serial_oracle(base, txn_rules):
    db = base
    statuses = []
    for i, rules in enumerate(txn_rules):
        out = TxnExec(SCHEMA, rules, txn_id=i).evaluate(db)
        statuses.append(out.status)
        if out.status == EVALUATED:
            db = apply_deltas(db, SCHEMA, out.deltas)
    return db, statuses


def snapshot(db):
    from txnrepair.pstore import full_scan

    return list(full_scan(db, SCHEMA))


def test_fixpoint_matches_serial_oracle_under_random_schedules():
    for seed in range(30):
        rnd = random.Random(seed)
        base = DbVersion()
        for k in range(8):
            base = store_upsert(base, SCHEMA.sig("bal"), (k,), (rnd.randrange(0, 60),))
        txn_rules = [
            transfer(*rnd.sample(range(8), 2), rnd.randrange(0, 50))
            for _ in range(4)
        ]
        want_db, want_statuses = serial_oracle(base, txn_rules)
        got_db, got_statuses = run_fixpoint(base, txn_rules, 2, rnd)
        assert got_statuses == want_statuses, seed
        assert snapshot(got_db) == snapshot(want_db), seed


def test_every_input_signal_has_a_producer():
    """No operator pulls on a signal that nothing publishes; in particular
    the root has no correction signals for its corrections to read."""
    for height in range(1, 5):
        root = build_tree(height)
        assert root.corr == {}
        ops = list(wire_tree(root, build_decomposition([point(0, (k,)) for k in range(8)], height)))
        ops += [TxnOp(leaf, DbVersion()) for leaf in root.leaves()]
        produced = {id(sig) for op in ops for sig in op.output_signals}
        unproduced = [(op, s) for op in ops for s in op.input_signals if id(s) not in produced]
        assert unproduced == [], height
