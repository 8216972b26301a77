"""Repair circuit operators: merge partition/precedence, correction
filtering and idempotence, schedule-independent fixpoint."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from txnrepair import ptree
from txnrepair.circuit import (
    CorrOp,
    DeltaMergeOp,
    SensMergeOp,
    TxnOp,
    _publish_winners,
    build_tree,
    labels,
    wire_tree,
    woken_by,
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
from txnrepair.signal import CORR, SENS, SignalCursor, VersionedSignal
from txnrepair.txn import EVALUATED, TxnExec
from txnrepair.values import INT64, MINK, TOP

keys = st.integers(0, 30)


def _delta_batch(draw_keys, vals):
    # unique identities per child signal
    return [((0, (k,)), (v,)) for k, v in zip(sorted(set(draw_keys)), vals)]


def _in_region(lo, hi, pred_id, key):
    """Whether identity (pred_id, key) lies in the half-open region [lo, hi)."""
    return lo <= (pred_id, key) < hi


def _covers(interval, key):
    _pred_id, lo, hi = interval
    return lo <= key <= hi


def _units(intervals):
    """Sensitivity signal items: each interval maps to ()."""
    return [(i, ()) for i in intervals]


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
        for ident, value in group.delta[d].items():
            assert ident not in merged  # no double ownership
            assert _in_region(lo, hi, *ident)
            merged[ident] = value
    want = {**dict(lrecs), **dict(rrecs)}  # right wins
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
    want = {**dict(lrecs), **dict(later), **dict(rrecs)}
    merged = {}
    for d in ("0", "1"):
        merged.update(group.delta[d].items())
    assert merged == want


region_keys = st.one_of(keys, st.just(MINK), st.just(TOP))


@st.composite
def merge_rounds(draw):
    """Split samples, a height, and rounds of child publishes whose
    identities are often split points, and whose keys are often MINK or
    TOP, the domain's ends."""
    samples = draw(st.lists(st.tuples(st.integers(0, 2), keys), max_size=8))
    height = draw(st.integers(1, 3))
    decomp = build_decomposition([point(p, (k,)) for p, k in samples], height)
    splits = [decomp.subdomain_interval(d)[0] for h in range(1, height + 1) for d in labels(h)]
    idents = st.one_of(st.tuples(st.integers(0, 2), region_keys.map(lambda k: (k,))),
                       st.sampled_from([s for s in splits if len(s) == 2]))
    children = [(side, d) for side in ("left", "right") for d in labels(height - 1)]
    rounds = draw(st.lists(st.lists(st.tuples(
        st.sampled_from(children),
        st.dictionaries(idents, st.integers(0, 5).map(lambda v: (v,)), max_size=6),
        st.lists(idents, max_size=3)), max_size=4), min_size=1, max_size=3))
    return decomp, height, rounds


@given(merge_rounds())
@settings(max_examples=200)
def test_delta_merge_takes_its_region_as_a_slice(case):
    """Over rounds of publishes to every child signal, each delta merge's
    output is its children's records in its half-open region, the right
    child's winning, as a brute-force filter finds them: identities equal
    to a split point go to the region the split starts, and the ends
    (MINK,) and (TOP,) bound the outermost regions."""
    decomp, height, rounds = case
    group = build_tree(height)
    ops = [DeltaMergeOp(group, d, decomp) for d in labels(height)]
    model = {}  # (side, child region) -> its signal's content
    for batch in rounds:
        for (side, d), ups, rems in batch:
            sig = getattr(group, side).delta[d]
            sig.publish(inserts=ups.items(), removes=rems)
            model[side, d] = dict(sig.items())
        for op in ops:
            op.refresh()
        for d in labels(height):
            lo, hi = decomp.subdomain_interval(d)
            merged = {**model.get(("left", d[:-1]), {}), **model.get(("right", d[:-1]), {})}
            want = {i: v for i, v in merged.items() if _in_region(lo, hi, *i)}
            assert dict(group.delta[d].items()) == want


ivals = st.tuples(keys, keys).map(lambda t: (0, (min(t),), (max(t),)))


@given(st.lists(ivals, max_size=6), st.lists(ivals, max_size=6), keys)
@settings(max_examples=250)
def test_sens_merge_preserves_covering(lrecs, rrecs, probe):
    """The merge is the plain union of its children's intervals, so it
    covers exactly the keys they cover; an interval pulled again changes
    nothing."""
    group = build_tree(1, label="1")  # off the spine: it merges sensitivity
    op = SensMergeOp(group)
    group.left.sens.publish(inserts=_units(lrecs))
    group.right.sens.publish(inserts=_units(rrecs))
    op.refresh()
    assert {i for i, _unit in group.sens.items()} == set(lrecs + rrecs)
    covered_in = any(_covers(i, (probe,)) for i in lrecs + rrecs)
    covered_out = any(_covers(i, (probe,)) for i, _unit in group.sens.items())
    assert covered_in == covered_out
    assert op.refresh() == []
    # each child sends the other's intervals, all merged already: the merge
    # publishes them, which changes nothing and raises no contract error
    v = group.sens.latest
    group.left.sens.publish(inserts=_units(rrecs))
    group.right.sens.publish(inserts=_units(lrecs))
    assert op.refresh() == [] and group.sens.latest == v


ends = st.one_of(st.just(MINK), keys, st.just(TOP))


@given(st.lists(st.tuples(st.integers(0, 2), keys), max_size=10), st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, 3), ends), min_size=1, max_size=8))
@settings(max_examples=250)
def test_interval_ops_across_predicates_and_ends(samples, height, probes):
    """With splits on predicates 0-2, or none at all (one split at
    (0, (MINK,))): every point, the domain's ends included, lies in exactly
    one leaf under `_in_region`, so each delta record has one owning
    delta merge at every height."""
    decomp = build_decomposition([point(p, (k,)) for p, k in samples], height)
    leaves = [decomp.subdomain_interval(d) for d in labels(height)]
    for pred_id, k in probes:
        key = (k,)
        owners = [i for i, (lo, hi) in enumerate(leaves) if _in_region(lo, hi, pred_id, key)]
        assert len(owners) == 1, (pred_id, key, owners)


corr_recs = st.lists(
    st.tuples(keys, st.integers(0, 5)).map(lambda t: ((0, (t[0],)), (t[1],))),
    max_size=6,
)


@given(st.lists(ivals, max_size=5), corr_recs, corr_recs)
@settings(max_examples=300)
def test_corr_filtering_and_idempotence(sens, corr0, corr1):
    """Corrections reach a child only inside its sensitivity; redelivery
    of identical upstream content leaves the output version unchanged."""
    group = build_tree(1, label="1")  # off the spine: it receives corrections
    child = group.left
    op = CorrOp(group, child)
    child.sens.publish(inserts=_units(sens))
    group.corr.publish(inserts=corr0)
    group.corr.publish(inserts=corr1)
    op.refresh()
    got = dict(child.corr.items())
    want = {**dict(corr0), **dict(corr1)}  # the later publish replaces
    want = {i: v for i, v in want.items() if any(_covers(s, i[1]) for s in sens)}
    assert got == want
    # idempotence: nothing new upstream -> refresh is a no-op
    v = child.corr.latest
    assert op.refresh() == []
    assert child.corr.latest == v
    # republishing identical records is version-neutral, hence a no-op too
    group.corr.publish(inserts=list(group.corr.items()))
    assert op.refresh() == []
    assert child.corr.latest == v


@given(corr_recs, st.lists(keys, max_size=6))
@settings(max_examples=100)
def test_publish_winners_of_what_out_holds_changes_nothing(held, absent):
    """Winners equal to the values `out` holds, and None winners where it
    holds none, leave `latest` unmoved and log nothing: the publish's tree
    write is the only compare."""
    out = VersionedSignal(CORR)
    out.publish(inserts=held)
    reader = SignalCursor(out)
    reader.pull()
    v, held = out.latest, dict(out.items())
    winners = [*held.items(), *(((0, (k,)), None) for k in absent if (0, (k,)) not in held)]
    assert _publish_winners(out, winners) == []
    assert out.latest == v and reader.pull() == [] and dict(out.items()) == held


corr_steps = st.lists(st.one_of(
    st.tuples(st.just("sens"), st.lists(st.tuples(
        st.integers(0, 1), st.one_of(keys, st.just(MINK)), st.one_of(keys, st.just(TOP)),
    ).filter(lambda t: t[1] <= t[2]), min_size=1, max_size=3)),
    st.tuples(st.integers(0, 1), st.lists(st.tuples(st.integers(0, 1), keys, st.integers(0, 5)),
                                          max_size=4),
              st.lists(st.tuples(st.integers(0, 1), keys), max_size=3)),
    st.just(("reset",)),
), max_size=12)


@given(corr_steps)
@settings(max_examples=200)
def test_corr_output_tracks_inputs_and_sensitivity(steps):
    """Interleaved sensitivity and input publishes, refreshed after each:
    the output is always the precedence-merged inputs (the left sibling's
    deltas over the parent's corrections) filtered by all the sensitivity
    published so far; after a reset, no earlier sensitivity covers
    anything."""
    group = build_tree(1, label="1")  # off the spine: both kinds of input
    child = group.right
    op = CorrOp(group, child)
    inputs = [group.corr, group.left.delta[""]]  # low to high precedence
    sens = []
    for step in steps:
        if step[0] == "reset":
            op.reset()
            for sig in inputs + [child.sens]:
                sig.reset()
            sens = []
        elif step[0] == "sens":
            batch = [(p, (lo,), (hi,)) for p, lo, hi in step[1]]
            child.sens.publish(inserts=_units(batch))
            sens += batch
        else:
            which, ups, rems = step
            inputs[which].publish(inserts=[((p, (k,)), (v,)) for p, k, v in ups],
                                  removes=[(p, (k,)) for p, k in rems])
        op.refresh()
        merged = {}
        for sig in inputs:
            merged.update(sig.items())
        want = {i: v for i, v in merged.items()
                if any(p == i[0] and lo <= i[1] <= hi for p, lo, hi in sens)}
        assert dict(child.corr.items()) == want
        assert op.refresh() == []


region_steps = st.lists(st.one_of(
    st.tuples(st.just("sens"), st.lists(st.tuples(
        st.integers(0, 1), st.one_of(keys, st.just(MINK)), st.one_of(keys, st.just(TOP)),
    ).filter(lambda t: t[1] <= t[2]), min_size=1, max_size=3)),
    st.tuples(st.sampled_from(("corr", "delta")),
              st.lists(st.tuples(st.integers(0, 1), keys, st.integers(0, 5)), max_size=4),
              st.lists(st.tuples(st.integers(0, 1), keys), max_size=3)),
), max_size=12)


@given(st.integers(0, 1), keys, region_steps)
@settings(max_examples=200)
def test_corr_into_right_child_reads_every_delta_region(split_pred, split_key, steps):
    """The correction operator into the right child of a height-2 group
    reads the parent's corrections, the child's sensitivity and both delta
    subdomain signals of its left sibling, each record in the one region
    that owns it. After every refresh its output is the dict model: the
    sibling's deltas over the parent's corrections, filtered by the
    child's sensitivity."""
    group = build_tree(2, label="1")  # off the spine: it receives corrections
    child, sibling = group.right, group.left
    op = CorrOp(group, child)
    assert {id(s) for s in op.input_signals} == {
        id(s) for s in (group.corr, child.sens, sibling.delta["0"], sibling.delta["1"])}
    regions = build_decomposition([point(split_pred, (split_key,))], 1)
    owner = {d: regions.subdomain_interval(d) for d in ("0", "1")}

    def region(ident):
        (d,) = [d for d, (lo, hi) in owner.items() if _in_region(lo, hi, *ident)]
        return d

    parent, deltas, sens = {}, {}, []
    for step in steps:
        if step[0] == "sens":
            batch = [(p, (lo,), (hi,)) for p, lo, hi in step[1]]
            child.sens.publish(inserts=_units(batch))
            sens += batch
        else:
            kind, ups, rems = step
            ups = dict(((p, (k,)), (v,)) for p, k, v in ups)
            rems = [(p, (k,)) for p, k in rems]
            model = parent if kind == "corr" else deltas
            for ident in rems:
                model.pop(ident, None)
            model.update(ups)
            if kind == "corr":
                group.corr.publish(inserts=ups.items(), removes=rems)
            else:
                for d in owner:
                    sibling.delta[d].publish(
                        inserts=[(i, v) for i, v in ups.items() if region(i) == d],
                        removes=[i for i in rems if region(i) == d])
        op.refresh()
        want = {i: v for i, v in {**parent, **deltas}.items()
                if any(p == i[0] and lo <= i[1] <= hi for p, lo, hi in sens)}
        assert dict(child.corr.items()) == want
        assert op.refresh() == []


def test_corr_delta_supersedes_parent():
    group = build_tree(1, label="1")  # off the spine: it receives corrections
    child = group.right
    op = CorrOp(group, child)
    child.sens.publish(inserts=_units([(0, (0,), (99,))]))
    group.corr.publish(inserts=[((0, (1,)), (10,))])
    group.left.delta[""].publish(inserts=[((0, (1,)), (42,))])
    op.refresh()
    # the left sibling's write is serially later
    assert list(child.corr.items()) == [((0, (1,)), (42,))]


def test_idle_corr_refresh_publishes_nothing(monkeypatch):
    """Input records outside the coverage, added or removed, were never
    published, so the refresh that pulls them writes no tree and leaves
    the output as it was."""
    group = build_tree(1, label="1")  # off the spine: it receives corrections
    child = group.right
    op = CorrOp(group, child)
    child.sens.publish(inserts=_units([(0, (0,), (9,))]))
    group.corr.publish(inserts=[((0, (5,)), (1,))])
    assert op.refresh() == [child.corr]
    held, v = list(child.corr.items()), child.corr.latest
    group.corr.publish(inserts=[((0, (20,)), (2,)), ((1, (5,)), (3,))])
    group.left.delta[""].publish(inserts=[((0, (30,)), (4,))])
    group.corr.publish(removes=[(0, (20,))])
    updates = []
    monkeypatch.setattr(ptree, "update", lambda *a: updates.append(a))
    assert op.refresh() == []
    assert updates == []
    assert list(child.corr.items()) == held and child.corr.latest == v


def test_sens_growth_pulls_existing_corrections():
    group = build_tree(1, label="1")  # off the spine: it receives corrections
    child = group.left
    op = CorrOp(group, child)
    group.corr.publish(inserts=[((0, (5,)), (1,))])
    op.refresh()
    assert list(child.corr.items()) == []  # not sensitive yet
    child.sens.publish(inserts=_units([(0, (0,), (9,))]))
    assert op.refresh() == [child.corr]
    assert list(child.corr.items()) == [((0, (5,)), (1,))]


def test_corr_sleeps_through_sensitivity_while_inputs_are_empty():
    """New sensitivity cannot change a correction operator's output while
    its inputs are empty, so its publish does not wake the operator. A
    record that arrives later, inside an interval published during the
    sleep, wakes it; that refresh pulls the skipped interval and corrects."""
    group = build_tree(1, label="1")  # off the spine: it receives corrections
    child = group.right
    op = CorrOp(group, child)
    sens, delta = child.sens, group.left.delta[""]
    sens.publish(inserts=_units([(0, (0,), (9,))]))
    assert not op.wakes_on(sens)
    delta.publish(inserts=[((0, (5,)), (7,))])
    assert op.wakes_on(delta)
    assert op.refresh() == [child.corr]
    assert list(child.corr.items()) == [((0, (5,)), (7,))]
    sens.publish(inserts=_units([(0, (20,), (29,))]))
    assert op.wakes_on(sens)  # an input record is present now
    delta.publish(removes=[(0, (5,))])
    assert op.refresh() == [child.corr] and child.corr.empty
    sens.publish(inserts=_units([(0, (30,), (39,))]))
    assert not op.wakes_on(sens)  # asleep again once the input is empty
    group.corr.publish(inserts=[((0, (33,)), (1,))])  # a parent input
    assert op.refresh() == [child.corr]
    assert list(child.corr.items()) == [((0, (33,)), (1,))]


def _publish_after_pull(cursor, sig, **publish):
    """Make cursor's next pull publish to sig right after it pulls, as a
    concurrent producer would between an operator's pull and its reads."""
    pull = cursor.pull

    def pull_then_publish():
        out = pull()
        sig.publish(**publish)
        del cursor.pull
        return out

    cursor.pull = pull_then_publish


def test_merge_reads_the_roots_it_pulled():
    """A publish that lands between a merge's pull and its reads leaves no
    trace in that refresh, which computes from the roots it pulled; the
    next pull names it, and a publish undoing it, again."""
    group = build_tree(1)
    op = DeltaMergeOp(group, "1", build_decomposition([], 1))  # "1" owns predicate 0
    left, right = group.left.delta[""], group.right.delta[""]
    k = (0, (3,))
    right.publish(inserts=[(k, (5,))])
    op.refresh()
    _publish_after_pull(op.cur_r, right, inserts=[(k, (7,))])
    left.publish(inserts=[(k, (1,))])
    op.refresh()
    assert dict(group.delta["1"].items()) == {k: (5,)}
    right.publish(inserts=[(k, (5,))])
    op.refresh()
    assert dict(group.delta["1"].items()) == {k: (5,)}


def test_corr_ranges_over_the_roots_it_pulled():
    """The same for the records a correction operator finds inside a new
    sensitivity interval."""
    group = build_tree(1, label="0")
    op = CorrOp(group, group.right)
    delta = group.left.delta[""]
    k = (0, (3,))
    group.right.sens.publish(inserts=_units([(0, (0,), (9,))]))
    _publish_after_pull(op._inputs[-1], delta, inserts=[(k, (7,))])
    op.refresh()
    assert list(group.right.corr.items()) == []
    delta.publish(removes=[k])
    op.refresh()
    assert list(group.right.corr.items()) == []


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


def test_refresh_wakes_only_readers_of_what_it_published():
    """A transaction that publishes sensitivity but no delta wakes its
    sensitivity readers only, and of those not the correction operator,
    whose inputs are empty."""
    root = build_tree(2)
    ops, readers = wire_tree(root, build_decomposition([], 2))
    leaf = root.right.left  # the first leaf off the spine with a sensitivity merge above
    leaf.txn = TxnExec(SCHEMA, parse_rules("probe(v) <- bal[3] = v.", SCHEMA), txn_id=0)
    (op,) = [op for op in ops if isinstance(op, TxnOp) and op.leaf is leaf]
    op.base = store_upsert(DbVersion(), SCHEMA.sig("bal"), (3,), (1,))
    changed = op.refresh()
    assert changed == [leaf.sens]
    assert leaf.delta[""].empty and not leaf.sens.empty
    smerges = {r for r in ops if isinstance(r, SensMergeOp)}
    assert {r.node_label for r in smerges} == {"1"}  # none on the spine
    assert set(woken_by(changed, readers)) == smerges


def _transfer_leaf():
    """An off-spine leaf, which receives corrections, holding a transfer
    of 30 from bal[1] = 100 to bal[2] = 5, and its operator."""
    leaf = build_tree(1).right
    base = DbVersion()
    for k, v in ((1, 100), (2, 5)):
        base = store_upsert(base, SCHEMA.sig("bal"), (k,), (v,))
    leaf.txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    return leaf, TxnOp(leaf, base)


def test_net_out_correction_reruns_no_group_and_builds_no_index(monkeypatch):
    """A correction changed and changed back between two refreshes is
    named by the pull, but moves no branch value: the transaction re-runs
    no group and publishes nothing, and, before its first real repair,
    builds no sensitivity index."""
    leaf, op = _transfer_leaf()
    corr, txn = leaf.corr, leaf.txn
    assert op.refresh() == [leaf.delta[""], leaf.sens]  # evaluated: both published
    reruns = []  # the maintainers a repair re-ran
    for m in txn.maintainers:
        rerun = lambda *args, m=m, f=m.apply_changes, **kw: reruns.append(m) or f(*args, **kw)
        monkeypatch.setattr(m, "apply_changes", rerun)

    def latest():
        return [sig.latest for sig in op.output_signals]

    def indexed():
        return any(len(idx) for idx in txn._sens_index.values())

    versions = latest()
    corr.publish(inserts=[((0, (1,)), (60,))])
    corr.publish(removes=[(0, (1,))])  # back to the snapshot's value
    assert op.refresh() == []
    assert reruns == [] and latest() == versions and not indexed()
    corr.publish(inserts=[((0, (1,)), (50,))])
    assert op.refresh() == [leaf.delta[""]]  # repaired: bal[1] reads 50
    assert dict(leaf.delta[""].items()) == {(0, (1,)): (20,), (0, (2,)): (35,)}
    assert reruns and indexed()
    reruns.clear()
    versions = latest()
    corr.publish(inserts=[((0, (1,)), (60,))])
    corr.publish(inserts=[((0, (1,)), (50,))])
    assert op.refresh() == []
    assert reruns == [] and latest() == versions


def test_correction_withdrawn_before_first_refresh_leaves_snapshot_value():
    """A correction published and withdrawn before the leaf first
    refreshes is named by that first pull with no value: the db: root
    keeps the snapshot's value, not an absent key."""
    leaf, op = _transfer_leaf()
    leaf.corr.publish(inserts=[((0, (1,)), (50,))])
    leaf.corr.publish(removes=[(0, (1,))])
    assert op.refresh() == [leaf.delta[""], leaf.sens]
    assert ptree.get(leaf.txn._db_root["bal"], (1,)) == (100,)
    assert dict(leaf.delta[""].items()) == {(0, (1,)): (70,), (0, (2,)): (35,)}


def run_fixpoint(base, txn_rules, height, rnd):
    decomp = build_decomposition(
        [point(0, (k,)) for k in range(8)], height
    )
    root = build_tree(height)
    ops, readers = wire_tree(root, decomp)
    leaves = list(root.leaves())
    dirty = [op for op in ops if isinstance(op, TxnOp)][: len(txn_rules)]
    for i, (op, rules) in enumerate(zip(dirty, txn_rules)):
        op.leaf.txn = TxnExec(SCHEMA, rules, txn_id=i)
        op.base = base
    steps = 0
    while dirty:
        steps += 1
        assert steps < 20000, "no fixpoint"
        op = dirty.pop(rnd.randrange(len(dirty)))
        versions = [sig.latest for sig in op.output_signals]
        changed = op.refresh()
        # the engine wakes readers from the returned list alone
        assert changed == [s for s, v0 in zip(op.output_signals, versions) if s.latest != v0]
        for reader in woken_by(changed, readers):
            if reader not in dirty:
                dirty.append(reader)
    # the root's delta merge is the commit
    changes = [item for d in labels(height) for item in root.delta[d].items()]
    db = apply_deltas(base, SCHEMA, changes)
    return db, [leaf.txn.status for leaf in leaves if leaf.txn is not None]


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
    no node on the leftmost spine (no "1" in its label, the root included)
    has correction or sensitivity signals, and every node off it has one
    of each, published by one operator. Only deltas are split by region:
    2^h signals at height h. Height 5 wires 160 delta merges, 26
    sensitivity merges (one per internal node off the spine), 57
    correction operators (one per node off the spine) and 32 leaves."""
    for height in range(1, 6):
        root = build_tree(height)
        ops, readers = wire_tree(root, build_decomposition([point(0, (k,)) for k in range(8)], height))
        producers = Counter(id(sig) for op in ops for sig in op.output_signals)
        for node in [*root.internal(), *root.leaves()]:
            assert len(node.delta) == 2**node.height
            for sig, kind in ((node.sens, SENS), (node.corr, CORR)):
                if "1" in node.label:
                    assert isinstance(sig, VersionedSignal) and sig.kind == kind, node
                    assert producers[id(sig)] == 1, node
                else:
                    assert sig is None, node
        assert sum(isinstance(op, TxnOp) for op in ops) == 2**height
        assert {id(s) for s in readers} == {id(s) for op in ops for s in op.input_signals}
        unproduced = [(op, s) for op in ops for s in op.input_signals if id(s) not in producers]
        assert unproduced == [], height
    assert Counter(op.kind for op in ops) == {"dmerge": 160, "smerge": 26, "corr": 57, "txn": 32}
