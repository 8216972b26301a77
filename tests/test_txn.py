"""Transaction execution: isolated evaluation, failure, repair."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txnrepair import ptree
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.signal import retract, upsert
from txnrepair.txn import EVALUATED, FAILED, TxnExec, make_null_txn
from txnrepair.values import INT64
from txnrepair.views import OverlayView, TreeView, patch_tree, view_scan

SCHEMA = Schema.from_sigs([PredicateSig("bal", 0, (INT64,), (INT64,))])


def make_db(entries):
    db = DbVersion()
    for k, v in entries.items():
        db = store_upsert(db, SCHEMA.sig("bal"), (k,), (v,))
    return db


def transfer(src, dst, amount):
    return parse_rules(
        """
^bal[$a] = x <- x = bal@start[$a] - $m.
^bal[$b] = y <- y = bal@start[$b] + $m.
false <- bal[$a] = v, v < 0.
""",
        SCHEMA,
        params={"a": src, "b": dst, "m": amount},
    )


def deltas_as_dict(out):
    return {rec.key: rec.value for rec in out.deltas}


def test_transfer_succeeds():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    out = txn.evaluate(make_db({1: 100, 2: 5}))
    assert out.status == EVALUATED
    assert deltas_as_dict(out) == {(1,): (70,), (2,): (35,)}


def test_overdraft_fails_with_empty_deltas():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    out = txn.evaluate(make_db({1: 10, 2: 5}))
    assert out.status == FAILED
    assert out.deltas == []
    assert out.constraint_hits == 1
    assert out.sens  # sensitivity output survives failure


def test_conflicting_upserts_fail():
    rules = parse_rules(
        "^bal[$k] = v <- v = bal@start[$k] + 1.\n"
        "^bal[$k] = w <- w = bal@start[$k] + 2.\n",
        SCHEMA,
        params={"k": 1},
    )
    txn = TxnExec(SCHEMA, rules)
    out = txn.evaluate(make_db({1: 0}))
    assert out.status == FAILED
    assert out.conflicts == [("bal", (1,), ((1,), (2,)))]


def test_agreeing_upserts_are_fine():
    rules = parse_rules(
        "^bal[$k] = v <- v = bal@start[$k] + 1.\n"
        "^bal[$k] = w <- w = bal@start[$k] + 1.\n",
        SCHEMA,
        params={"k": 1},
    )
    out = TxnExec(SCHEMA, rules).evaluate(make_db({1: 0}))
    assert out.status == EVALUATED
    assert deltas_as_dict(out) == {(1,): (1,)}


def test_repair_tracks_correction():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    out = txn.evaluate(make_db({1: 100, 2: 5}))
    assert deltas_as_dict(out) == {(1,): (70,), (2,): (35,)}
    # another transaction changed bal[1] underneath us
    out = txn.repair([(upsert(0, (1,), (50,)), True)])
    assert out.status == EVALUATED
    assert deltas_as_dict(out) == {(1,): (20,), (2,): (35,)}


def test_repair_can_fail_and_recover():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    txn.evaluate(make_db({1: 100, 2: 5}))
    corr = upsert(0, (1,), (10,))
    out = txn.repair([(corr, True)])
    assert out.status == FAILED and out.deltas == []
    # correction withdrawn: back to the snapshot value
    out = txn.repair([(corr, False)])
    assert out.status == EVALUATED
    assert deltas_as_dict(out) == {(1,): (70,), (2,): (35,)}


def test_null_txn():
    out = make_null_txn(SCHEMA).evaluate(make_db({}))
    assert out.status == EVALUATED and out.deltas == [] and out.sens == []


def test_sens_covers_read_keys():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    out = txn.evaluate(make_db({1: 100, 2: 5}))
    for key in ((1,), (2,)):
        assert any(r.pred_id == 0 and r.contains(key) for r in out.sens)


class _CorrModel:
    """Oracle-side view of a correction signal: identity -> record, with
    replacement emitting the removal/insertion pair the signal would."""

    def __init__(self):
        self.content = {}

    def set(self, rec):
        changes = []
        old = self.content.get(rec.identity())
        if old == rec:
            return changes
        if old is not None:
            changes.append((old, False))
        self.content[rec.identity()] = rec
        changes.append((rec, True))
        return changes

    def all_changes(self):
        return [(rec, True) for rec in self.content.values()]


def test_repair_matches_fresh_eval_fuzz():
    """Random correction streams: incremental repair must agree with a
    fresh evaluation given the final corrections."""
    for seed in range(120):
        rnd = random.Random(seed)
        base = make_db({k: rnd.randrange(0, 120) for k in range(6)})
        a, b = rnd.sample(range(6), 2)
        txn = TxnExec(SCHEMA, transfer(a, b, rnd.randrange(0, 100)))
        txn.evaluate(base)
        model = _CorrModel()
        for _ in range(rnd.randint(1, 5)):
            key = (rnd.randrange(6),)
            rec = (retract(0, key) if rnd.random() < 0.2
                   else upsert(0, key, (rnd.randrange(0, 120),)))
            changes = model.set(rec)
            if changes:
                txn.repair(changes)
        fresh = TxnExec(SCHEMA, list(txn.rules))
        want = fresh.evaluate(base, model.all_changes())
        got = txn.outputs()
        assert got.status == want.status, seed
        assert deltas_as_dict(got) == deltas_as_dict(want), seed


def test_out_of_range_upsert_fails_until_repaired_into_range():
    bump = parse_rules("^bal[1] = v <- v = bal@start[1] + 1.", SCHEMA)
    txn = TxnExec(SCHEMA, bump)
    out = txn.evaluate(make_db({1: 2**63 - 1}))
    assert out.status == FAILED and out.deltas == []
    corr = upsert(0, (1,), (0,))
    out = txn.repair([(corr, True)])
    assert out.status == EVALUATED
    assert deltas_as_dict(out) == {(1,): (1,)}
    out = txn.repair([(corr, False)])
    assert out.status == FAILED and out.deltas == []


# ---- persistent overlays against views built from scratch ----

PREDS = ("p0", "p1")
OVERLAY_SCHEMA = Schema.from_sigs(
    [PredicateSig(p, i, (INT64,), (INT64,)) for i, p in enumerate(PREDS)]
)
small_keys = st.integers(0, 3)
preds = st.sampled_from(PREDS)
amounts = st.integers(0, 30)
values = st.one_of(st.integers(0, 60), st.just(2**63 - 1))

# random_rules-style pieces; several per transaction, so keys can receive
# conflicting upserts and derived predicates can gain several supports
fragments = st.one_of(
    st.builds("^{0}[{1}] = v <- v = {0}@start[{1}] + {2}.".format, preds, small_keys, amounts),
    st.builds(
        lambda p, ab, m: (
            f"^{p}[{ab[0]}] = x <- x = {p}@start[{ab[0]}] - {m}.\n"
            f"^{p}[{ab[1]}] = y <- y = {p}@start[{ab[1]}] + {m}.\n"
            f"false <- {p}[{ab[0]}] = v, v < 0."
        ),
        preds,
        st.lists(small_keys, min_size=2, max_size=2, unique=True),
        amounts,
    ),
    st.builds("probe(v) <- {0}[{1}] = v.".format, preds, small_keys),
    st.builds(
        "seen(v) <- {0}@start[{1}] = v.\n^{2}[{3}] = w <- seen(v), w = v + {4}.".format,
        preds, small_keys, preds, small_keys, amounts,
    ),
)
# (pred, key, value); value None retracts the key
corrections = st.lists(st.tuples(preds, small_keys, st.one_of(st.none(), values)), max_size=6)


def scratch_views(txn):
    """Every view of `txn` rebuilt from its support counts."""

    def db_view(pred):
        sig = txn.schema.sig(pred)
        base = TreeView(txn.base.root(sig.pred_id), sig.arity, len(sig.value_types))
        patches = txn.corr.get(pred)
        return OverlayView(base, patch_tree(patches)) if patches else base

    views = {f"db:{pred}": db_view(pred) for pred in txn._read_preds}
    for pred in txn.upserted:
        single = {}
        for key, vals in txn._delta_support.get(pred, {}).items():
            live = [v for v, c in vals.items() if c > 0]
            if len(live) == 1:
                single[key] = (1, live[0])
        base = views.get(f"db:{pred}") or db_view(pred)
        views[f"end:{pred}"] = OverlayView(base, patch_tree(single))
    for pred, support in txn._out_support.items():
        tuples = sorted(t for t, c in support.items() if c > 0)
        root = ptree.from_sorted([(t, ()) for t in tuples])
        views[f"out:{pred}"] = TreeView(root, txn._derived_karity[pred], 0)
    return views


def scans(views):
    return {name: list(view_scan(v)) for name, v in views.items()}


@given(
    st.lists(fragments, min_size=1, max_size=4),
    st.lists(values, min_size=len(PREDS) * 4, max_size=len(PREDS) * 4),
    corrections,
    st.lists(corrections, max_size=4),
)
@settings(max_examples=200)
def test_overlays_match_views_built_from_scratch(frags, base_vals, initial, stream):
    """After evaluate and after every repair, each view equals one rebuilt
    from the support counts, views built earlier still scan as they did,
    and the outputs equal a fresh evaluation under the same corrections."""
    base = DbVersion()
    for i, val in enumerate(base_vals):
        sig = OVERLAY_SCHEMA.predicates[i // 4]
        base = store_upsert(base, sig, (i % 4,), (val,))
    rules = parse_rules("\n".join(frags), OVERLAY_SCHEMA)
    model = _CorrModel()

    def changes_for(batch):
        out = []
        for pred, key, val in batch:
            pid = OVERLAY_SCHEMA.sig(pred).pred_id
            rec = retract(pid, (key,)) if val is None else upsert(pid, (key,), (val,))
            out.extend(model.set(rec))
        return out

    txn = TxnExec(OVERLAY_SCHEMA, rules)
    txn.evaluate(base, changes_for(initial))
    held = []  # (views, their scans when built)
    for batch in [None] + stream:
        if batch is not None:
            changes = changes_for(batch)
            if not changes:
                continue
            txn.repair(changes)
        views = txn._build_views()
        assert scans(views) == scans(scratch_views(txn))
        held.append((views, scans(views)))
        fresh = TxnExec(OVERLAY_SCHEMA, rules).evaluate(base, model.all_changes())
        got = txn.outputs()
        assert (got.status, got.deltas) == (fresh.status, fresh.deltas)
    for views, seen in held:
        assert scans(views) == seen
