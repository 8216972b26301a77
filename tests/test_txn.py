"""Transaction execution: isolated evaluation, failure, repair."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import view_scan
from txnrepair import ptree, txn as txn_module
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.txn import EVALUATED, FAILED, TxnExec
from txnrepair.values import INT64
from txnrepair.views import OverlayView, TreeView, patch_tree

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


class Folded:
    """A consumer of one transaction's change outputs: folds each drain
    into the current status, requested deltas and sensitivity, checking
    the change contract on the way."""

    def __init__(self, out=None):
        self.status = None
        self.deltas = {}  # identity -> value
        self.sens = set()  # sensitivity intervals
        if out is not None:
            self.fold(out)

    def fold(self, out):
        idents = [ident for ident, _value in out.deltas]
        assert idents == sorted(set(idents)), "changes out of order or repeated"
        for ident, value in out.deltas:
            assert self.deltas.get(ident) != value, f"no-op change at {ident}"
            if value is None:
                del self.deltas[ident]
            else:
                self.deltas[ident] = value
        for interval in out.sens:
            assert interval not in self.sens, f"{interval} reported twice"
            self.sens.add(interval)
        self.status = out.status
        return self

    def values(self):
        """{key: value} of the requested deltas."""
        return {key: value for (_pid, key), value in self.deltas.items()}


def pulled(key, value):
    """The correction pull that sets bal[key] to `value`."""
    return [((0, key), value)]


def withdrawn(key):
    """The correction pull that withdraws the correction of bal[key]."""
    return [((0, key), None)]


def test_transfer_succeeds():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    got = Folded(txn.evaluate(make_db({1: 100, 2: 5})))
    assert got.status == EVALUATED
    assert got.values() == {(1,): (70,), (2,): (35,)}


def test_overdraft_fails_with_empty_deltas():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    out = txn.evaluate(make_db({1: 10, 2: 5}))
    assert out.status == FAILED
    assert out.deltas == []
    assert sum(m.constraint_hits for m in txn.maintainers) == 1
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
    assert out.deltas == []


def test_agreeing_upserts_are_fine():
    rules = parse_rules(
        "^bal[$k] = v <- v = bal@start[$k] + 1.\n"
        "^bal[$k] = w <- w = bal@start[$k] + 1.\n",
        SCHEMA,
        params={"k": 1},
    )
    got = Folded(TxnExec(SCHEMA, rules).evaluate(make_db({1: 0})))
    assert got.status == EVALUATED
    assert got.values() == {(1,): (1,)}


def test_repair_tracks_correction():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    got = Folded(txn.evaluate(make_db({1: 100, 2: 5})))
    assert got.values() == {(1,): (70,), (2,): (35,)}
    assert txn.outputs().deltas == txn.outputs().sens == []  # drained
    with pytest.raises(RuntimeError):  # evaluation happens once
        txn.evaluate(make_db({1: 100, 2: 5}))
    # another transaction changed bal[1] underneath us
    out = txn.repair(pulled((1,), (50,)))
    assert out.deltas == [((0, (1,)), (20,))]  # only the change
    assert got.fold(out).status == EVALUATED
    assert got.values() == {(1,): (20,), (2,): (35,)}


def test_repair_can_fail_and_recover():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    got = Folded(txn.evaluate(make_db({1: 100, 2: 5})))
    got.fold(txn.repair(pulled((1,), (10,))))
    assert got.status == FAILED and got.deltas == {}  # both deltas withdrawn
    # correction withdrawn: back to the snapshot value
    got.fold(txn.repair(withdrawn((1,))))
    assert got.status == EVALUATED
    assert got.values() == {(1,): (70,), (2,): (35,)}


def test_null_txn():
    out = TxnExec(SCHEMA, []).evaluate(make_db({}))
    assert out.status == EVALUATED and out.deltas == [] and out.sens == []


def test_sens_covers_read_keys():
    txn = TxnExec(SCHEMA, transfer(1, 2, 30))
    out = txn.evaluate(make_db({1: 100, 2: 5}))
    for key in ((1,), (2,)):
        assert any(p == 0 and lo <= key <= hi for p, lo, hi in out.sens)


class _CorrModel:
    """Oracle-side view of a correction signal: identity -> value."""

    def __init__(self):
        self.content = {}

    def publish(self, items, withdraw=()):
        """Set each (identity, value) of `items`, then withdraw the
        identities in `withdraw`; returns the pull a reader of the signal
        would see: each changed identity, in order, with its current
        value or None."""
        before = dict(self.content)
        for ident, value in items:
            self.content[ident] = value
        for ident in withdraw:
            self.content.pop(ident, None)
        idents = sorted(set(before) | set(self.content))
        return [(i, self.content.get(i)) for i in idents
                if before.get(i) != self.content.get(i)]

    def all_changes(self):
        return sorted(self.content.items())


def test_repair_matches_fresh_eval_fuzz():
    """Random correction streams: incremental repair must agree with a
    fresh evaluation given the final corrections."""
    for seed in range(120):
        rnd = random.Random(seed)
        base = make_db({k: rnd.randrange(0, 120) for k in range(6)})
        a, b = rnd.sample(range(6), 2)
        txn = TxnExec(SCHEMA, transfer(a, b, rnd.randrange(0, 100)))
        got = Folded(txn.evaluate(base))
        model = _CorrModel()
        for _ in range(rnd.randint(1, 5)):
            ident = (0, (rnd.randrange(6),))
            if rnd.random() < 0.2:
                changes = model.publish([], [ident])
            else:
                changes = model.publish([(ident, (rnd.randrange(0, 120),))])
            if changes:
                got.fold(txn.repair(changes))
        want = Folded(TxnExec(SCHEMA, list(txn.rules)).evaluate(base, model.all_changes()))
        assert got.status == want.status, seed
        assert got.deltas == want.deltas, seed


def test_out_of_range_upsert_fails_until_repaired_into_range():
    bump = parse_rules("^bal[1] = v <- v = bal@start[1] + 1.", SCHEMA)
    txn = TxnExec(SCHEMA, bump)
    got = Folded(txn.evaluate(make_db({1: 2**63 - 1})))
    assert got.status == FAILED and got.deltas == {}
    got.fold(txn.repair(pulled((1,), (0,))))
    assert got.status == EVALUATED
    assert got.values() == {(1,): (1,)}
    got.fold(txn.repair(withdrawn((1,))))
    assert got.status == FAILED and got.deltas == {}


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
# (pred, key, value); WITHDRAW withdraws the correction of the key
WITHDRAW = "withdraw"
corrections = st.lists(
    st.tuples(preds, small_keys, st.one_of(st.just(WITHDRAW), values)), max_size=6
)


def scratch_views(txn, model):
    """Every view of `txn` rebuilt from the correction model's content and
    the transaction's support counts."""

    def db_view(pred):
        sig = txn.schema.sig(pred)
        base = TreeView(txn.base.root(sig.pred_id), sig.arity, len(sig.value_types))
        patches = {key: value
                   for (pid, key), value in model.content.items() if pid == sig.pred_id}
        return OverlayView(base, patch_tree(patches)) if patches else base

    views = {f"db:{pred}": db_view(pred) for pred in txn._read_preds}
    for pred in txn.upserted:
        single = {}
        for key, vals in txn._delta_support.get(pred, {}).items():
            live = [v for v, c in vals.items() if c > 0]
            if len(live) == 1:
                single[key] = live[0]
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
    and the folded change outputs hold a fresh evaluation's deltas (none
    when failed) and at least its sensitivity."""
    base = DbVersion()
    for i, val in enumerate(base_vals):
        sig = OVERLAY_SCHEMA.predicates[i // 4]
        base = store_upsert(base, sig, (i % 4,), (val,))
    rules = parse_rules("\n".join(frags), OVERLAY_SCHEMA)
    model = _CorrModel()

    def changes_for(batch):
        items, withdraw = [], []
        for pred, key, val in batch:
            ident = (OVERLAY_SCHEMA.sig(pred).pred_id, (key,))
            if val == WITHDRAW:
                withdraw.append(ident)
            else:
                items.append((ident, (val,)))
        return model.publish(items, withdraw)

    txn = TxnExec(OVERLAY_SCHEMA, rules)
    got = Folded(txn.evaluate(base, changes_for(initial)))
    held = []  # (views, their scans when built)
    for batch in [None] + stream:
        if batch is not None:
            changes = changes_for(batch)
            if not changes:
                continue
            got.fold(txn.repair(changes))
        views = txn._build_views()
        assert scans(views) == scans(scratch_views(txn, model))
        held.append((views, scans(views)))
        fresh = Folded(TxnExec(OVERLAY_SCHEMA, rules).evaluate(base, model.all_changes()))
        assert got.status == fresh.status
        assert got.deltas == fresh.deltas
        assert got.status == EVALUATED or got.deltas == {}
        assert got.sens >= fresh.sens
    for views, seen in held:
        assert scans(views) == seen


# the benchmark's three templates over `bal`; a `$name` is a key or an amount
BUMP = "^bal[$k] = v <- v = bal@start[$k] + $d."
TRANSFER = """
^bal[$a] = x <- x = bal@start[$a] - $m.
^bal[$b] = y <- y = bal@start[$b] + $m.
false <- bal[$a] = v, v < 0.
"""
PROBE = "probe(v) <- bal[$k] = v."
EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
int64s = st.one_of(st.sampled_from(EDGES), st.integers(-(2**63), 2**63 - 1))
keys = st.sampled_from(EDGES)
TEMPLATES = {
    "bump": (BUMP, {"k": keys, "d": int64s}),
    "transfer": (TRANSFER, {"a": keys, "b": keys, "m": int64s}),
    "probe": (PROBE, {"k": keys}),
}


def literal_text(text, params):
    """`text` with each `$name` written in as its value."""
    return re.sub(r"\$(\w+)", lambda m: str(params[m.group(1)]), text)


@given(st.sampled_from(sorted(TEMPLATES)), st.data())
@settings(max_examples=200)
def test_bound_params_match_literal_text(name, data):
    """Evaluating and repairing a bound template gives the status, deltas
    and sensitivity of the same text with the values written in."""
    text, strategies = TEMPLATES[name]
    params = {n: data.draw(s, label=n) for n, s in strategies.items()}
    db = make_db(data.draw(st.dictionaries(keys, int64s), label="db"))
    key, value = data.draw(st.tuples(keys, int64s), label="correction")
    runs = []
    for rules in (parse_rules(text, SCHEMA, params),
                  parse_rules(literal_text(text, params), SCHEMA)):
        txn = TxnExec(SCHEMA, rules)
        runs.append((
            txn.evaluate(db),
            txn.repair(pulled((key,), (value,))),
            txn.repair(withdrawn((key,))),
        ))
    assert runs[0] == runs[1]


def test_one_compilation_per_template(monkeypatch):
    """A 45-rule sku transaction binds one bump template 45 times and
    compiles it once; each rule still bumps its own key."""
    calls = []
    compile_rule = txn_module.compile_rule

    def counted(*args, **kwargs):
        calls.append(args[0])
        return compile_rule(*args, **kwargs)

    monkeypatch.setattr(txn_module, "compile_rule", counted)
    rules = [r for k in range(45) for r in parse_rules(BUMP, SCHEMA, {"k": k, "d": k})]
    txn = TxnExec(SCHEMA, rules)
    assert len(calls) == 1
    out = Folded(txn.evaluate(make_db({k: 100 for k in range(45)})))
    assert out.status == EVALUATED
    assert out.values() == {(k,): (100 + k,) for k in range(45)}
