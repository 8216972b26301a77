"""Transaction execution: isolated evaluation, failure, repair."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import view_scan
from txnrepair import inclftj, ptree, txn as txn_module
from txnrepair.inclftj import IntervalIndex, RuleMaintainer
from txnrepair.pstore import DbVersion, PredicateSig, Schema, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.txn import EVALUATED, FAILED, TxnExec
from txnrepair.values import INT64, SchemaError
from txnrepair.views import view_lookup

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


def test_end_view_keeps_own_upserts_over_corrections():
    """A transfer whose constraint reads end:bal. A correction shows in
    db:, and in end: only under a key the transaction does not upsert;
    withdrawing it puts the snapshot value back in both, and views built
    earlier stay as they were."""
    txn = TxnExec(SCHEMA, transfer(1, 2, 5))
    txn.evaluate(make_db({1: 10, 2: 0, 3: 7}))

    def shown():
        views = txn._build_views()
        return {name: {k: view_lookup(views[name], (k,)) for k in (1, 2, 3)}
                for name in ("db:bal", "end:bal")}, views

    start, start_views = shown()
    assert start == {"db:bal": {1: (10,), 2: (0,), 3: (7,)},
                     "end:bal": {1: (5,), 2: (5,), 3: (7,)}}
    # another transaction wrote bal[1] = 10 and bal[3] = 8: the own
    # upsert of bal[1] does not move, so end: keeps it
    txn.repair([((0, (1,)), (10,)), ((0, (3,)), (8,))])
    assert shown()[0] == {"db:bal": {1: (10,), 2: (0,), 3: (8,)},
                          "end:bal": {1: (5,), 2: (5,), 3: (8,)}}
    txn.repair(pulled((1,), (30,)))
    assert shown()[0] == {"db:bal": {1: (30,), 2: (0,), 3: (8,)},
                          "end:bal": {1: (25,), 2: (5,), 3: (8,)}}
    txn.repair([((0, (1,)), None), ((0, (3,)), None)])
    assert shown()[0] == start
    assert list(view_scan(start_views["end:bal"])) == [(1, 5), (2, 5), (3, 7)]


def test_correction_under_an_own_upsert_stays_out_of_end():
    """A correction that moves the db: value of a key the transaction
    upserts, while its own value stays, leaves that key's end: value, so
    a constraint reading it does not fire."""
    rules = parse_rules("^bal[1] = v <- v = 7.\nfalse <- bal[1] = w, w > 10.", SCHEMA)
    txn = TxnExec(SCHEMA, rules)
    got = Folded(txn.evaluate(make_db({1: 3})))
    got.fold(txn.repair(pulled((1,), (50,))))
    assert got.status == EVALUATED and got.values() == {(1,): (7,)}
    assert view_lookup(txn._build_views()["end:bal"], (1,)) == (7,)


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


def test_a_correction_stabs_once_per_changed_point(monkeypatch):
    """40 single-key bumps share one sensitivity index: a correction to
    one key stabs it once per changed point, the old record and the new,
    and only the bump of that key is re-run: one context, the one that
    starts with that binding's index."""
    bump = "^bal[$k] = v <- v = bal@start[$k] + 1."
    rules = [r for k in range(40) for r in parse_rules(bump, SCHEMA, params={"k": k})]
    txn = TxnExec(SCHEMA, rules)
    txn.evaluate(make_db({k: 0 for k in range(40)}))
    stabs, applied = [], []
    stab, apply_changes = IntervalIndex.stab, RuleMaintainer.apply_changes
    monkeypatch.setattr(IntervalIndex, "stab", lambda idx, t: stabs.append(t) or stab(idx, t))

    def apply_and_log(m, *args, **kw):
        report = apply_changes(m, *args, **kw)
        applied.append((m, report.contexts))
        return report

    monkeypatch.setattr(RuleMaintainer, "apply_changes", apply_and_log)
    got = Folded(txn.repair(pulled((7,), (5,))))
    assert sorted(stabs) == [(7, 0), (7, 5)]
    ((m, contexts),) = applied
    assert m is txn.maintainers[0] and len(contexts) == 1
    assert m.bindings[contexts[0][0]] == (("$k", 7),)
    assert got.values() == {(7,): (6,)}
    # a correction that leaves the value as it is changes no point
    stabs.clear()
    applied.clear()
    assert txn.repair(pulled((7,), (5,))).deltas == []
    assert stabs == [] and applied == []


def test_a_repair_stabs_the_intervals_of_earlier_re_runs():
    """A={1, 20} and B={1, 20}: the join skips B between 1 and 20, so no
    interval of the evaluation holds B(10). Adding A(10) re-runs the rule,
    which then seeks B to 10; only that re-run's interval holds B(10), so
    the next repair must find it."""
    schema = Schema.from_sigs([
        PredicateSig("A", 0, (INT64,)),
        PredicateSig("B", 1, (INT64,)),
        PredicateSig("S", 2, (INT64,), (INT64,)),
    ])
    db = DbVersion()
    for pred in ("A", "B"):
        for x in (1, 20):
            db = store_upsert(db, schema.sig(pred), (x,))
    rules = parse_rules("^S[x] = x <- A(x), B(x).", schema)
    txn = TxnExec(schema, rules)
    got = Folded(txn.evaluate(db))
    got.fold(txn.repair([((0, (10,)), ())]))
    assert got.values() == {(1,): (1,), (20,): (20,)}
    got.fold(txn.repair([((1, (10,)), ())]))
    assert got.values() == {(1,): (1,), (10,): (10,), (20,): (20,)}


# ---- path-copied roots against views built from scratch ----

PREDS = ("p0", "p1")
BRANCH_SCHEMA = Schema.from_sigs(
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
    """Every view of `txn`, each root rebuilt from scratch out of the
    snapshot, the correction model's content and the transaction's
    support counts."""

    def view(content):
        return ptree.from_sorted(sorted(content.items()))

    def db_content(pred):
        pred_id = txn.schema.sig(pred).pred_id
        content = dict(ptree.items(txn.base.root(pred_id)))
        content.update((key, value)
                       for (pid, key), value in model.content.items() if pid == pred_id)
        return content

    views = {f"db:{pred}": view(db_content(pred)) for pred in txn._db_reads}
    for pred in txn._end_reads:
        content = db_content(pred)
        for key, vals in txn._delta_support.get(pred, {}).items():
            live = [v for v, c in vals.items() if c > 0]
            if len(live) == 1:
                content[key] = live[0]
        views[f"end:{pred}"] = view(content)
    for pred, support in txn._out_support.items():
        views[f"out:{pred}"] = view({t: () for t, c in support.items() if c > 0})
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
        sig = BRANCH_SCHEMA.predicates[i // 4]
        base = store_upsert(base, sig, (i % 4,), (val,))
    rules = parse_rules("\n".join(frags), BRANCH_SCHEMA)
    model = _CorrModel()

    def changes_for(batch):
        items, withdraw = [], []
        for pred, key, val in batch:
            ident = (BRANCH_SCHEMA.sig(pred).pred_id, (key,))
            if val == WITHDRAW:
                withdraw.append(ident)
            else:
                items.append((ident, (val,)))
        return model.publish(items, withdraw)

    txn = TxnExec(BRANCH_SCHEMA, rules)
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
        fresh = Folded(TxnExec(BRANCH_SCHEMA, rules).evaluate(base, model.all_changes()))
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


def _count_compilations(monkeypatch):
    """Record each compile_rule call."""
    calls = []
    compile_rule = txn_module.compile_rule

    def counted(*args, **kwargs):
        calls.append(args[0])
        return compile_rule(*args, **kwargs)

    monkeypatch.setattr(txn_module, "compile_rule", counted)
    return calls


def test_one_compilation_per_template(monkeypatch):
    """A 45-rule sku transaction binds one bump template 45 times and
    compiles it once; each rule still bumps its own key."""
    calls = _count_compilations(monkeypatch)
    rules = [r for k in range(45) for r in parse_rules(BUMP, SCHEMA, {"k": k, "d": k})]
    txn = TxnExec(SCHEMA, rules)
    assert len(calls) == 1
    out = Folded(txn.evaluate(make_db({k: 100 for k in range(45)})))
    assert out.status == EVALUATED
    assert out.values() == {(k,): (100 + k,) for k in range(45)}


def test_one_maintainer_and_one_evaluation_per_template(monkeypatch):
    """A 45-bump transaction evaluates its template as one group: one
    maintainer, one join call, and each bump still writes its own key."""
    inits, evals = [], []
    init, eval_rule = RuleMaintainer.__init__, inclftj.eval_rule
    monkeypatch.setattr(RuleMaintainer, "__init__",
                        lambda m, *a, **kw: inits.append(m) or init(m, *a, **kw))
    monkeypatch.setattr(inclftj, "eval_rule", lambda *a, **kw: evals.append(a) or eval_rule(*a, **kw))
    rules = [r for k in range(45) for r in parse_rules(BUMP, SCHEMA, {"k": k, "d": 1})]
    out = Folded(TxnExec(SCHEMA, rules).evaluate(make_db({k: k for k in range(45)})))
    assert len(inits) == 1 and len(evals) == 1
    assert out.status == EVALUATED
    assert out.values() == {(k,): (k + 1,) for k in range(45)}


def test_a_repeated_binding_supports_its_tuple_twice_through_repair():
    """One binding written twice in a transaction supports its upsert
    twice; a correction that withdraws the key takes both supports away,
    and one that restores it brings both back."""
    rules = [r for _ in range(2) for r in parse_rules(BUMP, SCHEMA, {"k": 1, "d": 1})]
    txn = TxnExec(SCHEMA, rules)
    support = txn._delta_support  # pred -> {key: {value: supporting bindings}}
    got = Folded(txn.evaluate(make_db({}), pulled((1,), (10,))))
    assert support["bal"] == {(1,): {(11,): 2}}
    assert got.status == EVALUATED and got.values() == {(1,): (11,)}
    got.fold(txn.repair(withdrawn((1,))))
    assert support["bal"] == {(1,): {}}
    assert got.status == EVALUATED and got.values() == {}
    got.fold(txn.repair(pulled((1,), (10,))))
    assert support["bal"] == {(1,): {(11,): 2}}
    assert got.status == EVALUATED and got.values() == {(1,): (11,)}


def test_conflicting_bindings_of_one_template_fail_until_they_agree():
    """Two bindings of one template copy keys 2 and 3 into key 1: while
    the two differ, key 1 has two live values and the transaction fails;
    a correction that makes them equal recovers it."""
    copy = "^bal[$k] = v <- v = bal@start[$j] + 0."
    rules = [r for j in (2, 3) for r in parse_rules(copy, SCHEMA, {"k": 1, "j": j})]
    txn = TxnExec(SCHEMA, rules)
    got = Folded(txn.evaluate(make_db({1: 0, 2: 5, 3: 6})))
    assert got.status == FAILED and got.deltas == {}
    got.fold(txn.repair(pulled((3,), (5,))))
    assert got.status == EVALUATED and got.values() == {(1,): (5,)}
    got.fold(txn.repair(withdrawn((3,))))
    assert got.status == FAILED and got.deltas == {}


def test_transactions_share_plans_per_template_and_upserted_set(monkeypatch):
    """Two transactions built from one template with one plan cache share
    one plan object; a transaction whose upserted set differs gets its
    own, since the set decides which atoms read the end state."""
    calls = _count_compilations(monkeypatch)
    plans = txn_module.PlanCache()
    probe = "probe(v) <- bal[$k] = v."
    t1 = TxnExec(SCHEMA, parse_rules(probe, SCHEMA, {"k": 1}), plans=plans)
    t2 = TxnExec(SCHEMA, parse_rules(probe, SCHEMA, {"k": 2}), plans=plans)
    assert t1.compiled[0] is t2.compiled[0] and len(calls) == 1
    rules = parse_rules(probe, SCHEMA, {"k": 3}) + parse_rules(BUMP, SCHEMA, {"k": 3, "d": 1})
    t3 = TxnExec(SCHEMA, rules, plans=plans)
    assert t3.compiled[0] is not t1.compiled[0] and len(calls) == 3
    assert t3.compiled[0].atoms[0].vertex != t1.compiled[0].atoms[0].vertex
    db = make_db({1: 10, 2: 20, 3: 30})
    outs = [Folded(t.evaluate(db)) for t in (t1, t2, t3)]
    assert [out.status for out in outs] == [EVALUATED] * 3
    assert outs[2].values() == {(3,): (31,)}


def _count_rewrites(monkeypatch):
    """Record each rewrite_for_txn call: one per shape derived."""
    calls = []
    rewrite = txn_module.rewrite_for_txn
    monkeypatch.setattr(txn_module, "rewrite_for_txn",
                        lambda rules, schema: calls.append(rules) or rewrite(rules, schema))
    return calls


def test_transactions_of_one_template_set_share_one_shape(monkeypatch):
    """Transactions bound from the same templates, in the same order,
    derive their shape once and share it; other templates, or the same
    ones first bound in another order, make another shape."""
    rewrites = _count_rewrites(monkeypatch)
    plans = txn_module.PlanCache()
    probe = "probe(v) <- bal[$k] = v."

    def build(*texts, k):
        params = {"k": k, "d": k}
        rules = [r for t in texts
                 for r in parse_rules(t, SCHEMA, {n: params[n] for n in re.findall(r"\$(\w+)", t)})]
        return TxnExec(SCHEMA, rules, plans=plans)

    t1, t2 = build(BUMP, probe, k=1), build(BUMP, probe, k=2)
    assert len(rewrites) == 1 and len(plans._shapes) == 1
    for attr in ("upserted", "compiled", "_heads", "_order", "_db_reads", "_end_reads",
                 "_db_sigs", "_db_preds"):
        assert getattr(t1, attr) is getattr(t2, attr), attr
    assert t1._delta_support is not t2._delta_support  # per transaction
    t3 = build(probe, BUMP, k=3)
    assert len(rewrites) == 2 and t3.compiled == t1.compiled[::-1]
    build(probe, k=4)
    assert len(rewrites) == 3 and len(plans._shapes) == 3
    db = make_db({1: 10, 2: 20, 3: 30})
    outs = [Folded(t.evaluate(db)) for t in (t1, t2, t3)]
    assert [out.values() for out in outs] == [{(1,): (11,)}, {(2,): (22,)}, {(3,): (33,)}]


def test_plan_cache_is_bounded(monkeypatch):
    """The oldest plan, and the oldest shape, leave once the cache is full."""
    calls = _count_compilations(monkeypatch)
    rewrites = _count_rewrites(monkeypatch)
    plans = txn_module.PlanCache()
    plans.size = 2
    texts = [f"probe(v) <- bal[{k}] = v." for k in range(3)]
    for text in texts:
        TxnExec(SCHEMA, parse_rules(text, SCHEMA), plans=plans)
    assert len(plans._plans) == 2 and len(calls) == 3
    assert len(plans._shapes) == 2 and len(rewrites) == 3
    TxnExec(SCHEMA, parse_rules(texts[2], SCHEMA), plans=plans)  # still held
    assert len(calls) == 3 and len(rewrites) == 3
    TxnExec(SCHEMA, parse_rules(texts[0], SCHEMA), plans=plans)  # evicted: compiled again
    assert len(calls) == 4 and len(rewrites) == 4
    assert len(plans._plans) == 2 and len(plans._shapes) == 2


@pytest.mark.parametrize("text, match", [
    ("q(x) <- r(x).\nr(x) <- q(x).", "cyclic"),
    ("^q[x] = y <- bal[x] = y.", "not a database predicate"),
    ("q(x) <- bal[x] = y.\nq(x, y) <- bal[x] = y.", "arities"),
])
def test_rejected_program_raises_at_every_build(text, match):
    """A program that raises caches no shape, so every transaction built
    from it with one cache raises again."""
    plans = txn_module.PlanCache()
    for _ in range(3):
        with pytest.raises(SchemaError, match=match):
            TxnExec(SCHEMA, parse_rules(text, SCHEMA), plans=plans)
    assert plans._shapes == {}


@pytest.mark.parametrize("text", [
    # derived at 1, read at 2
    "q(x) <- bal[x] = y.\nr(x, y) <- q(x, y).",
    # derived at 2, read at 1
    "q(x, y) <- bal[x] = y.\nr(x) <- q(x).",
    # derived at 1 and at 2
    "q(x) <- bal[x] = y.\nq(x, y) <- bal[x] = y.",
])
def test_derived_predicate_at_two_arities_rejected(text):
    with pytest.raises(SchemaError, match=r"derived predicate q used at arities (1 and 2|2 and 1)"):
        TxnExec(SCHEMA, parse_rules(text, SCHEMA))


@pytest.mark.parametrize("text", [
    "r(x) <- q(x), bal[x] = 0.",
    "r(x) <- bal[x] = y, !q(x).",
])
def test_read_of_undefined_predicate_rejected(text):
    with pytest.raises(SchemaError, match="q is neither a database predicate nor derived"):
        TxnExec(SCHEMA, parse_rules(text, SCHEMA))


def test_upsert_outside_schema_rejected():
    with pytest.raises(SchemaError, match="q, which is not a database predicate"):
        TxnExec(SCHEMA, parse_rules("^q[x] = y <- bal[x] = y.", SCHEMA))


@pytest.mark.parametrize("text", [
    "q(x) <- r(x).\nr(x) <- q(x).",
    # an upsert reading its own end state
    "^bal[k] = v <- bal[k] = w, v = w + 1.",
])
def test_cyclic_rules_rejected(text):
    with pytest.raises(SchemaError, match="cyclic"):
        TxnExec(SCHEMA, parse_rules(text, SCHEMA))


@pytest.mark.parametrize("text", [
    "q(y) <- A(z), y = x + 1.",
    "false <- A(z), x > 3.",
])
def test_unsourced_variable_rejected_at_construction(text):
    """x has no atom to enumerate it and no primitive computing it: the
    transaction is rejected when built, so whether a store's records
    would reach x makes no difference."""
    schema = Schema.from_sigs([PredicateSig("A", 0, (INT64,))])
    with pytest.raises(SchemaError, match="variable x has no enumerable source"):
        TxnExec(schema, parse_rules(text, schema))


@pytest.mark.parametrize("amount, status", [(10, FAILED), (3, EVALUATED)])
def test_constraint_written_first_reads_the_upsert(amount, status):
    rules = parse_rules(
        "false <- bal[$a] = v, v < 0.\n^bal[$a] = x <- x = bal@start[$a] - $m.",
        SCHEMA,
        params={"a": 1, "m": amount},
    )
    assert TxnExec(SCHEMA, rules).evaluate(make_db({1: 5})).status == status


def test_derived_predicate_read_before_its_rule():
    rules = parse_rules(
        "^bal[k] = v <- big(k), v = bal@start[k] + 1.\nbig(k) <- bal@start[k] = v, v > 10.",
        SCHEMA,
    )
    txn = TxnExec(SCHEMA, rules)
    got = Folded(txn.evaluate(make_db({1: 5, 2: 20, 3: 30})))
    assert got.status == EVALUATED
    assert got.values() == {(2,): (21,), (3,): (31,)}
    got.fold(txn.repair(pulled((1,), (11,))))
    assert got.values() == {(1,): (12,), (2,): (21,), (3,): (31,)}
