"""Differential tests against the brute-force oracle (`oracle.py`).

Random programs over three int64 function predicates and one relation
are run one at a time by the oracle, by `bench.run_serial`, and by the
repair engine at 1 and 2 workers; all must agree on every transaction's
status and on the final state. Each transaction binds a few templates,
often one template several times: an identical binding twice, and two
bindings that write different values to one key. The templates cover
multi-predicate joins, negation of atoms and of primitives, constraints,
derived predicates, both orders of an equality, a head of two atoms, a
function value inside an expression, parentheses, a comparison of
parameters and constants alone, int64 edge values, a read whose key
comes from data (a value of one predicate used as a key of another), and
`@start` as well as end-state reads. Reads of another predicate's end state go from a
higher-numbered predicate to a lower one, so no program has a cycle.
A second family, guarded transfers between three keys, makes repairs
flip reads: a correction moves a balance across a guard's threshold.
"""

import re
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracle
from txnrepair import bench
from txnrepair.pstore import DbVersion, PredicateSig, Schema, full_scan, store_upsert
from txnrepair.rulelang import parse_rules
from txnrepair.txn import EVALUATED, FAILED
from txnrepair.values import INT64, SchemaError

FUNS = ("F0", "F1", "F2")
SCHEMA = Schema.from_sigs(
    [PredicateSig(p, i, (INT64,), (INT64,)) for i, p in enumerate(FUNS)]
    + [PredicateSig("R", 3, (INT64, INT64))]
)
KEYS = range(2)
EDGES = [-(2**63), -(2**63) + 1, -1, 2**63 - 2, 2**63 - 1]
values = st.one_of(st.integers(-3, 3), st.integers(-3, 3), st.sampled_from(EDGES))

# {i} is the upserted predicate, {j} one it reads; an end-state read of
# F{j} (no @start) needs j < i
TEMPLATES = (
    "^F{i}[$k] = v <- v = F{i}@start[$k] + $d.",
    "^F{i}[$k] = v <- v = F{j}[$s] * $d.",
    "^F{i}[$k] = v <- F{j}[$s] = y, F{j}@start[$s] = z, v = y - z.",
    "^F{i}[x] = y <- R(x, y), !F{i}@start[x] = y, x >= $k.",
    "^F{i}[$k] = v <- v = y, F{j}@start[$s] = y.",
    "^F{i}[$k] = v <- F{j}@start[$s] = y, v = y.",
    "^F{i}[$k] = v <- F{j}@start[$s] = y, y > $t, v = y - 1.",
    "d(x, y) <- R(x, y), F{j}@start[x] = z, z > y.\n"
    "^F{i}[$k] = v <- d($k, w), v = w + $d.",
    "d(x, y) <- R(x, y), F{j}@start[x] = z, z > y.\n"
    "^F{i}[x] = y <- R(x, y), !d(x, y), x = $k.",
    "false <- F{i}[$k] = v, v > $d.",
    "false <- R(x, y), F{i}[x] = y, x = $k.",
    "^F{i}[$k] = v <- F{j}@start[$s] = y, !(y < $t), v = y + 1.",
    "^F{i}[$k] = v <- F{j}@start[$s] = y, F{i}@start[$k] = v, !(v = y * $d).",
    "^F{i}[x] = y, ^F{j}[x] = y <- R(x, y).",
    "^F{i}[$k] = v <- F{j}@start[$s] + 1 > $t, v = $d.",
    "^F{i}[$k] = v <- F{j}@start[$s] = y, v = (y - $d) * 2.",
    "^F{i}[$k] = v <- F{j}@start[$s] = y, $t > 0, v = y + $d.",
    "^F{i}[$k] = v <- F{j}@start[$s] = x, F{i}@start[x] = y, v = y + $d.",
)

# a guarded transfer, whose repairs flip reads: $m moves from F0[$s] to
# F0[$k] only while F0[$s] holds it, so an earlier transfer out of $s
# flips the guard and withdraws both upserts (or brings them back); a
# copy guarded on F0's end state and an overdraft constraint flip on
# corrections and on the transaction's own transfer alike
TRANSFER = (
    "^F0[$s] = v <- F0@start[$s] = a, a >= $m, v = a - $m.\n"
    "^F0[$k] = v <- F0@start[$k] = b, F0@start[$s] = a, a >= $m, v = b + $m."
)
END_READERS = (
    "^F1[$k] = v <- F0[$s] = a, a >= $t, v = a - $t.",
    "false <- F0[$s] = a, a < $t.",
)


@st.composite
def template(draw):
    text = draw(st.sampled_from(TEMPLATES))
    i = draw(st.integers(0, 2))
    j = draw(st.integers(0, i - 1)) if i and "F{j}[" in text else draw(st.integers(0, 2))
    if "F{j}[" in text and not i:
        i, j = 1, 0
    return text.format(i=i, j=j)


@st.composite
def bound(draw, text):
    """One binding of `text`: a value for each of its `$params`; keys and
    guard thresholds (`$t`) stay small, so that corrections flip guards."""
    names = sorted(set(re.findall(r"\$(\w+)", text)))
    small = {"k": st.sampled_from(KEYS), "s": st.sampled_from(KEYS), "t": st.integers(-3, 3)}
    params = {n: draw(small.get(n, values)) for n in names}
    return text, params


@st.composite
def workloads(draw):
    texts = draw(st.lists(template(), min_size=2, max_size=4))
    txns = []
    for _ in range(draw(st.integers(1, 6))):
        binds = draw(st.lists(st.sampled_from(texts).flatmap(bound), min_size=1, max_size=4))
        if draw(st.booleans()):
            binds.append(draw(st.sampled_from(binds)))  # an identical binding again
        txns.append([r for text, params in binds for r in parse_rules(text, SCHEMA, params)])
    snapshot = {}
    for p in FUNS:
        row = draw(st.lists(st.one_of(values, st.none()), min_size=len(KEYS), max_size=len(KEYS)))
        snapshot[p] = {(k,): (v,) for k, v in zip(KEYS, row) if v is not None}
    pairs = st.tuples(st.sampled_from(KEYS), values)
    snapshot["R"] = {t: () for t in draw(st.sets(pairs, min_size=1, max_size=6))}
    return snapshot, txns


@st.composite
def transfer_workloads(draw):
    """Two to six transactions over three keys with small non-negative
    balances, each binding a TRANSFER between two keys and, in some, one
    of END_READERS. The transfer upserts two keys of F0, so an end-state
    read of the third sees the corrections that earlier transfers make."""
    txns = []
    for _ in range(draw(st.integers(2, 6))):
        s = draw(st.integers(0, 2))
        k = (s + draw(st.integers(1, 2))) % 3
        rules = parse_rules(TRANSFER, SCHEMA, {"s": s, "k": k, "m": draw(st.integers(1, 3))})
        for text in draw(st.lists(st.sampled_from(END_READERS), max_size=1)):
            params = {"s": draw(st.integers(0, 2)), "k": draw(st.integers(0, 2)),
                      "t": draw(st.integers(0, 3))}
            rules += parse_rules(text, SCHEMA, {n: params[n] for n in re.findall(r"\$(\w+)", text)})
        txns.append(rules)
    snapshot = {p: {(k,): (draw(st.integers(0, 4)),) for k in range(3)} for p in FUNS}
    return {**snapshot, "R": {}}, txns


def workload(snapshot, txns):
    db = DbVersion()
    for pred, table in snapshot.items():
        for key, value in table.items():
            db = store_upsert(db, SCHEMA.sig(pred), key, value)
    return bench.Workload(SCHEMA, db, txns, locksets=[])


def as_snapshot(db):
    out = {}
    for pred_id, key, value in full_scan(db, SCHEMA):
        out.setdefault(SCHEMA.sig_by_id(pred_id).name, {})[key] = value
    return out


def check(snapshot, txns, report):
    state, failed = oracle.run_serial(SCHEMA, snapshot, txns)
    want = {p: table for p, table in state.items() if table}
    assert report.statuses == [FAILED if bad else EVALUATED for bad in failed], report.mode
    assert as_snapshot(report.db) == want, report.mode


def check_executors(case):
    snapshot, txns = case
    wl = workload(snapshot, txns)
    check(snapshot, txns, bench.run_serial(wl))
    check(snapshot, txns, bench.run_repair(wl, workers=1, height=2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        check(snapshot, txns, bench.run_repair(wl, workers=2, height=2))
    finally:
        sys.setswitchinterval(interval)


# no shrink phase: shrinking re-runs every executor per candidate, so a
# failure took minutes to report; the first falsifying case is shown as is
NO_SHRINK = [p for p in Phase if p is not Phase.shrink]


@given(workloads())
@settings(max_examples=300, phases=NO_SHRINK)
def test_serial_and_engine_match_the_oracle(case):
    check_executors(case)


@given(transfer_workloads())
@settings(max_examples=100, phases=NO_SHRINK)
def test_guarded_transfers_match_the_oracle(case):
    check_executors(case)


# programs a transaction must reject however they are bound: a derived
# predicate at two arities, a read of a predicate nothing derives, a
# cycle, an upsert outside the schema, a variable with no source
REJECTED = (
    "d(x) <- F0[x] = v.\nd(x, v) <- F0[x] = v.",
    "^F0[$k] = v <- e($k, v).",
    "^F1[$k] = v <- v = F2[$k] + 1.\n^F2[$k] = v <- v = F1[$k] + 1.",
    "^g(x) <- F0[x] = v.",
    "^F0[$k] = w <- F0@start[$k] = w, z < w.",
)


@given(workloads(), st.sampled_from(REJECTED), st.data())
@settings(max_examples=25)
def test_rejected_programs_are_rejected_by_both(case, text, data):
    """One transaction of a valid workload also binds a rejected program:
    the oracle and every executor refuse the workload."""
    snapshot, txns = case
    i = data.draw(st.integers(0, len(txns) - 1))
    bad = parse_rules(text, SCHEMA, {n: 0 for n in re.findall(r"\$(\w+)", text)})
    txns = txns[:i] + [txns[i] + bad] + txns[i + 1:]
    with pytest.raises(oracle.Rejected):
        oracle.run_serial(SCHEMA, snapshot, txns)
    wl = workload(snapshot, txns)
    for run in (bench.run_serial, lambda wl: bench.run_repair(wl, workers=1, height=2)):
        with pytest.raises(SchemaError):
            run(wl)


def test_oracle_examples():
    """Hand-checked outcomes: a bump, a repeated binding, a conflict, an
    overflow, a constraint, and an equality written before its source."""
    bump = "^F0[$k] = v <- v = F0@start[$k] + $d."
    snap = {"F0": {(1,): (10,)}, "F1": {}, "F2": {}, "R": {}}

    def run(*binds):
        txn = [r for text, params in binds for r in parse_rules(text, SCHEMA, params)]
        return oracle.run_serial(SCHEMA, snap, [txn])

    assert run((bump, {"k": 1, "d": 2}))[0]["F0"] == {(1,): (12,)}
    assert run((bump, {"k": 1, "d": 2}), (bump, {"k": 1, "d": 2}))[1] == [False]
    assert run((bump, {"k": 1, "d": 2}), (bump, {"k": 1, "d": 3}))[1] == [True]
    assert run((bump, {"k": 1, "d": 2**63 - 1}))[1] == [True]
    assert run(("false <- F0[$k] = v, v > $d.", {"k": 1, "d": 5}))[1] == [True]
    state, failed = run(("^F1[$k] = v <- v = y, F0@start[$s] = y.", {"k": 0, "s": 1}))
    assert failed == [False] and state["F1"] == {(0,): (10,)}
