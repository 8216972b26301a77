import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from txnrepair.pstore import (
    DbVersion,
    PredicateSig,
    Schema,
    apply_deltas,
    export_snapshot,
    full_scan,
    store_lookup,
    store_upsert,
)
from txnrepair.values import INT64, STRING, SchemaError


@pytest.fixture
def schema():
    return Schema.from_sigs([
        PredicateSig("bal", 0, (INT64,), (INT64,)),
        PredicateSig("tag", 1, (STRING,)),
    ])


def test_schema_lookup(schema):
    assert schema.sig("bal").pred_id == 0
    assert schema.sig_by_id(1).name == "tag"
    assert "bal" in schema and "nope" not in schema
    with pytest.raises(SchemaError):
        schema.sig("nope")
    with pytest.raises(SchemaError, match="unknown predicate id 7"):
        schema.sig_by_id(7)


def test_schema_rejects_duplicates():
    with pytest.raises(SchemaError):
        Schema.from_sigs([
            PredicateSig("p", 0, (INT64,)),
            PredicateSig("p", 1, (INT64,)),
        ])
    with pytest.raises(SchemaError, match="predicates a and b share pred_id 0"):
        Schema.from_sigs([
            PredicateSig("a", 0, (INT64,)),
            PredicateSig("b", 0, (INT64,)),
        ])


def test_snapshots_are_immutable(schema):
    db0 = DbVersion()
    db1 = store_upsert(db0, schema.sig("bal"), (1,), (10,))
    db2 = store_upsert(db1, schema.sig("bal"), (1,), (20,))
    assert store_lookup(db0, schema.sig("bal"), (1,)) is None
    assert store_lookup(db1, schema.sig("bal"), (1,)) == (10,)
    assert store_lookup(db2, schema.sig("bal"), (1,)) == (20,)


def test_type_checks(schema):
    with pytest.raises(SchemaError):
        store_upsert(DbVersion(), schema.sig("bal"), ("x",), (1,))
    with pytest.raises(SchemaError):
        store_upsert(DbVersion(), schema.sig("bal"), (1,), ("x",))


@pytest.mark.parametrize("key,value,message", [
    (("x",), (1,), r"^bal key component 'x' is not of type int64$"),
    ((1, 2), (1,), r"^bal key arity mismatch: expected 1 elements, got 2$"),
    ((1,), ("x",), r"^bal value component 'x' is not of type int64$"),
    ((1,), (), r"^bal value arity mismatch: expected 1 elements, got 0$"),
], ids=["key_type", "key_arity", "value_type", "value_arity"])
def test_schema_errors_name_the_predicate_and_part(schema, key, value, message):
    """A bad key or value names its predicate and which part is bad, at
    an upsert and at a commit alike."""
    with pytest.raises(SchemaError, match=message):
        store_upsert(DbVersion(), schema.sig("bal"), key, value)
    with pytest.raises(SchemaError, match=message):
        apply_deltas(DbVersion(), schema, [((0, key), value)])


def test_relation_records_have_empty_value(schema):
    db = store_upsert(DbVersion(), schema.sig("tag"), ("a",))
    assert store_lookup(db, schema.sig("tag"), ("a",)) == ()


@given(st.dictionaries(st.integers(0, 50), st.integers(0, 9), max_size=25))
def test_export_import_round_trip(entries):
    schema = Schema.from_sigs([PredicateSig("bal", 0, (INT64,), (INT64,))])
    db = DbVersion()
    for k, v in entries.items():
        db = store_upsert(db, schema.sig("bal"), (k,), (v,))
    text = export_snapshot(db, schema)
    parsed = []
    for line in text.splitlines():
        name, key_json, value_json = line.split("\t")
        parsed.append((schema.sig(name).pred_id, tuple(json.loads(key_json)),
                       tuple(json.loads(value_json))))
    assert parsed == list(full_scan(db, schema))
    assert parsed == [(0, (k,), (v,)) for k, v in sorted(entries.items())]


def test_apply_deltas(schema):
    db = store_upsert(DbVersion(), schema.sig("bal"), (1,), (10,))
    db2 = apply_deltas(db, schema, [
        ((0, (2,)), (4,)),
        ((0, (1,)), (11,)),
        ((0, (2,)), (5,)),  # a later upsert of a key wins
        ((1, ("a",)), ()),  # a relation record
    ])
    assert store_lookup(db2, schema.sig("bal"), (1,)) == (11,)
    assert store_lookup(db2, schema.sig("bal"), (2,)) == (5,)
    assert store_lookup(db2, schema.sig("tag"), ("a",)) == ()
    # source branch unchanged
    assert store_lookup(db, schema.sig("bal"), (1,)) == (10,)
    assert store_lookup(db, schema.sig("bal"), (2,)) is None


@pytest.mark.parametrize("bad,error", [
    (((0, (1,)), (2**63,)), SchemaError),  # value out of int64 range
    (((0, (1, 2)), (5,)), SchemaError),  # key of the wrong arity
    (((1, (7,)), ()), SchemaError),  # key of the wrong type
    (((0, (1,)), None), ValueError),  # a removal: the commit takes upserts only
    (((7, (1,)), (2,)), SchemaError),  # no predicate has id 7
], ids=["int64_overflow", "key_arity", "key_type", "removal", "unknown_pred"])
def test_apply_deltas_checks_the_signature(schema, bad, error):
    db = store_upsert(DbVersion(), schema.sig("bal"), (1,), (10,))
    before = list(full_scan(db, schema))
    with pytest.raises(error):
        apply_deltas(db, schema, [((0, (2,)), (5,)), bad])
    assert list(full_scan(db, schema)) == before


def test_full_scan_order():
    schema = Schema.from_sigs([
        PredicateSig("b", 7, (INT64,)),
        PredicateSig("a", 3, (INT64,)),
    ])
    db = DbVersion()
    db = store_upsert(db, schema.sig("b"), (1,))
    db = store_upsert(db, schema.sig("a"), (2,))
    assert [p for p, _, _ in full_scan(db, schema)] == [3, 7]
