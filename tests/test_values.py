import re

import pytest

from txnrepair.pstore import PredicateSig
from txnrepair.txn import _in_signature
from txnrepair.values import (
    BOOL,
    INT64,
    MINK,
    STRING,
    TOP,
    SchemaError,
    conforms,
    literal_tag,
    validate_tuple,
)


def test_sentinel_ordering():
    for v in (0, -(2**62), 2**62, "", "zzz"):
        assert MINK < v < TOP
        assert not v < MINK and not TOP < v
    assert MINK < TOP
    assert MINK == MINK and TOP == TOP


def test_sentinels_sort_inside_tuples():
    rows = [(1, TOP), (1, 5), (1, MINK), (0, TOP)]
    assert sorted(rows) == [(0, TOP), (1, MINK), (1, 5), (1, TOP)]


def test_validate_tuple():
    assert validate_tuple((INT64, STRING), (1, "x"), "t") == (1, "x")
    with pytest.raises(SchemaError):
        validate_tuple((INT64,), ("x",), "t")
    with pytest.raises(SchemaError):
        validate_tuple((INT64,), (1, 2), "t")


def test_int64_range():
    validate_tuple((INT64,), (2**63 - 1,), "t")
    with pytest.raises(SchemaError):
        validate_tuple((INT64,), (2**63,), "t")


def test_bool_is_not_int():
    with pytest.raises(SchemaError):
        validate_tuple((INT64,), (True,), "t")
    assert validate_tuple((BOOL,), (True,), "t") == (True,)


def test_literal_tag():
    assert literal_tag(3) == INT64
    assert literal_tag("s") == STRING
    assert literal_tag(False) == BOOL
    assert literal_tag(-(2**63)) == literal_tag(2**63 - 1) == INT64
    for v in (-(2**63) - 1, 2**63):
        with pytest.raises(SchemaError, match="outside int64"):
            literal_tag(v)


@pytest.mark.parametrize("tags, values, error", [
    ((INT64,), (0,), None),
    ((INT64,), (-(2**63),), None),
    ((INT64,), (2**63 - 1,), None),
    ((INT64,), (-(2**63) - 1,), "component -9223372036854775809 is not of type int64"),
    ((INT64,), (2**63,), "component 9223372036854775808 is not of type int64"),
    ((INT64,), (True,), "component True is not of type int64"),
    ((INT64,), (False,), "component False is not of type int64"),
    ((INT64,), ("1",), "component '1' is not of type int64"),
    ((BOOL,), (False,), None),
    ((BOOL,), (1,), "component 1 is not of type bool"),
    ((STRING,), ("",), None),
    ((STRING,), (1,), "component 1 is not of type string"),
    ((STRING, INT64), ("x", 2**63), "component 9223372036854775808 is not of type int64"),
    ((INT64, INT64), (1,), "arity mismatch: expected 2 elements, got 1"),
    ((INT64,), (1, 2), "arity mismatch: expected 1 elements, got 2"),
    ((), (), None),
    (("float",), (1.0,), "unknown type tag 'float'"),
])
def test_one_type_rule_for_both_callers(tags, values, error):
    """`conforms` is the one type rule: `validate_tuple` raises, naming
    the first mismatch, exactly where it fails, and a transaction's
    signature test of an upserted tuple (`txn._in_signature`, split into
    key and value as the predicate's tags are) agrees with it."""
    assert conforms(tags, values) == (error is None)
    if error is None:
        assert validate_tuple(tags, values, "t") == values
    else:
        with pytest.raises(SchemaError, match=re.escape(error)):
            validate_tuple(tags, values, "t")
    for split in range(len(tags) + 1):
        sig = PredicateSig("p", 0, tags[:split], tags[split:])
        key, value = values[:split], values[split:]
        assert _in_signature(sig, key, value) == (error is None)
