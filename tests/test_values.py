import pytest

from txnrepair.values import (
    BOOL,
    INT64,
    MINK,
    STRING,
    TOP,
    SchemaError,
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
