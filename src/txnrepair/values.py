"""Typed values, key tuples, and ordering sentinels.

Keys flowing through the engine are plain Python tuples whose elements
were validated against a predicate signature on entry, so elementwise
comparison is always within one type. The MINK/TOP sentinels pad
interval endpoints to full arity (MINK below every value, TOP above).
"""

from __future__ import annotations

INT64 = "int64"
STRING = "string"
BOOL = "bool"


class SchemaError(Exception):
    """Arity or type mismatch against a predicate signature."""


class _Sentinel:
    __slots__ = ("_name", "_low")

    def __init__(self, name: str, low: bool):
        self._name = name
        self._low = low

    def __repr__(self):
        return self._name

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash(self._name)

    def __lt__(self, other):
        if other is self:
            return False
        return self._low

    def __gt__(self, other):
        if other is self:
            return False
        return not self._low

    def __le__(self, other):
        return other is self or self._low

    def __ge__(self, other):
        return other is self or not self._low


MINK = _Sentinel("MINK", low=True)
TOP = _Sentinel("TOP", low=False)


def _check_tag(tag: str, payload, what: str) -> None:
    if tag == INT64:
        ok = (
            isinstance(payload, int)
            and not isinstance(payload, bool)
            and -(2**63) <= payload < 2**63
        )
    elif tag == STRING:
        ok = isinstance(payload, str)
    elif tag == BOOL:
        ok = isinstance(payload, bool)
    else:
        raise SchemaError(f"unknown type tag {tag!r}")
    if not ok:
        raise SchemaError(f"{what} component {payload!r} is not of type {tag}")


def validate_tuple(tags, values, what: str) -> tuple:
    """Validate raw payloads against a list of type tags; returns a tuple."""
    values = tuple(values)
    if len(values) != len(tags):
        raise SchemaError(
            f"{what} arity mismatch: expected {len(tags)} elements, got {len(values)}"
        )
    for tag, v in zip(tags, values):
        _check_tag(tag, v, what)
    return values


def literal_tag(value) -> str:
    """The type tag of a literal or bound parameter; an int outside
    int64 is not a value of any type."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        if not -(2**63) <= value < 2**63:
            raise SchemaError(f"integer {value} is outside int64")
        return INT64
    if isinstance(value, str):
        return STRING
    raise SchemaError(f"unsupported literal {value!r}")
