"""Persistent, versioned predicate storage.

A DbVersion is an immutable snapshot mapping each predicate to the root
of a persistent B-tree (`ptree`) from key tuple to value tuple (`()` for
a relation). Branching is O(1) (reuse the snapshot); updates copy the
nodes they touch and return a new DbVersion, so any previously obtained
version replays to identical scans forever. The commit, `apply_deltas`, takes changes in
the signal format, `((pred_id, key), value)`, and checks each against
its predicate's signature.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import ptree
from .values import SchemaError, validate_tuple


@dataclass(frozen=True)
class PredicateSig:
    name: str
    pred_id: int
    key_types: tuple
    value_types: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "key_types", tuple(self.key_types))
        object.__setattr__(self, "value_types", tuple(self.value_types))

    @property
    def is_relation(self) -> bool:
        return len(self.value_types) == 0

    @property
    def arity(self) -> int:
        return len(self.key_types)

    # Both checks run on every upsert, so the predicate's name is put
    # into the message only when one raises.
    def check_key(self, key) -> tuple:
        try:
            return validate_tuple(self.key_types, key, "key")
        except SchemaError as e:
            raise SchemaError(f"{self.name} {e}") from None

    def check_value(self, value) -> tuple:
        try:
            return validate_tuple(self.value_types, value, "value")
        except SchemaError as e:
            raise SchemaError(f"{self.name} {e}") from None


@dataclass(frozen=True)
class Schema:
    predicates: tuple

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(self.predicates))
        by_name = {}
        by_id = {}
        for sig in self.predicates:
            if sig.name in by_name:
                raise SchemaError(f"duplicate predicate {sig.name}")
            if sig.pred_id in by_id:
                raise SchemaError(
                    f"predicates {by_id[sig.pred_id].name} and {sig.name} share pred_id {sig.pred_id}"
                )
            by_name[sig.name] = sig
            by_id[sig.pred_id] = sig
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_by_id", by_id)

    def sig(self, name: str) -> PredicateSig:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown predicate {name}") from None

    def sig_by_id(self, pred_id: int) -> PredicateSig:
        try:
            return self._by_id[pred_id]
        except KeyError:
            raise SchemaError(f"unknown predicate id {pred_id}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @staticmethod
    def from_sigs(sigs: Iterable[PredicateSig]) -> "Schema":
        return Schema(tuple(sigs))


@dataclass(frozen=True)
class DbVersion:
    """Immutable database snapshot; safe to share across workers."""

    roots: dict = field(default_factory=dict)  # pred_id -> ptree root

    def root(self, pred_id: int):
        return self.roots.get(pred_id)


def store_upsert(db: DbVersion, sig: PredicateSig, key, value=()) -> DbVersion:
    key = sig.check_key(key)
    value = sig.check_value(value)
    return DbVersion({**db.roots, sig.pred_id: ptree.insert(db.root(sig.pred_id), key, value)})


def store_lookup(db: DbVersion, sig: PredicateSig, key):
    """Value tuple for key, or None if absent. Relations return () when present."""
    key = sig.check_key(key)
    return ptree.get(db.root(sig.pred_id), key)


def store_scan(db: DbVersion, sig: PredicateSig) -> Iterator[tuple]:
    return ptree.items(db.root(sig.pred_id))


def full_scan(db: DbVersion, schema: Schema) -> Iterator[tuple]:
    """All records in (pred_id, key) order: yields (pred_id, key, value)."""
    for sig in sorted(schema.predicates, key=lambda s: s.pred_id):
        for key, value in store_scan(db, sig):
            yield sig.pred_id, key, value


def apply_deltas(db: DbVersion, schema: Schema, changes) -> DbVersion:
    """Upsert each `((pred_id, key), value)` of `changes` into a branch of
    db, checking key and value against the predicate's signature. Every
    change is checked before any is applied; then each predicate takes
    its upserts in one `ptree.update` descent, a later upsert of a key
    winning. It never removes a key, so the key set only grows."""
    upserts = defaultdict(dict)  # pred_id -> {key: value}
    for (pred_id, key), value in changes:
        if value is None:
            raise ValueError(f"apply_deltas takes upserts only, got a removal of {key}")
        sig = schema.sig_by_id(pred_id)
        sig.check_key(key)
        sig.check_value(value)
        upserts[pred_id][key] = value
    roots = dict(db.roots)
    for pred_id, by_key in upserts.items():
        roots[pred_id], _changed = ptree.update(roots.get(pred_id), sorted(by_key.items()))
    return DbVersion(roots)


def export_snapshot(db: DbVersion, schema: Schema) -> str:
    """Line-delimited `pred_name<TAB>key_json<TAB>value_json` records."""
    lines = []
    for pred_id, key, value in full_scan(db, schema):
        sig = schema.sig_by_id(pred_id)
        lines.append(f"{sig.name}\t{json.dumps(list(key))}\t{json.dumps(list(value))}")
    return "\n".join(lines) + ("\n" if lines else "")

