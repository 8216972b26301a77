"""Signal record types and the versioned, change-enumerable container.

Signals connect circuit operators. Each publish creates a new immutable
version; readers can enumerate the exact multiset of record insertions
and removals between any two versions they have seen. Sensitivity
signals are monotone: publishing a removal on one is a contract error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Optional

from . import ptree
from .values import MINK, TOP

DELTA = "delta"
SENS = "sens"
CORR = "corr"

UPSERT = 1
RETRACT = -1


class SignalContractError(Exception):
    pass


@dataclass(frozen=True)
class DeltaRecord:
    """An upsert (+, with value) or retraction (-, value omitted) of a record."""

    pred_id: int
    key: tuple
    value: Optional[tuple]
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "key", tuple(self.key))
        if self.sign == RETRACT:
            object.__setattr__(self, "value", None)
        elif self.value is not None:
            object.__setattr__(self, "value", tuple(self.value))

    def identity(self):
        return (self.pred_id, self.key)


def upsert(pred_id: int, key, value=()) -> DeltaRecord:
    return DeltaRecord(pred_id, tuple(key), tuple(value), UPSERT)


def retract(pred_id: int, key) -> DeltaRecord:
    return DeltaRecord(pred_id, tuple(key), None, RETRACT)


@dataclass(frozen=True)
class SensitivityRecord:
    """Closed interval [lo, hi] of key tuples of one predicate.

    Endpoints are padded to full key arity with MINK/TOP sentinels, so
    elementwise tuple comparison decides membership directly.
    """

    pred_id: int
    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(self.lo))
        object.__setattr__(self, "hi", tuple(self.hi))
        if not self.lo <= self.hi:
            raise SignalContractError(f"interval lo > hi: {self.lo} > {self.hi}")

    def identity(self):
        return (self.pred_id, self.lo, self.hi)

    def contains(self, key: tuple) -> bool:
        return self.lo <= key <= self.hi


def sens_interval(pred_id: int, lo, hi, arity: Optional[int] = None) -> SensitivityRecord:
    lo, hi = tuple(lo), tuple(hi)
    if arity is not None:
        lo = lo + (MINK,) * (arity - len(lo))
        hi = hi + (TOP,) * (arity - len(hi))
    return SensitivityRecord(pred_id, lo, hi)


def _identity(record):
    return record.identity()


class VersionedSignal:
    """Append-revisable ordered record set with version-ids.

    Content per version is a persistent tree keyed by record identity, so
    snapshots are O(1) and iteration is ordered. Version 0 is empty.
    """

    def __init__(self, kind: str, group: str = "", subdomain: str = ""):
        if kind not in (DELTA, SENS, CORR):
            raise ValueError(f"unknown signal kind {kind!r}")
        self.kind = kind
        self.group = group
        self.subdomain = subdomain
        self._roots = [None]
        self._changes = [[]]  # _changes[v]: list of (record, inserted) producing v
        self._lock = threading.Lock()
        self.readers = []  # operators enqueued when this signal changes

    def __repr__(self):
        return f"<signal {self.kind} t={self.group!r} d={self.subdomain!r} v{self.latest}>"

    @property
    def latest(self) -> int:
        return len(self._roots) - 1

    def publish(self, inserts=(), removes=()) -> int:
        """Atomically apply record insertions/removals; returns new version-id.

        Inserting a record whose identity is present with a different
        payload replaces it (recorded as removal + insertion).
        """
        inserts = list(inserts)
        removes = list(removes)
        if self.kind == SENS and removes:
            raise SignalContractError("sensitivity signals are monotone; cannot remove records")
        with self._lock:
            root = self._roots[-1]
            change_list = []
            for rec in removes:
                ident = _identity(rec)
                present = ptree.get(root, ident)
                if present is None:
                    continue
                if present != rec:
                    raise SignalContractError(
                        f"remove of {rec} but signal holds {present}"
                    )
                root = ptree.remove(root, ident)
                change_list.append((rec, False))
            for rec in inserts:
                ident = _identity(rec)
                present = ptree.get(root, ident)
                if present == rec:
                    continue
                if present is not None:
                    if self.kind == SENS:
                        raise SignalContractError(
                            "sensitivity signals are monotone; cannot replace records"
                        )
                    root = ptree.remove(root, ident)
                    change_list.append((present, False))
                root = ptree.insert(root, ident, rec)
                change_list.append((rec, True))
            if not change_list:
                return self.latest
            self._roots.append(root)
            self._changes.append(change_list)
            return self.latest

    def content(self, version: Optional[int] = None):
        v = self.latest if version is None else version
        if not 0 <= v < len(self._roots):
            raise SignalContractError(f"unknown version {v}")
        return self._roots[v]

    def get(self, pred_id: int, key: tuple, version: Optional[int] = None):
        return ptree.get(self.content(version), (pred_id, tuple(key)))

    def get_record(self, rec, version: Optional[int] = None):
        """Stored record with the same identity as rec, or None."""
        return ptree.get(self.content(version), _identity(rec))

    def records(self, version: Optional[int] = None) -> Iterator:
        for _ident, rec in ptree.items(self.content(version)):
            yield rec

    def range_records(self, lo_ident, hi_ident, version: Optional[int] = None):
        """Records with identity in [lo_ident, hi_ident], in order."""
        for ident, rec in ptree.items_from(self.content(version), lo_ident):
            if ident > hi_ident:
                break
            yield rec

    def changes(self, frm: int, to: int):
        """Exact ordered net change list [(record, inserted)] between versions."""
        if not (0 <= frm <= to <= self.latest):
            raise SignalContractError(f"bad version range {frm}..{to} (latest {self.latest})")
        net: dict = {}
        order: dict = {}
        n = 0
        for v in range(frm + 1, to + 1):
            for rec, inserted in self._changes[v]:
                net[rec] = net.get(rec, 0) + (1 if inserted else -1)
                if rec not in order:
                    order[rec] = n
                    n += 1
        out = [(rec, cnt > 0) for rec, cnt in net.items() if cnt != 0]
        out.sort(key=lambda e: (_identity(e[0]), order[e[0]]))
        return out


class SignalCursor:
    """Net-change cache for one (reader, signal) pair.

    pull() returns the net changes since the last pull, so refresh cost
    tracks the change volume, not signal size.
    """

    def __init__(self, signal: VersionedSignal):
        self.signal = signal
        self.version = 0

    def pull(self):
        latest = self.signal.latest
        if latest == self.version:
            return []
        out = self.signal.changes(self.version, latest)
        self.version = latest
        return out
