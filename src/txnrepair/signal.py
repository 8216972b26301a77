"""Signal record types and the signal container that circuit operators share.

Signals connect circuit operators. A signal holds its current content as
one persistent tree keyed by record identity, plus a log of the
identities each publish changed. A reader keeps its offset into the log
and the root it saw last; a pull compares that root with the current one
at each identity logged since, and returns each identity whose record
changed with its current record, or None when it is gone. Sensitivity
signals are monotone: publishing a removal or a replacement on one is a
contract error.
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


class VersionedSignal:
    """Ordered record set with a change log.

    The content is one persistent tree keyed by record identity, so a
    reader's snapshot is just the root it saw. Each publish that changes
    the content appends the identities it changed to the log; `latest`
    is the log length, which moves exactly when the content changes.
    """

    def __init__(self, kind: str):
        if kind not in (DELTA, SENS, CORR):
            raise ValueError(f"unknown signal kind {kind!r}")
        self.kind = kind
        self._root = None
        self._log = []  # identities changed, publish after publish
        self._lock = threading.Lock()
        self.readers = []  # operators enqueued when this signal changes

    def __repr__(self):
        return f"<signal {self.kind} v{self.latest}>"

    @property
    def latest(self) -> int:
        return len(self._log)

    def publish(self, inserts=(), removes=()) -> int:
        """Atomically apply record insertions/removals; returns `latest`.

        Inserting a record whose identity is present with a different
        payload replaces it.
        """
        if self.kind == SENS and removes:
            raise SignalContractError("sensitivity signals are monotone; cannot remove records")
        with self._lock:
            root = self._root
            before = {}  # identity -> record held before its first change
            for rec in removes:
                ident = rec.identity()
                present = ptree.get(root, ident)
                if present is None:
                    continue
                if present != rec:
                    raise SignalContractError(f"remove of {rec} but signal holds {present}")
                before.setdefault(ident, present)
                root = ptree.remove(root, ident)
            for rec in inserts:
                ident = rec.identity()
                present = ptree.get(root, ident)
                if present == rec:
                    continue
                if present is not None and self.kind == SENS:
                    raise SignalContractError(
                        "sensitivity signals are monotone; cannot replace records"
                    )
                before.setdefault(ident, present)
                root = ptree.insert(root, ident, rec)
            changed = [i for i, rec in before.items() if ptree.get(root, i) != rec]
            if changed:
                self._root = root
                self._log.extend(changed)
            return len(self._log)

    def get(self, ident: tuple):
        """Stored record with this identity, or None."""
        return ptree.get(self._root, ident)

    def records(self) -> Iterator:
        for _ident, rec in ptree.items(self._root):
            yield rec

    def range_records(self, lo_ident, hi_ident):
        """Records with identity in [lo_ident, hi_ident], in order."""
        for ident, rec in ptree.items_from(self._root, lo_ident):
            if ident > hi_ident:
                break
            yield rec


class SignalCursor:
    """One reader's position in a signal: a log offset and the root it
    saw at its last pull.

    pull() returns each identity whose record differs from that root,
    paired with its current record (None when absent), in identity
    order, so refresh cost tracks the change volume, not signal size.
    """

    def __init__(self, signal: VersionedSignal):
        self.signal = signal
        self.offset = 0
        self.root = None

    def pull(self):
        sig = self.signal
        if len(sig._log) == self.offset:
            return []
        with sig._lock:  # a new offset must never pair with an old root
            root = sig._root
            idents = set(sig._log[self.offset :])
            self.offset = len(sig._log)
        old, self.root = self.root, root
        out = []
        for ident in sorted(idents):
            rec = ptree.get(root, ident)
            if rec != ptree.get(old, ident):
                out.append((ident, rec))
        return out
