"""Signals: the persistent maps that circuit operators share.

A signal maps an identity to a value tuple, the convention the store
uses for a predicate. Delta and correction signals map a record identity
`(pred_id, key)` to the record's value. Sensitivity signals map a closed
interval `(pred_id, lo, hi)` of one predicate's keys to `()`, just as a
relation maps a key to `()`; the endpoints are padded to full key arity
with MINK/TOP sentinels, so tuple comparison decides membership.

A signal holds its content as one persistent B-tree, plus a log of the
identities each publish changed. A publish folds its removals and
insertions into one sorted run and applies it in one descent
(`ptree.update`), which copies only the nodes the run lands in and
reports the identities it changed. A reader keeps its offset into the
log and the root it took at its last pull; a pull takes the current
root and returns the identities logged since, even one changed back,
since a reader's own publish drops what does not move its output. A
relation's value is `()`, which is falsy, so absence is always tested
with `is None`. Sensitivity signals are monotone: publishing a removal
or a replacement on one is a contract error.
"""

from __future__ import annotations

import threading

from . import ptree

DELTA = "delta"
SENS = "sens"
CORR = "corr"


class SignalContractError(Exception):
    pass


class VersionedSignal:
    """Persistent map from identity to value, with a change log.

    A reader's snapshot is just the root it saw. Each publish that
    changes the content appends the identities it changed to the log;
    `latest` is the log length, which moves exactly when the content
    changes.
    """

    def __init__(self, kind: str):
        if kind not in (DELTA, SENS, CORR):
            raise ValueError(f"unknown signal kind {kind!r}")
        self.kind = kind
        self._root = None
        self._log = []  # identities changed, publish after publish
        self._lock = threading.Lock()

    def __repr__(self):
        return f"<signal {self.kind} v{self.latest}>"

    @property
    def latest(self) -> int:
        return len(self._log)

    def reset(self):
        """Drop the content and the log; readers must reset too."""
        self._root = None
        self._log = []

    def publish(self, inserts=(), removes=()) -> int:
        """Atomically set each `(identity, value)` of `inserts`, after
        dropping each identity of `removes`; returns `latest`."""
        inserts, removes = list(inserts), list(removes)
        if self.kind == SENS:
            if removes:
                raise SignalContractError("sensitivity signals are monotone; cannot remove")
            for (_pred_id, lo, hi), _value in inserts:
                if not lo <= hi:
                    raise SignalContractError(f"interval lo > hi: {lo} > {hi}")
        final = dict.fromkeys(removes)  # identity -> value it ends with
        final.update(inserts)
        pairs = sorted(final.items())
        with self._lock:
            root, changed = ptree.update(self._root, pairs)
            if changed:
                if self.kind == SENS and any(old is not None for _i, old in changed):
                    raise SignalContractError("sensitivity signals are monotone; cannot replace")
                self._root = root
                self._log += [ident for ident, _old in changed]
            return len(self._log)

    @property
    def empty(self) -> bool:
        """True when the signal holds no identity."""
        return self._root is None

    def items(self):
        """(identity, value) pairs, in identity order."""
        return ptree.items(self._root)


class SignalCursor:
    """One reader's position in a signal: a log offset and the root it
    took at its last pull.

    pull() returns the identities logged since the previous pull, in
    identity order, so refresh cost tracks the change volume, not signal
    size. A reader reads values from the pulled root (`get`,
    `range_idents`), never from the signal's current content, so a
    refresh computes from one version of each input: a value read past
    that root belongs to a publish the next pull names again, so reading
    it early saves no work and can mix two versions of one input.
    """

    def __init__(self, signal: VersionedSignal):
        self.signal = signal
        self.reset()

    def reset(self):
        self.offset = 0
        self.root = None

    def pull(self):
        sig = self.signal
        if len(sig._log) == self.offset:
            return []
        with sig._lock:  # a new offset must never pair with an old root
            self.root = sig._root
            idents = set(sig._log[self.offset :])
            self.offset = len(sig._log)
        return sorted(idents)

    def get(self, ident: tuple):
        """Value at this identity in the pulled root, or None."""
        return ptree.get(self.root, ident)

    def range_idents(self, lo_ident, hi_ident):
        """Identities in [lo_ident, hi_ident] of the pulled root, in order."""
        for ident, _value in ptree.items_from(self.root, lo_ident):
            if ident > hi_ident:
                break
            yield ident
