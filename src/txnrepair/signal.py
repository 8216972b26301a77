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
reports, in identity order, the identities it changed; the log keeps
that list as one run. A reader keeps the number of runs it has read and
the root it took at its last pull; a pull takes the current root and
returns the identities logged since, in order and each once, even one
changed back, since a reader's own publish drops what does not move its
output. A pull that spans one run returns a copy of it, and only a pull
over several runs sorts. A relation's value is `()`, which is falsy, so
absence is always tested with `is None`. Sensitivity signals are
monotone: publishing a removal or a replacement on one is a contract
error.
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
    changes the content appends the identities it changed to the log, as
    one sorted run; `latest` counts the logged identities, so it moves
    exactly when the content changes.
    """

    def __init__(self, kind: str):
        if kind not in (DELTA, SENS, CORR):
            raise ValueError(f"unknown signal kind {kind!r}")
        self.kind = kind
        self._root = None
        self._runs = []  # per publish that changed the content: what it changed, in order
        self._count = 0  # identities in the runs
        self._lock = threading.Lock()

    def __repr__(self):
        return f"<signal {self.kind} v{self.latest}>"

    @property
    def latest(self) -> int:
        return self._count

    def reset(self):
        """Drop the content and the log; readers must reset too."""
        self._root = None
        self._runs = []
        self._count = 0

    def publish(self, inserts=(), removes=()) -> int:
        """Atomically set each `(identity, value)` of `inserts`, after
        dropping each identity of `removes`; returns `latest`. A publish
        handed nothing changes nothing, so it returns at once."""
        inserts, removes = list(inserts), list(removes)
        if not inserts and not removes:
            return self._count
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
                self._runs.append([ident for ident, _old in changed])
                self._count += len(changed)
            return self._count

    @property
    def empty(self) -> bool:
        """True when the signal holds no identity."""
        return self._root is None

    def items(self):
        """(identity, value) pairs, in identity order."""
        return ptree.items(self._root)


class SignalCursor:
    """One reader's position in a signal: the number of log runs read
    and the root it took at its last pull.

    pull() returns the identities logged since the previous pull, in
    identity order, so refresh cost tracks the change volume, not signal
    size. A reader reads values from the pulled root (`get`, `within`),
    never from the signal's current content, so a refresh computes from
    one version of each input: a value read past that root belongs to a
    publish the next pull names again, so reading it early saves no work
    and can mix two versions of one input.
    """

    def __init__(self, signal: VersionedSignal):
        self.signal = signal
        self.reset()

    def reset(self):
        self.offset = 0
        self.root = None

    def pull(self) -> list:
        """The identities changed since the last pull, each once and in
        order, as a list the caller owns."""
        sig = self.signal
        if len(sig._runs) == self.offset:
            return []
        with sig._lock:  # a new offset must never pair with an old root
            self.root = sig._root
            runs = sig._runs[self.offset :]
            self.offset = len(sig._runs)
        if len(runs) == 1:
            return runs[0][:]  # the log's run stays as it was
        return sorted(set().union(*runs))

    def get(self, ident: tuple):
        """Value at this identity in the pulled root, or None."""
        return ptree.get(self.root, ident)

    def within(self, bounds):
        """The (identity, value) pairs of the pulled root inside any
        closed interval `(lo, hi)` of `bounds`, which are sorted by `lo`:
        each once, in order. One cursor walks forward through them and
        never moves back, so overlapping and nested intervals cost no
        second scan."""
        cur = ptree.Cursor(self.root)
        for lo, hi in bounds:
            cur.seek(lo)
            while not cur.at_end and cur.key <= hi:
                yield cur.key, cur.val
                cur.next()
            if cur.at_end:
                return
