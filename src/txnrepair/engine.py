"""Lock-free scheduler: runs transactions through the repair circuit.

Transactions are admitted in serial order to the leaves of a circuit
tree (one epoch per tree filling). Workers pull refresh work off a
priority queue; an operator's priority is (m, d): m is the earliest
transaction its output serves, so work for earlier transactions drains
first, and d its depth downstream of transaction outputs. Both are read
off the tree position: a transaction at leaf i has m = i, a correction
into node X the first leaf under X, a delta merge the first leaf after
its subtree. Priority mode "inverted" keys on the latest transaction
feeding an operator instead, which is the pathological schedule for
long dependency chains. The queue compares one int per op, the pair
packed as m * K + d with K above every d, which orders ops exactly as
the pair does; it is packed once per transaction count and kept with
the circuit.

The calling thread is one of the workers. Each enters the queue once per
refresh, and only through a non-blocking acquire, so that no worker hands
the queue lock to a thread still waiting for CPython's GIL: that hand-off
makes every refresh alternate threads, a lock convoy (see `_Queue`).
Workers are no faster than one, since the GIL runs one refresh at a time.

The fixpoint of the circuit is schedule independent, so the committed
state is identical for any worker count or tie-breaking choice. At the
fixpoint, the root's delta merge holds the net writes of the epoch's
committed transactions in serial order; the engine commits them with one
`apply_deltas` call per epoch and reads each status off its transaction.

An epoch's fixed cost follows its change volume:

  - The circuit (a domain decomposition from one full scan of the store,
    the tree, its operators, a `TxnOp` for every leaf and the signal ->
    readers map) is built and wired once, at the engine's first epoch,
    and kept for the engine's life. The decomposition splits only delta
    signals by key region; sensitivity and corrections have one signal
    per node. Correctness never depends on the splits: any decomposition
    partitions the domain, so keys that later commits add still land in
    exactly one subdomain. Each epoch starts by
    resetting the circuit: every signal emptied, every cursor rewound,
    every transaction slot cleared, so an epoch that raised leaves
    nothing behind for the next. No signal links to its readers, so
    dropping the engine frees the circuit by reference counting.
  - A refresh returns the outputs its publish changed, and wakes only
    their readers whose output that change can change (`circuit.woken_by`):
    a correction operator sleeps through sensitivity growth while its
    correction inputs are empty.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .circuit import CorrOp, DeltaMergeOp, TxnOp, TreeNode, build_tree, labels, wire_tree, woken_by
from .domain import build_decomposition
from .pstore import DbVersion, Schema, apply_deltas, full_scan
from .txn import EVALUATED, PlanCache, TxnExec

EARLIEST = "earliest"
INVERTED = "inverted"
FAR = 1 << 30  # priority of ops that serve no admitted transaction
DECOMP_SAMPLES = 256  # store points sampled to split the domain


@dataclass
class EngineConfig:
    workers: int = 1
    height: int = 5  # leaf capacity per epoch = 2**height
    priority_mode: str = EARLIEST
    tie_seed: Optional[int] = None  # None breaks ties in queue order


@dataclass
class EngineMetrics:
    txns: int = 0
    failed_txns: int = 0
    epochs: int = 0
    txn_refreshes: int = 0
    op_refreshes: int = 0

    def as_dict(self):
        return dict(self.__dict__)


@dataclass
class EngineReport:
    db: DbVersion
    statuses: list
    metrics: EngineMetrics


class _Queue:
    """Priority refresh queue; an op is never queued or run twice at once.

    Hand-off rule: a worker enters the queue once per refresh (`step`) and
    only through a non-blocking acquire, yielding the interpreter between
    attempts. Under CPython's GIL, a blocking acquire of a contended lock
    hands the lock to a thread that must then wait for the GIL; the
    running worker blocks on the lock at its next refresh, so every
    refresh would alternate threads (a lock convoy). An idle worker waits
    on the condition and is notified only when the queued ops outnumber
    the awake workers, each of which, this one included, takes one at its
    next step; with no idle worker no condition method is called.

    A heap entry is `(key, tie, op)`: the op's packed priority, then the
    tie-break key `tie()` makes at each push: the push's sequence number,
    or with a tie seed a random draw paired with it. Without a tie seed
    both are ints, so ordering two entries compares ints only."""

    def __init__(self, prio, tie, workers):
        self._heap: list = []
        self._prio = prio  # op -> packed priority
        self._tie = tie  # tie-break key factory
        self._state: dict = {}  # op -> "queued" | "running" | "rerun"
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._workers = workers
        self._waiting = 0  # workers in the idle wait not yet notified
        self._active = 0  # ops running
        self._stopped = False

    def _enter(self):
        while not self._lock.acquire(False):
            time.sleep(0)

    def push(self, op):
        """Queue op, or mark it to run once more if it runs; outside `step`,
        only before the workers start."""
        st = self._state.get(op)
        if st == "queued":
            return
        if st in ("running", "rerun"):
            self._state[op] = "rerun"
            return
        self._state[op] = "queued"
        heapq.heappush(self._heap, (self._prio[op], self._tie(), op))

    def stop(self):
        self._enter()
        self._stopped = True
        self._wake(self._waiting)
        self._lock.release()

    def _wake(self, n):
        if n > 0:
            self._waiting -= n
            self._cv.notify(n)

    def step(self, done=None, woken=()):
        """Queue the readers `done`'s refresh woke, finish `done`, and take
        the next op: None when stopped or at the fixpoint, where nothing is
        queued or running."""
        self._enter()
        try:
            for op in woken:
                self.push(op)
            if done is not None:
                self._active -= 1
                if self._state.pop(done) == "rerun":
                    self.push(done)
            while not self._stopped:
                if self._heap:
                    _, _, op = heapq.heappop(self._heap)
                    self._state[op] = "running"
                    self._active += 1
                    awake = self._workers - self._waiting
                    self._wake(min(self._waiting, len(self._heap) - awake))
                    return op
                if self._active == 0:
                    break
                self._waiting += 1
                self._cv.wait()
            self._wake(self._waiting)
            return None
        finally:
            self._lock.release()


def _op_priorities(ops, height, n, mode):
    """(m, d) per op, read off its node's position in the tree. lo(X) and
    hi(X) are the first and last leaves under node X; leaves 0..n-1 hold
    the epoch's transactions. top(X) is X's highest ancestor (or X
    itself) off the spine: its label up to its first "1".

    m is the earliest transaction the op's output (transitively) serves:
    settling transaction g requires exactly the ops with m <= g, so
    draining by ascending m finishes one transaction's corrections before
    starting the next and each transaction repairs at most once. A
    correction into X serves lo(X), a delta merge at X serves hi(X)+1
    through its right sibling's corrections, and a sensitivity merge at
    X the corrections into top(X); an m >= n serves no transaction.
    Inverted mode keys on the latest transaction feeding the op instead
    (serving the newest first maximizes churn): hi(X) for a merge, and
    hi(top(X)) for a correction, which reads the sensitivity of every
    node from X up to top(X). d orders producers before consumers within
    one m: a merge's height, or, for a correction into X, the height of
    top(X) plus one plus the depth of X below top(X)."""

    def lo(label):
        return int(label or "0", 2) << (height - len(label))

    def hi(label):
        return lo(label) + (1 << (height - len(label))) - 1

    def top(label):
        return label[: label.index("1") + 1]

    inverted = mode == INVERTED
    out = {}
    for op in ops:
        x = op.node_label
        if isinstance(op, TxnOp):
            first = last = lo(x)
            d = 0
        elif isinstance(op, CorrOp):
            t = top(x)
            first, last = lo(x), hi(t)
            d = (height - len(t) + 1) + (len(x) - len(t))
        else:
            first = hi(x) + 1 if isinstance(op, DeltaMergeOp) else lo(top(x))
            last = hi(x)
            d = height - len(x)
        m = -min(last, n - 1) if inverted else first
        out[op] = (FAR if m >= n else m, d)
    return out


def _packed(prio):
    """Each op's (m, d) as one int, m * k + d with k above every d: ints
    compare as their pairs do, whatever the sign of m."""
    k = 1 + max((d for _m, d in prio.values()), default=0)
    return {op: m * k + d for op, (m, d) in prio.items()}


@dataclass
class _Circuit:
    """The engine's one wiring of the circuit."""

    root: TreeNode
    ops: list
    readers: dict  # signal -> the ops that read it
    txn_ops: list  # one per leaf, in leaf order
    prio: dict = field(default_factory=dict)  # transaction count -> packed priorities


class Engine:
    def __init__(self, schema: Schema, base: DbVersion, config: Optional[EngineConfig] = None):
        self.schema = schema
        self.db = base
        self.config = config or EngineConfig()
        if self.config.priority_mode not in (EARLIEST, INVERTED):
            raise ValueError(f"unknown priority mode {self.config.priority_mode!r}")
        if self.config.height < 0:
            raise ValueError(f"negative tree height {self.config.height}")
        if self.config.workers < 1:
            raise ValueError(f"worker count {self.config.workers} is below 1")
        self.metrics = EngineMetrics()
        self._circuit: Optional[_Circuit] = None
        self._plans = PlanCache()  # shared by every transaction the engine runs

    def run(self, txns) -> EngineReport:
        """txns: list of parsed rule lists, in serial order; no
        transactions run no epoch."""
        statuses = []
        cap = 2 ** self.config.height
        for lo in range(0, len(txns), cap):
            statuses.extend(self._run_epoch(txns[lo : lo + cap], first_id=lo))
        self.metrics.txns += len(txns)
        self.metrics.failed_txns += sum(1 for s in statuses if s != EVALUATED)
        return EngineReport(db=self.db, statuses=statuses, metrics=self.metrics)

    def _wired(self) -> _Circuit:
        """The circuit, reset for an epoch; the first epoch wires it over a
        decomposition of the store's key set, sampled from one scan."""
        circ = self._circuit
        if circ is None:
            pts = [(pred_id, key) for pred_id, key, _value in full_scan(self.db, self.schema)]
            if len(pts) > DECOMP_SAMPLES:
                stride = len(pts) / DECOMP_SAMPLES
                pts = [pts[int(i * stride)] for i in range(DECOMP_SAMPLES)]
            root = build_tree(self.config.height)
            ops, readers = wire_tree(root, build_decomposition(pts, self.config.height))
            txn_ops = [op for op in ops if isinstance(op, TxnOp)]
            circ = self._circuit = _Circuit(root, ops, readers, txn_ops)
        for op in circ.ops:
            op.reset()
        for op in circ.txn_ops:
            op.leaf.txn = None
            op.base = self.db
        return circ

    def _run_epoch(self, chunk, first_id=0):
        self.metrics.epochs += 1
        cfg = self.config
        circ = self._wired()
        txn_ops = circ.txn_ops[: len(chunk)]
        for i, (op, rules) in enumerate(zip(txn_ops, chunk)):
            op.leaf.txn = TxnExec(self.schema, rules, txn_id=first_id + i, plans=self._plans)

        prio = circ.prio.get(len(chunk))
        if prio is None:
            prio = circ.prio[len(chunk)] = _packed(_op_priorities(
                circ.ops, cfg.height, len(chunk), cfg.priority_mode))
        seq = itertools.count()
        if cfg.tie_seed is not None:
            rng = random.Random(cfg.tie_seed * 1_000_003 + first_id)
            tie = lambda: (rng.random(), next(seq))
        else:
            tie = seq.__next__
        queue = _Queue(prio, tie, cfg.workers)
        readers = circ.readers

        errors: list = []
        counts: list = []  # (op refreshes, txn refreshes) per worker

        def work():
            op_refreshes = txn_refreshes = 0
            op, woken = None, ()
            while True:
                op = queue.step(op, woken)
                if op is None:
                    counts.append((op_refreshes, txn_refreshes))
                    return
                try:
                    changed = op.refresh()
                    op_refreshes += 1
                    if isinstance(op, TxnOp):
                        txn_refreshes += 1
                    woken = woken_by(changed, readers)
                except BaseException as exc:  # the next step still finishes op
                    errors.append(exc)
                    woken = ()
                    queue.stop()

        for op in txn_ops:
            queue.push(op)
        threads = [threading.Thread(target=work) for _ in range(cfg.workers - 1)]
        for t in threads:
            t.start()
        work()  # the calling thread is one of the workers
        for t in threads:
            t.join()
        for op_refreshes, txn_refreshes in counts:
            self.metrics.op_refreshes += op_refreshes
            self.metrics.txn_refreshes += txn_refreshes
        if errors:
            raise errors[0]

        # fixpoint reached: the root's delta merge is the epoch's net write
        # set, committed in one call
        root = circ.root
        changes = [item for d in labels(cfg.height) for item in root.delta[d].items()]
        self.db = apply_deltas(self.db, self.schema, changes)
        return [op.leaf.txn.status for op in txn_ops]
