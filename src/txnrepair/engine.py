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
long dependency chains.

The fixpoint of the circuit is schedule independent, so the committed
state is identical for any worker count or tie-breaking choice.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
from dataclasses import dataclass
from typing import Optional

from .circuit import CorrOp, DeltaMergeOp, TxnOp, build_tree, wire_tree
from .domain import build_decomposition, point
from .pstore import DbVersion, Schema, apply_deltas, full_scan
from .txn import EVALUATED, TxnExec

EARLIEST = "earliest"
INVERTED = "inverted"
FAR = 1 << 30  # priority of ops that serve no admitted transaction
DECOMP_SAMPLES = 256  # store points sampled per epoch to split the domain


@dataclass
class EngineConfig:
    workers: int = 1
    height: int = 5  # leaf capacity per epoch = 2**height
    priority_mode: str = EARLIEST
    randomize_ties: bool = False
    seed: int = 0


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
    """Priority refresh queue; an op is never queued or run twice at once."""

    def __init__(self, prio, tie):
        self._heap: list = []
        self._prio = prio  # op -> priority tuple
        self._tie = tie  # op -> tie-break key factory
        self._state: dict = {}  # op -> "queued" | "running" | "rerun"
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._active = 0
        self._stopped = False

    def stop(self):
        with self._lock:
            self._stopped = True
            self._cv.notify_all()

    def push(self, op):
        with self._lock:
            st = self._state.get(op)
            if st == "queued":
                return
            if st in ("running", "rerun"):
                self._state[op] = "rerun"
                return
            self._state[op] = "queued"
            heapq.heappush(self._heap, (self._prio[op], self._tie(), op))
            self._cv.notify()

    def pop(self):
        """Next op, or None when the fixpoint is reached."""
        with self._lock:
            while True:
                if self._stopped:
                    return None
                if self._heap:
                    _, _, op = heapq.heappop(self._heap)
                    self._state[op] = "running"
                    self._active += 1
                    return op
                if self._active == 0:
                    self._cv.notify_all()
                    return None
                self._cv.wait()

    def done(self, op):
        with self._lock:
            self._active -= 1
            if self._state.get(op) == "rerun":
                self._state[op] = "queued"
                heapq.heappush(self._heap, (self._prio[op], self._tie(), op))
            else:
                self._state.pop(op, None)
            self._cv.notify_all()


def _op_priorities(ops, height, n, mode):
    """(m, d) per op, read off its node's position in the tree. lo(X) and
    hi(X) are the first and last leaves under node X; leaves 0..n-1 hold
    the epoch's transactions.

    m is the earliest transaction the op's output (transitively) serves:
    settling transaction g requires exactly the ops with m <= g, so
    draining by ascending m finishes one transaction's corrections before
    starting the next and each transaction repairs at most once. A
    correction into X serves lo(X), a delta merge at X serves hi(X)+1
    through its right sibling's corrections, and a sensitivity merge the
    corrections into its root half; an m >= n serves no transaction.
    Inverted mode keys on the latest transaction feeding the op instead
    (serving the newest first maximizes churn). d orders producers before
    consumers within one m: a merge's height, or height+t-1 for a
    correction into a node at depth t."""

    def lo(label):
        return int(label or "0", 2) << (height - len(label))

    def hi(label):
        return lo(label) + (1 << (height - len(label))) - 1

    inverted = mode == INVERTED
    out = {}
    for op in ops:
        x = op.node_label
        if isinstance(op, TxnOp):
            out[op] = (-lo(x) if inverted else lo(x), 0)
            continue
        if isinstance(op, CorrOp):
            d = height + len(x) - 1
            m = -min(hi(x[:1]), n - 1) if inverted else lo(x)
        else:
            d = height - len(x)
            if inverted:
                m = -min(hi(x), n - 1)
            elif isinstance(op, DeltaMergeOp):
                m = hi(x) + 1
            else:
                m = lo(x[:1]) if x else FAR
        out[op] = (FAR if m >= n else m, d)
    return out


class Engine:
    def __init__(self, schema: Schema, base: DbVersion, config: Optional[EngineConfig] = None):
        self.schema = schema
        self.db = base
        self.config = config or EngineConfig()
        self.metrics = EngineMetrics()

    def _decomposition(self):
        pts = []
        for pred_id, key, _value in full_scan(self.db, self.schema):
            pts.append(point(pred_id, key))
        if len(pts) > DECOMP_SAMPLES:
            stride = len(pts) / DECOMP_SAMPLES
            pts = [pts[int(i * stride)] for i in range(DECOMP_SAMPLES)]
        return build_decomposition(pts, self.config.height)

    def run(self, txns) -> EngineReport:
        """txns: list of parsed rule lists, in serial order."""
        statuses = []
        cap = 2 ** self.config.height
        for lo in range(0, max(len(txns), 1), cap):
            chunk = txns[lo : lo + cap]
            if not chunk and lo > 0:
                break
            statuses.extend(self._run_epoch(chunk, first_id=lo))
        self.metrics.txns += len(txns)
        self.metrics.failed_txns += sum(1 for s in statuses if s != EVALUATED)
        return EngineReport(db=self.db, statuses=statuses, metrics=self.metrics)

    def _run_epoch(self, chunk, first_id=0):
        self.metrics.epochs += 1
        cfg = self.config
        decomp = self._decomposition()
        root = build_tree(cfg.height)
        ops = list(wire_tree(root, decomp))
        leaves = list(root.leaves())
        txn_ops = []
        for i, rules in enumerate(chunk):
            leaf = leaves[i]
            leaf.txn = TxnExec(self.schema, rules, txn_id=first_id + i)
            op = TxnOp(leaf, self.db)
            ops.append(op)
            txn_ops.append(op)

        prio = _op_priorities(ops, cfg.height, len(chunk), cfg.priority_mode)
        seq = itertools.count()
        if cfg.randomize_ties:
            rng = random.Random(cfg.seed * 1_000_003 + first_id)
            tie = lambda: (rng.random(), next(seq))
        else:
            tie = lambda: (0.0, next(seq))
        queue = _Queue(prio, tie)

        errors: list = []
        counts: list = []  # (op refreshes, txn refreshes) per worker

        def work():
            op_refreshes = txn_refreshes = 0
            while True:
                op = queue.pop()
                if op is None:
                    counts.append((op_refreshes, txn_refreshes))
                    return
                try:
                    changed = op.refresh()
                    op_refreshes += 1
                    if isinstance(op, TxnOp):
                        txn_refreshes += 1
                    if changed:
                        for sig in op.output_signals:
                            for reader in list(sig.readers):
                                queue.push(reader)
                except BaseException as exc:  # keep done() paired with pop()
                    errors.append(exc)
                    queue.stop()
                finally:
                    queue.done(op)

        for op in txn_ops:
            queue.push(op)
        if cfg.workers <= 1:
            work()
        else:
            threads = [threading.Thread(target=work) for _ in range(cfg.workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for op_refreshes, txn_refreshes in counts:
            self.metrics.op_refreshes += op_refreshes
            self.metrics.txn_refreshes += txn_refreshes
        if errors:
            raise errors[0]

        # fixpoint reached: finalize every leaf in serial order and commit
        statuses = []
        for leaf in leaves:
            if leaf.txn is None:
                continue
            out = leaf.txn.outputs()
            statuses.append(out.status)
            if out.status == EVALUATED:
                self.db = apply_deltas(self.db, self.schema, out.deltas)
        return statuses
