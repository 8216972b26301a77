"""Signal properties: pull composition and monotonicity."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txnrepair import signal
from txnrepair.signal import SignalContractError, SignalCursor, VersionedSignal
from txnrepair.values import MINK, TOP

# batches of delta publishes over a small identity space; a value of ()
# is a relation record, which is falsy but present
idents = st.integers(0, 8).map(lambda k: (0, (k,)))
delta_items = st.tuples(idents, st.one_of(st.just(()), st.tuples(st.integers(0, 4))))
# each batch: (identity, value) pairs to set, and identities to remove
publish_batches = st.lists(
    st.tuples(st.lists(delta_items, max_size=5), st.lists(idents, max_size=3)),
    min_size=1,
    max_size=10,
)


def _content(sig):
    return dict(sig.items())


def _apply(replay, cur):
    """Pull once and fold into `replay` each named identity's value in
    the pulled root; returns the identities the pull named."""
    idents = cur.pull()
    for ident in idents:
        value = cur.get(ident)
        if value is None:
            replay.pop(ident, None)
        else:
            replay[ident] = value
    return idents


def _replay_pull(cur, replay, logged):
    """Apply one pull to `replay`, checking that it names, in identity
    order, exactly the identities some publish changed since `replay`
    (`logged`, which it then clears), and that reading them from the
    pulled root reproduces the content."""
    now = _content(cur.signal)
    idents = _apply(replay, cur)
    assert idents == sorted(logged)
    assert replay == now
    logged.clear()


@given(publish_batches, st.data())
@settings(max_examples=300)
def test_change_composition(batches, data):
    """Pulls compose: a cursor that pulls at arbitrary points between
    publishes and one that pulls only at the end both replay, from empty,
    to the signal's content, each pull naming exactly the identities
    some publish changed since the previous pull; `latest` moves exactly
    when content does.
    The content is a dict's after the same removals, then insertions."""
    sig = VersionedSignal("delta")
    often, once = SignalCursor(sig), SignalCursor(sig)
    replay, model = {}, {}
    often_log, once_log = set(), set()
    for inserts, removes in batches:
        before, v0 = _content(sig), sig.latest
        assert (sig.publish(inserts, removes) != v0) == (_content(sig) != before)
        for ident in removes:
            model.pop(ident, None)
        model.update(inserts)
        assert _content(sig) == model
        moved = {i for i in set(before) | set(model) if before.get(i) != model.get(i)}
        often_log |= moved
        once_log |= moved
        if data.draw(st.booleans()):
            _replay_pull(often, replay, often_log)
    _replay_pull(often, replay, often_log)
    _replay_pull(once, {}, once_log)
    assert often.pull() == once.pull() == []


@given(publish_batches)
@settings(max_examples=200)
def test_replay_from_empty(batches):
    """A cursor that first pulls after every publish replays, from an
    empty map, to exactly the signal's content."""
    sig = VersionedSignal("delta")
    for inserts, removes in batches:
        sig.publish(inserts, removes)
    replay = {}
    _apply(replay, SignalCursor(sig))
    assert replay == _content(sig)


def test_concurrent_pulls_replay_to_content():
    """Readers pulling while writers publish never skip a change, which
    no later change would mend here: each reader's replay ends equal to
    the signal's content."""
    sig = VersionedSignal("delta")
    readers = [SignalCursor(sig) for _ in range(3)]
    replays = [{} for _ in readers]
    done = threading.Event()

    def write(parity):  # keys change once or twice, so no change mends a skipped one
        for k in range(parity, 8000, 2):
            sig.publish(inserts=[((0, (k,)), (k % 7,))])
            if k % 5 == 0:
                sig.publish(removes=[(0, (k,))])

    def read(cur, replay):
        while True:
            finished = done.is_set()
            _apply(replay, cur)
            if finished:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=write, args=(i,)) for i in range(2)]
        pullers = [threading.Thread(target=read, args=rr) for rr in zip(readers, replays)]
        for t in writers + pullers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        done.set()
        for t in pullers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + pullers)
    for replay in replays:
        assert replay == _content(sig)


sens_items = st.builds(
    lambda p, a, b: ((p, (min(a, b),), (max(a, b),)), ()),
    st.integers(0, 2),
    st.integers(0, 20),
    st.integers(0, 20),
)


@given(st.lists(st.lists(sens_items, max_size=4), min_size=1, max_size=8))
@settings(max_examples=300)
def test_sens_monotone(batches):
    """Sensitivity signals only grow: every published interval is present
    in all later versions."""
    sig = VersionedSignal("sens")
    seen = set()
    for batch in batches:
        sig.publish(inserts=batch)
        seen |= {ident for ident, _unit in batch}
        assert seen == {ident for ident, _unit in sig.items()}


def test_sens_remove_rejected():
    sig = VersionedSignal("sens")
    interval = (0, (1,), (5,))
    sig.publish(inserts=[(interval, ())])
    with pytest.raises(SignalContractError):
        sig.publish(removes=[interval])


def test_delta_replace_nets_out():
    sig = VersionedSignal("delta")
    cur = SignalCursor(sig)
    k = (0, (1,))
    sig.publish(inserts=[(k, (10,))])
    cur.pull()
    sig.publish(inserts=[(k, (20,))])
    # a replacement is one change: the identity, its new value pulled
    assert cur.pull() == [k] and cur.get(k) == (20,)
    # replaced then restored between two pulls: named once, and the
    # pulled value is the one the reader already holds
    sig.publish(inserts=[(k, (30,))])
    sig.publish(inserts=[(k, (20,))])
    assert cur.pull() == [k] and cur.get(k) == (20,)
    assert cur.pull() == []
    sig.publish(removes=[k])
    assert cur.pull() == [k] and cur.get(k) is None


def test_noop_publish_keeps_version():
    sig = VersionedSignal("delta")
    v1 = sig.publish(inserts=[((0, (1,)), (10,))])
    assert sig.publish(inserts=[((0, (1,)), (10,))]) == v1


class _NoLock:
    def __enter__(self):
        raise AssertionError("an empty publish took the lock")

    def __exit__(self, *exc):
        return False


@pytest.mark.parametrize("kind", ["delta", "sens", "corr"])
def test_empty_publish_is_free(kind, monkeypatch):
    """A publish handed nothing takes no lock and makes no tree write: it
    logs no run and leaves `latest` where it was, so a cursor then pulls
    nothing; a non-empty publish after it still runs the contract checks."""
    item = ((0, (1,), (2,)), ()) if kind == "sens" else ((0, (1,)), (10,))
    sig = VersionedSignal(kind)
    cur = SignalCursor(sig)
    v = sig.publish([item])
    assert cur.pull() == [item[0]]
    root, lock = sig._root, sig._lock

    def no_update(*args):
        raise AssertionError("an empty publish wrote the tree")

    monkeypatch.setattr(signal.ptree, "update", no_update)
    sig._lock = _NoLock()
    for args in ((), ([], []), (iter(()), iter(()))):
        assert sig.publish(*args) == v
    assert sig.latest == v and len(sig._runs) == 1 and sig._root is root
    assert cur.pull() == [] and cur.root is root
    monkeypatch.undo()
    sig._lock = lock
    if kind == "sens":
        with pytest.raises(SignalContractError):
            sig.publish([((0, (5,), (1,)), ())])
        with pytest.raises(SignalContractError):
            sig.publish(removes=[item[0]])


def test_interval_lo_gt_hi_rejected():
    sig = VersionedSignal("sens")
    with pytest.raises(SignalContractError):
        sig.publish(inserts=[((0, (5,), (1,)), ())])
    assert sig.latest == 0


@pytest.mark.parametrize("kind, items", [
    ("delta", [((0, (1,)), (10,)), ((0, (2,)), ())]),
    ("corr", [((0, (1,)), (10,)), ((1, (0,)), (3,))]),
    ("sens", [((0, (1,), (5,)), ()), ((1, (0,), (0,)), ())]),
])
def test_publish_takes_generators(kind, items):
    """Generators are read once, whatever the kind: a sensitivity check
    does not use up the inserts, and an empty removal generator removes
    nothing."""
    sig = VersionedSignal(kind)
    assert sig.publish((item for item in items), (ident for ident in ())) == len(items)
    assert list(sig.items()) == sorted(items)


def test_publish_inserts_win_over_removes_and_later_inserts_win():
    """Within one publish an identity both removed and inserted ends up
    inserted, and of two inserts of one identity the later stays."""
    sig = VersionedSignal("delta")
    cur = SignalCursor(sig)
    sig.publish(inserts=[((0, (1,)), (1,)), ((0, (2,)), (2,))])
    cur.pull()
    sig.publish(
        inserts=[((0, (1,)), (5,)), ((0, (3,)), (7,)), ((0, (3,)), (8,))],
        removes=[(0, (1,)), (0, (2,))],
    )
    assert _content(sig) == {(0, (1,)): (5,), (0, (3,)): (8,)}
    pulled = cur.pull()
    assert pulled == [(0, (1,)), (0, (2,)), (0, (3,))]
    assert [cur.get(i) for i in pulled] == [(5,), None, (8,)]


def test_sens_replace_rejected_before_swap():
    sig = VersionedSignal("sens")
    interval = (0, (1,), (5,))
    v = sig.publish(inserts=[(interval, ())])
    with pytest.raises(SignalContractError):
        sig.publish(inserts=[((0, (0,), (0,)), ()), (interval, (1,))])
    assert sig.latest == v and _content(sig) == {interval: ()}


class TestCursor:
    def test_pull_is_incremental(self):
        sig = VersionedSignal("delta")
        cur = SignalCursor(sig)
        sig.publish(inserts=[((0, (1,)), (10,))])
        assert cur.pull() == [(0, (1,))] and cur.get((0, (1,))) == (10,)
        assert cur.pull() == []
        sig.publish(inserts=[((0, (2,)), (5,))])
        assert cur.pull() == [(0, (2,))] and cur.get((0, (2,))) == (5,)


def test_within_reads_the_pulled_root():
    """A cursor walks and reads the root it pulled, not what was
    published since."""
    sig = VersionedSignal("corr")
    cur = SignalCursor(sig)
    sig.publish(inserts=[((0, (k,)), (k,)) for k in (1, 4, 7)])
    cur.pull()
    sig.publish(inserts=[((0, (5,)), (5,)), ((0, (4,)), (40,))])
    assert list(cur.within([((0, (2,)), (0, (7,)))])) == [((0, (4,)), (4,)), ((0, (7,)), (7,))]
    assert cur.get((0, (4,))) == (4,) and cur.get((0, (5,))) is None


# two-column keys, padded as the join pads interval ends: exact, MINK/TOP
# after the first column, or MINK/TOP throughout
col = st.integers(0, 40)
walk_key = st.one_of(
    st.tuples(col, col),
    st.tuples(col, st.sampled_from([MINK, TOP])),
    st.sampled_from([(MINK, MINK), (TOP, TOP)]),
)
walk_bound = st.builds(
    lambda p, a, b, point: ((p, min(a, b)), (p, a if point else max(a, b))),
    st.integers(0, 1), walk_key, walk_key, st.booleans(),
)


@given(
    st.integers(0, 2**32), st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
    # some bounds start where another ends
    st.lists(walk_bound, max_size=12).map(lambda bs: sorted(bs + [(hi, hi) for _lo, hi in bs[:3]])),
)
@settings(max_examples=300)
def test_within_matches_brute_force(seed, density, bounds):
    """The walk names exactly the (identity, value) pairs of the pulled
    root inside some bound, each once and in order: overlapping, nested,
    adjacent and point bounds, over multi-column keys padded with MINK
    and TOP, in trees of up to 3 362 records, three levels deep, where a
    seek climbs branch nodes."""
    rnd = random.Random(seed)
    sig = VersionedSignal("corr")
    cur = SignalCursor(sig)
    sig.publish(inserts=[((p, (a, b)), (a * 100 + b,)) for p in range(2) for a in range(41)
                         for b in range(41) if rnd.random() < density])
    cur.pull()
    want = [(ident, value) for ident, value in sig.items()
            if any(lo <= ident <= hi for lo, hi in bounds)]
    assert list(cur.within(bounds)) == want


@given(publish_batches, st.lists(st.integers(0, 10), max_size=4))
@settings(max_examples=200)
def test_pull_over_runs_names_each_identity_once_in_order(batches, pull_after):
    """A pull after several publishes names each changed identity once,
    in order. A pull is the caller's own list: mutating one, before or
    after another cursor pulls the same publish, or keeping one, changes
    nothing another cursor on the signal pulls."""
    sig = VersionedSignal("delta")
    first, keeper, last, reader = (SignalCursor(sig) for _ in range(4))
    kept, runs, logged = [], [], set()
    for n, (inserts, removes) in enumerate(batches):
        before = _content(sig)
        sig.publish(inserts, removes)
        after = _content(sig)
        moved = {i for i in set(before) | set(after) if before.get(i) != after.get(i)}
        runs.append(sorted(moved))
        logged |= moved
        for cur in (first, keeper, last):
            pulled = cur.pull()
            assert pulled == runs[-1]
            if cur is keeper:
                kept.append(pulled)
            else:
                pulled.reverse()
                pulled.append((9, (9,)))
        if n in pull_after:
            assert reader.pull() == sorted(logged)
            logged.clear()
    assert reader.pull() == sorted(logged)
    assert kept == runs
