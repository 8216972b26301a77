"""Signal properties: pull composition and monotonicity."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from txnrepair.signal import (
    SignalContractError,
    SignalCursor,
    VersionedSignal,
    retract,
    sens_interval,
    upsert,
)

# batches of delta publishes over a small identity space
delta_recs = st.builds(
    lambda k, v, sign: upsert(0, (k,), (v,)) if sign else retract(0, (k,)),
    st.integers(0, 8),
    st.integers(0, 4),
    st.booleans(),
)
# each batch: records to insert, and keys whose current records to remove
publish_batches = st.lists(
    st.tuples(st.lists(delta_recs, max_size=5), st.lists(st.integers(0, 8), max_size=3)),
    min_size=1,
    max_size=10,
)


def _content(sig):
    return {rec.identity(): rec for rec in sig.records()}


def _apply(replay, pulled):
    for ident, rec in pulled:
        if rec is None:
            del replay[ident]
        else:
            replay[ident] = rec


def _replay_pull(cur, replay):
    """Apply one pull to `replay`, checking that it holds, in identity
    order, exactly the identities whose record changed since `replay`."""
    now = _content(cur.signal)
    pulled = cur.pull()
    idents = [ident for ident, _rec in pulled]
    assert idents == sorted(set(idents))
    assert set(idents) == {i for i in set(replay) | set(now) if replay.get(i) != now.get(i)}
    _apply(replay, pulled)
    assert replay == now


@given(publish_batches, st.data())
@settings(max_examples=300)
def test_change_composition(batches, data):
    """Pulls compose: a cursor that pulls at arbitrary points between
    publishes and one that pulls only at the end both replay, from empty,
    to the signal's content; `latest` moves exactly when content does."""
    sig = VersionedSignal("delta")
    often, once = SignalCursor(sig), SignalCursor(sig)
    replay = {}
    for inserts, drop in batches:
        removes = [rec for rec in sig.records() if rec.key[0] in drop]
        before, v0 = _content(sig), sig.latest
        assert (sig.publish(inserts, removes) != v0) == (_content(sig) != before)
        if data.draw(st.booleans()):
            _replay_pull(often, replay)
    _replay_pull(often, replay)
    _replay_pull(once, {})
    assert often.pull() == once.pull() == []


@given(publish_batches)
@settings(max_examples=200)
def test_replay_from_empty(batches):
    """A cursor that first pulls after every publish replays, from an
    empty map, to exactly the signal's content."""
    sig = VersionedSignal("delta")
    for inserts, drop in batches:
        sig.publish(inserts, [rec for rec in sig.records() if rec.key[0] in drop])
    replay = {}
    _apply(replay, SignalCursor(sig).pull())
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
            sig.publish(inserts=[upsert(0, (k,), (k % 7,))])
            if k % 5 == 0:
                sig.publish(removes=[upsert(0, (k,), (k % 7,))])

    def read(cur, replay):
        while True:
            finished = done.is_set()
            _apply(replay, cur.pull())
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


sens_recs = st.builds(
    lambda p, a, b: sens_interval(p, (min(a, b),), (max(a, b),)),
    st.integers(0, 2),
    st.integers(0, 20),
    st.integers(0, 20),
)


@given(st.lists(st.lists(sens_recs, max_size=4), min_size=1, max_size=8))
@settings(max_examples=300)
def test_sens_monotone(batches):
    """Sensitivity signals only grow: every published record is present
    in all later versions."""
    sig = VersionedSignal("sens")
    seen = set()
    for batch in batches:
        sig.publish(inserts=batch)
        seen |= {r.identity() for r in batch}
        now = {r.identity() for r in sig.records()}
        assert seen == now


def test_sens_remove_rejected():
    sig = VersionedSignal("sens")
    rec = sens_interval(0, (1,), (5,))
    sig.publish(inserts=[rec])
    with pytest.raises(SignalContractError):
        sig.publish(removes=[rec])


def test_delta_replace_nets_out():
    sig = VersionedSignal("delta")
    cur = SignalCursor(sig)
    sig.publish(inserts=[upsert(0, (1,), (10,))])
    cur.pull()
    sig.publish(inserts=[upsert(0, (1,), (20,))])
    # a replacement is one change: the identity with its current record
    assert cur.pull() == [((0, (1,)), upsert(0, (1,), (20,)))]
    # replaced then restored between two pulls: nets to nothing
    sig.publish(inserts=[upsert(0, (1,), (30,))])
    sig.publish(inserts=[upsert(0, (1,), (20,))])
    assert cur.pull() == []
    sig.publish(removes=[upsert(0, (1,), (20,))])
    assert cur.pull() == [((0, (1,)), None)]


def test_noop_publish_keeps_version():
    sig = VersionedSignal("delta")
    v1 = sig.publish(inserts=[upsert(0, (1,), (10,))])
    assert sig.publish(inserts=[upsert(0, (1,), (10,))]) == v1


def test_bad_remove_rejected():
    sig = VersionedSignal("delta")
    sig.publish(inserts=[upsert(0, (1,), (10,))])
    with pytest.raises(SignalContractError):
        sig.publish(removes=[upsert(0, (1,), (99,))])


def test_interval_lo_gt_hi_rejected():
    with pytest.raises(SignalContractError):
        sens_interval(0, (5,), (1,))


class TestCursor:
    def test_pull_is_incremental(self):
        sig = VersionedSignal("delta")
        cur = SignalCursor(sig)
        sig.publish(inserts=[upsert(0, (1,), (10,))])
        assert cur.pull() == [((0, (1,)), upsert(0, (1,), (10,)))]
        assert cur.pull() == []
        sig.publish(inserts=[upsert(0, (2,), (5,))])
        assert cur.pull() == [((0, (2,)), upsert(0, (2,), (5,)))]


def test_range_records():
    sig = VersionedSignal("corr")
    sig.publish(inserts=[upsert(0, (k,), (k,)) for k in (1, 4, 7)])
    got = list(sig.range_records((0, (2,)), (0, (7,))))
    assert [r.key for r in got] == [(4,), (7,)]
