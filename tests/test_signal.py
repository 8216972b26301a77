"""Versioned signal properties: change composition and monotonicity."""

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
publish_batches = st.lists(st.lists(delta_recs, max_size=5), min_size=1, max_size=10)


def _apply(content, changes):
    content = dict(content)
    for rec, inserted in changes:
        if inserted:
            content[rec.identity()] = rec
        else:
            assert content.get(rec.identity()) == rec
            del content[rec.identity()]
    return content


def _publish_all(sig, batches):
    versions = [0]
    for batch in batches:
        versions.append(sig.publish(inserts=batch))
    return versions


@given(publish_batches, st.data())
@settings(max_examples=300)
def test_change_composition(batches, data):
    """changes(a,b) then changes(b,c) replays to the same content as
    changes(a,c) — deltas compose across any intermediate version."""
    sig = VersionedSignal("delta")
    versions = _publish_all(sig, batches)
    a = data.draw(st.sampled_from(versions))
    later = [v for v in versions if v >= a]
    b = data.draw(st.sampled_from(later))
    c = data.draw(st.sampled_from([v for v in versions if v >= b]))
    start = {rec.identity(): rec for rec in sig.records(a)}
    via_b = _apply(_apply(start, sig.changes(a, b)), sig.changes(b, c))
    direct = _apply(start, sig.changes(a, c))
    assert via_b == direct
    assert direct == {rec.identity(): rec for rec in sig.records(c)}


@given(publish_batches)
@settings(max_examples=200)
def test_replay_from_empty(batches):
    sig = VersionedSignal("delta")
    _publish_all(sig, batches)
    replay = _apply({}, sig.changes(0, sig.latest))
    assert replay == {rec.identity(): rec for rec in sig.records()}


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
    v1 = sig.publish(inserts=[upsert(0, (1,), (10,))])
    v2 = sig.publish(inserts=[upsert(0, (1,), (20,))])
    ch = sig.changes(v1, v2)
    assert (upsert(0, (1,), (10,)), False) in ch
    assert (upsert(0, (1,), (20,)), True) in ch
    # replaced then restored: nets to nothing
    v3 = sig.publish(inserts=[upsert(0, (1,), (10,))])
    assert sig.changes(v1, v3) == []


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
        assert cur.pull() == [(upsert(0, (1,), (10,)), True)]
        assert cur.pull() == []
        sig.publish(inserts=[upsert(0, (2,), (5,))])
        assert cur.pull() == [(upsert(0, (2,), (5,)), True)]


def test_range_records():
    sig = VersionedSignal("corr")
    sig.publish(inserts=[upsert(0, (k,), (k,)) for k in (1, 4, 7)])
    got = list(sig.range_records((0, (2,)), (0, (7,))))
    assert [r.key for r in got] == [(4,), (7,)]
