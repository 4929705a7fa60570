"""Digest protocol edge cases: source sequencing, index soft state."""

import pytest

from repro.rls.digest import (
    DELTA_ITEM_SIZE,
    DIGEST_HEADER_SIZE,
    DigestConfig,
    DigestSource,
    ReplicaLocationIndex,
    SiteState,
    digest_wire_size,
)


def make_source(holdings, **overrides):
    """A DigestSource over a mutable set standing in for an LRC."""
    defaults = dict(period=10.0, full_every=4)
    defaults.update(overrides)
    return DigestSource(
        "cern", lambda: sorted(holdings), DigestConfig(**defaults)
    )


def test_first_digest_is_always_full():
    holdings = {"a.dat", "b.dat"}
    source = make_source(holdings)
    payload = source.next_digest()
    assert payload["kind"] == "full"
    assert payload["generation"] == 1
    assert payload["count"] == 2
    assert "a.dat" in payload["bloom"] and "b.dat" in payload["bloom"]


def test_deltas_follow_acked_full_until_refresh_due():
    holdings = {"a.dat"}
    source = make_source(holdings, full_every=3)
    source.ack(source.next_digest())  # gen 1, full
    kinds = []
    for i in range(4):
        lfn = f"new-{i}.dat"
        holdings.add(lfn)
        source.on_write("publish_bulk", {"lfns": [lfn]})
        payload = source.next_digest()
        kinds.append(payload["kind"])
        source.ack(payload)
    # pushes 2 and 3 are deltas; push 4 hits full_every=3, resetting
    assert kinds == ["delta", "delta", "full", "delta"]


def test_unacked_push_changes_are_recarried():
    holdings = {"a.dat"}
    source = make_source(holdings)
    source.ack(source.next_digest())
    holdings.add("b.dat")
    source.on_write("publish_bulk", {"lfns": ["b.dat"]})
    lost = source.next_digest()  # never acked: the push was dropped
    assert lost["added"] == ["b.dat"]
    retry = source.next_digest()
    assert retry["added"] == ["b.dat"]
    assert retry["generation"] == lost["generation"]
    source.ack(retry)
    assert source.pending_changes == 0


@pytest.mark.parametrize("kind", ["full", "delta"])
def test_write_during_push_survives_the_ack(kind):
    """A write landing between ``next_digest()`` and ``ack()`` is not in
    the payload; the ack must leave it pending for the next delta."""
    holdings = {f"f{i}.dat" for i in range(40)}
    source = make_source(holdings)
    if kind == "delta":
        source.ack(source.next_digest())
        holdings.add("before.dat")
        source.on_write("publish_bulk", {"lfns": ["before.dat"]})
    in_flight = source.next_digest()
    assert in_flight["kind"] == kind
    # the push is on the wire: one publish and one removal land now
    holdings.add("during.dat")
    source.on_write("publish_bulk", {"lfns": ["during.dat"]})
    holdings.discard("f0.dat")
    source.on_write("remove_replica", {"lfn": "f0.dat"})
    source.ack(in_flight)
    follow_up = source.next_digest()
    assert follow_up["kind"] == "delta"
    assert follow_up["added"] == ["during.dat"]
    assert follow_up["removed"] == ["f0.dat"]
    source.ack(follow_up)
    assert source.pending_changes == 0


def test_publish_then_remove_nets_to_nothing():
    holdings = {"a.dat"}
    source = make_source(holdings)
    source.ack(source.next_digest())
    source.on_write("publish_bulk", {"lfns": ["temp.dat"]})
    source.on_write("remove_replica", {"lfn": "temp.dat"})
    payload = source.next_digest()
    assert payload["kind"] == "delta"
    assert payload["added"] == []
    assert payload["removed"] == ["temp.dat"]


def test_bulk_ops_feed_the_pending_sets():
    holdings = set()
    source = make_source(holdings)
    source.ack(source.next_digest())
    # keep pending small relative to |current| so this stays a delta
    holdings.update(f"f{i}" for i in range(40))
    source.on_write("publish_bulk", {"lfns": ["f0", "f1"]})
    source.on_write("remove_replica", {"lfn": "f1"})
    payload = source.next_digest()
    assert payload["added"] == ["f0"]
    assert payload["removed"] == ["f1"]


def test_large_delta_promotes_to_full():
    holdings = {f"f{i}" for i in range(10)}
    source = make_source(holdings, full_every=100)
    source.ack(source.next_digest())
    for i in range(10, 15):  # 5 pending > 25% of 15 current
        lfn = f"f{i}"
        holdings.add(lfn)
        source.on_write("publish_bulk", {"lfns": [lfn]})
    assert source.next_digest()["kind"] == "full"


def test_empty_site_digest_covers_nothing():
    source = make_source(set())
    payload = source.next_digest()
    assert payload["kind"] == "full"
    assert payload["count"] == 0
    # the bloom still has the min-capacity shape, just no bits set
    assert payload["bloom"].n_added == 0
    state = SiteState("cern")
    assert state.apply(payload, now=1.0)
    assert not state.might_hold("anything.dat")
    assert state.entry_count == 0


def test_delta_removing_last_replica_flips_might_hold():
    holdings = {"only.dat"}
    source = make_source(holdings)
    state = SiteState("cern")
    full = source.next_digest()
    source.ack(full)
    state.apply(full, now=0.0)
    assert state.might_hold("only.dat")

    holdings.clear()
    source.on_write("remove_replica", {"lfn": "only.dat"})
    delta = source.next_digest()
    source.ack(delta)
    assert delta["kind"] == "delta" and delta["removed"] == ["only.dat"]
    state.apply(delta, now=5.0)
    # the tombstone overlay must beat the (still-set) bloom bits
    assert not state.might_hold("only.dat")

    source.needs_full = True  # force the next refresh
    refresh = source.next_digest()
    state.apply(refresh, now=10.0)
    assert refresh["kind"] == "full"
    assert not state.removed and not state.added  # tombstones cleared
    assert not state.might_hold("only.dat")


def test_stale_generation_is_skipped():
    index = ReplicaLocationIndex(["cern"])
    source = make_source({"a.dat"})
    first = source.next_digest()
    source.ack(first)
    assert index.apply(first, now=0.0)
    assert not index.apply(first, now=1.0)  # duplicate retry of gen 1
    assert index.stats["digests_stale"] == 1
    assert index.stats["digests_full"] == 1
    # the duplicate must not disturb membership or freshness
    assert index.states["cern"].updated_at == 0.0
    assert index.candidate_sites("a.dat") == ["cern"]


def test_mismatched_site_digest_rejected():
    state = SiteState("anl")
    payload = make_source({"x"}).next_digest()  # built for "cern"
    with pytest.raises(ValueError):
        state.apply(payload, now=0.0)


def test_wire_sizes():
    holdings = {f"f{i}" for i in range(100)}
    source = make_source(holdings)
    full = source.next_digest()
    assert digest_wire_size(full) == (
        DIGEST_HEADER_SIZE + full["bloom"].size_bytes
    )
    source.ack(full)
    holdings.update({"g1", "g2"})
    source.on_write("publish_bulk", {"lfns": ["g1"]})
    source.on_write("publish_bulk", {"lfns": ["g2"]})
    holdings.discard("f0")
    source.on_write("remove_replica", {"lfn": "f0"})
    delta = source.next_digest()
    assert digest_wire_size(delta) == DIGEST_HEADER_SIZE + 3 * DELTA_ITEM_SIZE


def test_index_candidate_sites_and_stats():
    index = ReplicaLocationIndex(["cern", "anl"])
    cern = make_source({"shared.dat", "cern-only.dat"})
    anl_src = DigestSource(
        "anl", lambda: ["shared.dat"], DigestConfig(period=10.0)
    )
    index.apply(cern.next_digest(), now=0.0)
    index.apply(anl_src.next_digest(), now=0.0)
    assert index.candidate_sites("shared.dat") == ["cern", "anl"]
    assert index.candidate_sites("cern-only.dat") == ["cern"]
    assert index.candidate_sites("nowhere.dat") == []
    assert index.stats["lookups"] == 3
    assert index.stats["empty_lookups"] == 1
    assert index.stats["candidates_returned"] == 3
    assert "cern:g1" in index.fingerprint()


def test_digest_config_validation():
    with pytest.raises(ValueError):
        DigestConfig(period=0)
    with pytest.raises(ValueError):
        DigestConfig(full_every=0)
