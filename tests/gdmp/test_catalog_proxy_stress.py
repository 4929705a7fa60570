"""CatalogProxy cache stress: repeated failed-RPC/invalidate/re-warm
cycles, mid-flight cache toggling, and interleavings with the workload
engine's claim/re-claim pattern.

The proxy's contract under stress is narrow but load-bearing: any failed
catalog RPC clears the *whole* cache (a failure marks the catalog host
as suspect), toggling ``cache_enabled`` must bypass both reads and
writes without corrupting counters, and a re-claimed worker re-reading
through the proxy must observe post-failure truth, never a pre-failure
cached answer.
"""

import pytest

from repro.netsim.units import MB
from repro.services import CallTimeout


def _publish(grid, lfns):
    cern = grid.site("cern")
    for lfn in lfns:
        grid.run(until=cern.client.produce_and_publish(lfn, MB))


def _blackhole(grid, down=True):
    grid.msgnet.set_service_down("cern", "gdmp", down=down,
                                 prefix="catalog.")


def test_repeated_failure_cycles_count_every_invalidation(grid):
    """N fail → restore → re-warm cycles: exactly N invalidations, the
    cache re-warms after each, and hit/miss counters stay coherent."""
    _publish(grid, ["s.db"])
    anl = grid.site("anl")
    proxy = anl.client.catalog
    anl.request_client.default_timeout = 5.0

    cycles = 5
    for cycle in range(1, cycles + 1):
        # warm, then hit
        grid.run(until=proxy.info("s.db"))
        info = grid.run(until=proxy.info("s.db"))
        assert info.lfn == "s.db"
        assert proxy._cache
        _blackhole(grid)
        with pytest.raises(CallTimeout):
            grid.run(until=proxy.locations("s.db"))
        assert not proxy._cache, f"cycle {cycle}: cache survived a failure"
        assert proxy.stats["failure_invalidations"] == cycle
        _blackhole(grid, down=False)

    # one warm-miss + one hit per cycle on ("info", s.db), plus the
    # locations miss that hit the black-hole each cycle
    assert proxy.stats["cache_hits"] == cycles
    assert proxy.stats["cache_misses"] == 2 * cycles


def test_cache_toggle_mid_interleaving_bypasses_without_corruption(grid):
    _publish(grid, ["t.db"])
    proxy = grid.site("anl").client.catalog

    grid.run(until=proxy.info("t.db"))          # miss, warms
    grid.run(until=proxy.info("t.db"))          # hit
    hits, misses = proxy.stats["cache_hits"], proxy.stats["cache_misses"]
    envelopes = proxy.stats["envelopes"]

    proxy.cache_enabled = False
    grid.run(until=proxy.info("t.db"))          # bypass: full RPC, no stats
    grid.run(until=proxy.info("t.db"))
    assert proxy.stats["cache_hits"] == hits
    assert proxy.stats["cache_misses"] == misses
    assert proxy.stats["envelopes"] == envelopes + 2

    # stale entries left from the enabled phase are ignored while off,
    # and served again the moment the toggle flips back
    proxy.cache_enabled = True
    grid.run(until=proxy.info("t.db"))
    assert proxy.stats["cache_hits"] == hits + 1


def test_disabled_cache_still_invalidates_on_failure(grid):
    """The failure guard clears leftovers even when caching is off — a
    re-enable must not resurrect pre-failure answers."""
    _publish(grid, ["u.db"])
    anl = grid.site("anl")
    proxy = anl.client.catalog
    grid.run(until=proxy.info("u.db"))
    proxy.cache_enabled = False
    anl.request_client.default_timeout = 5.0
    _blackhole(grid)
    with pytest.raises(CallTimeout):
        grid.run(until=proxy.info("u.db"))
    assert not proxy._cache
    assert proxy.stats["failure_invalidations"] == 1


def test_bulk_partial_cache_failure_clears_warmed_entries(grid):
    """info_bulk with a warm subset: when the fetch for the cold subset
    fails, even the entries that were served from cache are dropped."""
    _publish(grid, ["a.db", "b.db", "c.db"])
    anl = grid.site("anl")
    proxy = anl.client.catalog
    grid.run(until=proxy.info("a.db"))          # warm one of three
    anl.request_client.default_timeout = 5.0
    _blackhole(grid)
    with pytest.raises(CallTimeout):
        grid.run(until=proxy.info_bulk(["a.db", "b.db", "c.db"]))
    assert not proxy._cache                     # a.db gone too
    _blackhole(grid, down=False)
    infos = grid.run(until=proxy.info_bulk(["a.db", "b.db", "c.db"]))
    assert [i.lfn for i in infos] == ["a.db", "b.db", "c.db"]
    assert len(proxy._cache) == 3               # re-warmed in one envelope


def test_fully_cached_bulk_read_is_local_and_free(grid):
    _publish(grid, ["a.db", "b.db"])
    proxy = grid.site("anl").client.catalog
    grid.run(until=proxy.info_bulk(["a.db", "b.db"]))
    envelopes = proxy.stats["envelopes"]
    infos = grid.run(until=proxy.info_bulk(["a.db", "b.db"]))
    assert [i.lfn for i in infos] == ["a.db", "b.db"]
    assert proxy.stats["envelopes"] == envelopes   # served locally
    assert proxy.stats["cache_hits"] >= 2


def test_targeted_invalidate_drops_one_lfn_only(grid):
    _publish(grid, ["a.db", "b.db"])
    proxy = grid.site("anl").client.catalog
    grid.run(until=proxy.info("a.db"))
    grid.run(until=proxy.info("b.db"))
    grid.run(until=proxy.locations("a.db"))
    proxy.invalidate("a.db")
    assert ("info", "a.db") not in proxy._cache
    assert ("locations", "a.db") not in proxy._cache
    assert ("info", "b.db") in proxy._cache


def test_reclaimed_worker_reads_post_failure_truth(grid):
    """The workload re-claim interleaving: worker A warms the cache and
    stalls mid-task; the catalog partitions and recovers; a new replica
    appears; worker B re-claims and re-reads through the same proxy.  B
    must see the new replica — the failure-time invalidation is what
    guarantees it."""
    _publish(grid, ["r.db"])
    cern, anl = grid.site("cern"), grid.site("anl")
    proxy = anl.client.catalog
    anl.request_client.default_timeout = 5.0

    # worker A's read warms the locations cache: one replica at cern
    locs = grid.run(until=proxy.locations("r.db"))
    assert {loc["location"] for loc in locs} == {"cern"}

    # catalog partitions; A's next read fails (lease will expire)
    _blackhole(grid)
    with pytest.raises(CallTimeout):
        grid.run(until=proxy.info("r.db"))
    _blackhole(grid, down=False)

    # while A was dead, the file landed at anl and the catalog learned it
    grid.run(until=anl.client.replicate("r.db"))

    # worker B re-claims and walks the same proxy: it must observe both
    # replicas, not A's cached single-location answer
    locs = grid.run(until=proxy.locations("r.db"))
    assert {loc["location"] for loc in locs} == {"cern", "anl"}
    assert proxy.stats["failure_invalidations"] >= 1
