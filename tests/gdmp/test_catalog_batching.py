"""Batched catalog RPC envelopes and the client-side location cache."""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.catalog_replication import enable_catalog_replication
from repro.gdmp.request_manager import GdmpError
from repro.netsim.units import MB


def catalog_envelopes(grid) -> int:
    """Client-side catalog RPC spans recorded so far."""
    return sum(
        1
        for span in grid.tracelog.spans(kind="client")
        if ":catalog." in span.name
    )


def catalog_view(grid, site: str) -> list[str]:
    """The LFNs the central catalog lists at ``site``, read in process."""
    backend = grid.catalog_backend
    return backend.catalog.location_filenames(backend.collection, site)


def make_files(grid, site_name, n, size=1 * MB, prefix="s"):
    site = grid.site(site_name)
    specs = []
    for i in range(n):
        lfn = f"{prefix}{i}.db"
        path = site.config.storage_path(lfn)
        site.pool.ensure_space(size)
        site.fs.create(path, size, now=grid.sim.now)
        specs.append({"lfn": lfn, "path": path})
    return specs


# -- publish_set ---------------------------------------------------------------

def test_publish_set_registers_everything_in_one_envelope(grid):
    cern = grid.site("cern")
    specs = make_files(grid, "cern", 5)
    before = catalog_envelopes(grid)
    lfns = grid.run(until=cern.client.publish_set(specs))
    assert lfns == [f"s{i}.db" for i in range(5)]
    assert catalog_envelopes(grid) - before == 1
    for lfn in lfns:
        assert lfn in cern.server.held
    assert sorted(catalog_view(grid, "cern")) == sorted(lfns)


def test_publish_set_sends_one_notify_per_subscriber(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=anl.client.subscribe_to("cern"))
    specs = make_files(grid, "cern", 4)
    grid.run(until=cern.client.publish_set(specs))
    assert len(anl.server.pending_news) == 1
    news = anl.server.pending_news[0]
    assert news["lfns"] == [f"s{i}.db" for i in range(4)]
    assert news["attributes"]["s2.db"]["lfn"] == "s2.db"


def test_publish_set_respects_subscription_filters(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=anl.client.subscribe_to("cern", "(filetype=objectivity)"))
    specs = make_files(grid, "cern", 3)
    specs[1]["attributes"] = {"filetype": "objectivity"}
    grid.run(until=cern.client.publish_set(specs))
    assert len(anl.server.pending_news) == 1
    assert anl.server.pending_news[0]["lfns"] == ["s1.db"]


def test_batched_notify_auto_replicates_the_whole_set(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    anl.config.auto_replicate = True
    grid.run(until=anl.client.subscribe_to("cern"))
    specs = make_files(grid, "cern", 3)
    grid.run(until=cern.client.publish_set(specs))
    grid.run()  # drain the auto replicate_set
    assert sorted(anl.server.held) == ["s0.db", "s1.db", "s2.db"]
    for lfn in ["s0.db", "s1.db", "s2.db"]:
        locs = grid.catalog_backend.locations(lfn)
        assert {loc["location"] for loc in locs} == {"cern", "anl"}


def test_a_failed_batched_auto_replication_keeps_its_news(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    anl.config.auto_replicate = True
    grid.run(until=anl.client.subscribe_to("cern"))
    specs = make_files(grid, "cern", 3)
    grid.run(until=cern.client.publish_set(specs))
    cern.fs.delete(specs[2]["path"])
    grid.run()
    # the files before the failure still arrive and register
    assert sorted(anl.server.held) == ["s0.db", "s1.db"]
    assert [news["lfns"] for news in anl.server.pending_news] == [
        ["s0.db", "s1.db", "s2.db"]
    ]
    assert anl.server.stats["auto_replication_failures"] == 1


# -- replicate_set -------------------------------------------------------------

def test_replicate_set_pays_two_envelopes_not_two_per_file(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    lfns = [s["lfn"] for s in make_files(grid, "cern", 8)]
    grid.run(until=cern.client.publish_set(
        [{"lfn": lfn, "path": cern.config.storage_path(lfn)} for lfn in lfns]
    ))
    before = catalog_envelopes(grid)
    reports = grid.run(until=anl.client.replicate_set(lfns))
    batched = catalog_envelopes(grid) - before
    assert [r.lfn for r in reports] == lfns
    assert batched == 2  # one info_bulk + one add_replica_bulk
    # acceptance floor: >=5x fewer envelopes than 2-per-file
    assert 2 * len(lfns) >= 5 * batched
    assert sorted(catalog_view(grid, "anl")) == sorted(lfns)


def test_replicate_set_flushes_registrations_on_mid_set_failure(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    specs = make_files(grid, "cern", 3)
    grid.run(until=cern.client.publish_set(specs))
    # anl already holds s1.db, so the set fails on its second file
    grid.run(until=anl.client.replicate("s1.db"))
    with pytest.raises(GdmpError, match="already holds"):
        grid.run(until=anl.client.replicate_set(["s0.db", "s1.db", "s2.db"]))
    # ... but the replica fetched before the failure is still registered
    assert "s0.db" in catalog_view(grid, "anl")
    assert "s0.db" in anl.server.held


def test_empty_replicate_set_is_free(grid):
    anl = grid.site("anl")
    before = catalog_envelopes(grid)
    reports = grid.run(until=anl.client.replicate_set([]))
    assert reports == []
    assert catalog_envelopes(grid) == before


# -- the client-side location cache --------------------------------------------

def test_repeated_info_hits_the_cache_at_zero_sim_cost(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("c.db", 1 * MB))
    proxy = anl.client.catalog
    first = grid.run(until=proxy.info("c.db"))
    assert proxy.stats["cache_misses"] >= 1
    start = grid.sim.now
    second = grid.run(until=proxy.info("c.db"))
    assert grid.sim.now == start  # served locally, no WAN round trip
    assert proxy.stats["cache_hits"] == 1
    assert second == first


def test_cached_locations_are_copies(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("c.db", 1 * MB))
    proxy = anl.client.catalog
    first = grid.run(until=proxy.locations("c.db"))
    first[0]["location"] = "tampered"
    second = grid.run(until=proxy.locations("c.db"))
    assert second[0]["location"] == "cern"


def test_local_writes_invalidate_the_cache(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("c.db", 1 * MB))
    proxy = anl.client.catalog
    locations = grid.run(until=proxy.locations("c.db"))
    assert [loc["location"] for loc in locations] == ["cern"]
    # replicating writes add_replicas through the same proxy -> invalidation
    grid.run(until=anl.client.replicate("c.db"))
    locations = grid.run(until=proxy.locations("c.db"))
    assert [loc["location"] for loc in locations] == ["anl", "cern"]


def test_cache_can_be_disabled(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("c.db", 1 * MB))
    proxy = anl.client.catalog
    proxy.cache_enabled = False
    start = grid.sim.now
    grid.run(until=proxy.info("c.db"))
    first_cost = grid.sim.now - start
    start = grid.sim.now
    grid.run(until=proxy.info("c.db"))
    assert grid.sim.now - start == pytest.approx(first_cost)
    assert proxy.stats["cache_hits"] == 0


def test_replication_apply_invalidates_the_colocated_cache():
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("caltech"), GdmpConfig("slac")],
        catalog_host="cern",
    )
    enable_catalog_replication(grid, ["caltech"])
    cern, caltech, slac = (
        grid.site("cern"), grid.site("caltech"), grid.site("slac"))
    grid.run(until=cern.client.produce_and_publish("r.db", 1 * MB))
    grid.run()  # propagate
    proxy = caltech.client.catalog
    locations = grid.run(until=proxy.locations("r.db"))
    assert [loc["location"] for loc in locations] == ["cern"]
    assert ("locations", "r.db") in proxy._cache
    # a foreign write reaches the replica; the apply must drop the cache
    grid.run(until=slac.client.replicate("r.db"))
    grid.run()  # drain propagation
    assert ("locations", "r.db") not in proxy._cache
    locations = grid.run(until=proxy.locations("r.db"))
    assert {loc["location"] for loc in locations} == {"cern", "slac"}
