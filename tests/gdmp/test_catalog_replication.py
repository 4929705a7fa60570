"""Tests for replica catalog distribution/replication (§4.2 future work)."""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.catalog_replication import enable_catalog_replication
from repro.netsim.units import MB


@pytest.fixture
def rgrid():
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("caltech"), GdmpConfig("slac")],
        catalog_host="cern",
    )
    replicas = enable_catalog_replication(grid, ["caltech", "slac"])
    return grid, replicas


def drain(grid):
    grid.run()  # let asynchronous write propagation finish


def test_write_propagates_to_replicas(rgrid):
    grid, replicas = rgrid
    cern = grid.site("cern")
    grid.run(until=cern.client.produce_and_publish("f.db", 1 * MB))
    drain(grid)
    for replica in replicas.values():
        assert replica.catalog.lfn_exists("f.db")
        assert replica.catalog.info("f.db").size == 1 * MB
    assert replicas["caltech"].applied_writes == 1


def test_local_reads_are_fast_remote_writes_still_pay_wan(rgrid):
    grid, _replicas = rgrid
    cern, caltech = grid.site("cern"), grid.site("caltech")
    grid.run(until=cern.client.produce_and_publish("f.db", 1 * MB))
    drain(grid)
    # read from caltech: local replica, millisecond-scale
    start = grid.sim.now
    locations = grid.run(until=caltech.client.catalog.locations("f.db"))
    read_latency = grid.sim.now - start
    assert [loc["location"] for loc in locations] == ["cern"]
    assert read_latency < 0.01
    # write from caltech: still one WAN trip to the primary
    start = grid.sim.now
    grid.run(until=caltech.client.catalog.add_replicas(["f.db"], "caltech"))
    write_latency = grid.sim.now - start
    assert write_latency > 0.12


def test_replication_pipeline_works_over_replicated_catalog(rgrid):
    grid, replicas = rgrid
    cern, caltech = grid.site("cern"), grid.site("caltech")
    grid.run(until=cern.client.produce_and_publish("data.db", 5 * MB))
    drain(grid)
    report = grid.run(until=caltech.client.replicate("data.db"))
    assert report.source == "cern"
    drain(grid)
    # the add_replicas write reached every replica
    for replica in replicas.values():
        sites = {loc["location"] for loc in replica.catalog.locations("data.db")}
        assert sites == {"cern", "caltech"}


def test_staleness_window_is_bounded_by_propagation(rgrid):
    grid, replicas = rgrid
    cern = grid.site("cern")
    publish_done = cern.client.produce_and_publish("late.db", 1 * MB)
    grid.run(until=publish_done)
    # immediately after the publish returns, the replica may be stale ...
    published_at = grid.sim.now
    stale = not replicas["slac"].catalog.lfn_exists("late.db")
    drain(grid)
    # ... but converges within (approximately) one WAN propagation delay
    assert replicas["slac"].catalog.lfn_exists("late.db")
    assert grid.sim.now - published_at < 0.25
    assert stale  # the window genuinely existed (write ack beat propagation)


def test_seeding_copies_existing_state():
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("caltech")], catalog_host="cern"
    )
    cern = grid.site("cern")
    grid.run(until=cern.client.produce_and_publish("old.db", 2 * MB, run="7"))
    replicas = enable_catalog_replication(grid, ["caltech"])
    replica = replicas["caltech"]
    assert replica.catalog.lfn_exists("old.db")
    info = replica.catalog.info("old.db")
    assert info.size == 2 * MB
    assert info.attributes["run"] == "7"


def test_primary_cannot_be_its_own_replica():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")], catalog_host="cern")
    with pytest.raises(ValueError):
        enable_catalog_replication(grid, ["cern"])


def test_remove_replica_propagates(rgrid):
    grid, replicas = rgrid
    cern = grid.site("cern")
    grid.run(until=cern.client.produce_and_publish("gone.db", 1 * MB))
    drain(grid)
    grid.run(until=cern.client.catalog.remove_replica("gone.db", "cern"))
    drain(grid)
    for replica in replicas.values():
        assert not replica.catalog.lfn_exists("gone.db")
