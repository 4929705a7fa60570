"""Tests for alternate-replica failover (§4.3: "a variety of specialized
error recovery strategies" on top of GridFTP's error detection)."""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.request_manager import GdmpError
from repro.netsim.units import MB


@pytest.fixture
def grid3():
    return DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")]
    )


def arm_permanent_failure(grid, site, path):
    injector = grid.site(site).gridftp_server.failures

    def rearm(sim):
        while True:
            injector.abort_after_bytes(path, 1 * MB)
            yield sim.timeout(1.0)

    grid.sim.spawn(rearm(grid.sim))


def seed_two_replicas(grid, lfn="hot.db", size=10 * MB):
    cern = grid.site("cern")
    grid.run(until=cern.client.produce_and_publish(lfn, size))
    grid.run(until=grid.site("anl").client.replicate(lfn))
    return lfn


def test_failover_to_second_replica(grid3):
    lfn = seed_two_replicas(grid3)
    # whichever source caltech would pick first, kill it at cern
    arm_permanent_failure(grid3, "cern", f"/storage/{lfn}")
    report = grid3.run(
        until=grid3.site("caltech").client.replicate(lfn, prefer_site="cern")
    )
    assert report.source == "anl"
    assert report.failed_sources == ("cern",)
    assert grid3.site("caltech").fs.exists(f"/storage/{lfn}")
    assert grid3.metrics.value("gdmp.mover.failovers", site="caltech") == 1


def test_failover_releases_failed_sources_pins(grid3):
    lfn = seed_two_replicas(grid3)
    arm_permanent_failure(grid3, "cern", f"/storage/{lfn}")
    grid3.run(
        until=grid3.site("caltech").client.replicate(lfn, prefer_site="cern")
    )
    assert grid3.site("cern").pool.pin_count(f"/storage/{lfn}") == 0
    assert grid3.site("anl").pool.pin_count(f"/storage/{lfn}") == 0
    assert grid3.site("caltech").pool.reserved == 0


def test_all_sources_failing_raises(grid3):
    lfn = seed_two_replicas(grid3)
    arm_permanent_failure(grid3, "cern", f"/storage/{lfn}")
    arm_permanent_failure(grid3, "anl", f"/storage/{lfn}")
    with pytest.raises(GdmpError, match="all 2 replica sources failed"):
        grid3.run(until=grid3.site("caltech").client.replicate(lfn))


def test_clean_replication_reports_no_failovers(grid3):
    lfn = seed_two_replicas(grid3)
    report = grid3.run(until=grid3.site("caltech").client.replicate(lfn))
    assert report.failed_sources == ()


def test_failover_result_is_crc_correct(grid3):
    lfn = seed_two_replicas(grid3)
    arm_permanent_failure(grid3, "cern", f"/storage/{lfn}")
    grid3.run(
        until=grid3.site("caltech").client.replicate(lfn, prefer_site="cern")
    )
    assert (
        grid3.site("caltech").fs.stat(f"/storage/{lfn}").crc
        == grid3.site("anl").fs.stat(f"/storage/{lfn}").crc
    )
