"""Focused tests for the Data Mover service (§4.3), independent of the
full GDMP client pipeline."""

import pytest

from repro.experiments.testbed import gridftp_testbed
from repro.gdmp.data_mover import DataMover, DataMoverError
from repro.netsim.units import KiB, MB
from repro.telemetry import MetricsRegistry


@pytest.fixture
def mover_setup():
    registry = MetricsRegistry()
    testbed = gridftp_testbed(metrics=registry)
    mover = DataMover(
        testbed.sim, testbed.client, testbed.client_fs,
        metrics=registry, site="anl",
    )
    testbed.server_fs.create("/store/f", 10 * MB)
    return testbed, mover


def fetch(testbed, mover, *args, **kwargs):
    """Run one ``DataMover.fetch`` (a generator) in a process of its own."""
    return testbed.sim.run(
        until=testbed.sim.spawn(mover.fetch(*args, **kwargs))
    )


def test_fetch_with_expected_crc(mover_setup):
    testbed, mover = mover_setup
    expected = testbed.server_fs.stat("/store/f").crc
    report = fetch(testbed, mover, "cern", "/store/f", "/recv/f",
                   expected_crc=expected, streams=2, tcp_buffer=256 * KiB)
    assert report.attempts == 1
    assert report.crc_retries == 0
    assert report.buffer == 256 * KiB
    assert report.throughput > 0
    assert mover.metrics.value("gdmp.mover.files_moved", site="anl") == 1


def test_fetch_without_crc_asks_source_cksm(mover_setup):
    """§4.3's end-to-end check still happens when the catalog has no CRC:
    the mover queries the source's CKSM first."""
    testbed, mover = mover_setup
    report = fetch(testbed, mover, "cern", "/store/f", "/recv/f")
    assert report.stored.crc == testbed.server_fs.stat("/store/f").crc
    assert mover.metrics.value(
        "rpc.requests", service="gridftp", operation="CKSM", outcome="ok"
    ) == 1


def test_fetch_detects_corruption_even_without_catalog_crc(mover_setup):
    testbed, mover = mover_setup
    testbed.server.failures.corrupt_next("/store/f")
    report = fetch(testbed, mover, "cern", "/store/f", "/recv/f")
    assert report.crc_retries == 1
    assert report.stored.crc == testbed.server_fs.stat("/store/f").crc


def test_crc_retry_budget_exhausted(mover_setup):
    testbed, mover = mover_setup

    def keep_corrupting(sim):
        while True:
            testbed.server.failures.corrupt_next("/store/f")
            yield sim.timeout(0.5)

    testbed.sim.spawn(keep_corrupting(testbed.sim))
    with pytest.raises(DataMoverError, match="CRC mismatch persists"):
        fetch(testbed, mover, "cern", "/store/f", "/recv/f")
    # the bad copy was purged, not left behind
    assert not testbed.client_fs.exists("/recv/f")


def test_missing_remote_file_raises(mover_setup):
    testbed, mover = mover_setup
    with pytest.raises(DataMoverError):
        fetch(testbed, mover, "cern", "/store/ghost", "/recv/g")
