"""End-to-end telemetry: a real replication populates every subsystem's
metrics, the exporters are byte-identical across back-to-back runs, and
turning the registry off changes nothing about the simulated outcome."""

import json

import pytest

from repro.experiments.testbed import gridftp_testbed
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.data_mover import DataMover
from repro.netsim.units import MB
from repro.telemetry import (
    NO_METRICS,
    render_health_report,
    to_chrome_trace_json,
    to_prometheus_text,
)


def _replicate(metrics: bool = True):
    # parallel_streams is the *requesting* site's knob: anl pulls with 2
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl", parallel_streams=2)],
        metrics=metrics,
    )
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("f.db", 2 * MB))
    report = grid.run(until=anl.client.replicate("f.db"))
    return grid, report


@pytest.fixture(scope="module")
def replicated():
    return _replicate()


def test_every_subsystem_reports(replicated):
    grid, _ = replicated
    snap = grid.metrics.snapshot()
    prefixes = {name.split(".", 1)[0] for name in snap}
    for subsystem in ("netsim", "gridftp", "rpc", "catalog", "storage",
                      "gdmp"):
        assert subsystem in prefixes, f"no {subsystem}.* metrics"


def test_transfer_metrics_match_the_report(replicated):
    grid, report = replicated
    metrics = grid.metrics
    assert metrics.value("gridftp.files_sent", host="cern") == 1
    assert metrics.value("gridftp.bytes_sent", host="cern") == 2 * MB
    # two parallel streams each carried part of the file
    stream_bytes = [
        child.value
        for child in metrics.children("gridftp.stream.bytes")
    ]
    assert len(stream_bytes) == 2
    assert sum(stream_bytes) == 2 * MB
    assert metrics.value("netsim.transfers_completed") == 1
    assert metrics.value("netsim.bytes_delivered") == 2 * MB
    # the per-flow counters carry the src/dst labels
    assert metrics.value("netsim.flow.bytes", src="cern",
                         dst="anl") == 2 * MB
    assert metrics.value("netsim.flows_retired", src="cern", dst="anl") == 2


def test_rpc_latency_histogram_populated(replicated):
    grid, _ = replicated
    metrics = grid.metrics
    assert metrics.kind("rpc.latency") == "histogram"
    total = sum(child.count for child in metrics.children("rpc.latency"))
    assert total > 0
    requests = list(metrics.children("rpc.requests"))
    assert all(dict(c.labels)["outcome"] == "ok" for c in requests)


def test_passive_collectors_scrape_storage_and_catalog(replicated):
    grid, _ = replicated
    snap = grid.metrics.snapshot()
    sites = {
        child["labels"]["site"]
        for child in snap["storage.pool.used_bytes"]["children"]
    }
    assert sites == {"anl", "cern"}
    assert "catalog.ldap.index_searches" in snap


def test_exporters_byte_identical_across_runs():
    grid1, _ = _replicate()
    grid2, _ = _replicate()
    assert to_prometheus_text(grid1.metrics) == to_prometheus_text(
        grid2.metrics
    )
    assert to_chrome_trace_json(grid1.tracelog) == to_chrome_trace_json(
        grid2.tracelog
    )
    snap1 = json.dumps(grid1.metrics.snapshot(), sort_keys=True)
    snap2 = json.dumps(grid2.metrics.snapshot(), sort_keys=True)
    assert snap1 == snap2


def test_registry_off_is_pure_observation(replicated):
    grid_on, report_on = replicated
    grid_off, report_off = _replicate(metrics=False)
    assert grid_off.sim.now == grid_on.sim.now
    assert report_off.total_duration == report_on.total_duration
    assert len(grid_off.tracelog) == len(grid_on.tracelog)
    # the off registry was recorded into all along and kept nothing
    assert grid_off.metrics.snapshot() == {}
    assert to_prometheus_text(grid_off.metrics) == ""
    assert render_health_report(grid_off.metrics).splitlines() == [
        f"=== grid health report — t={grid_off.sim.now:.3f}s, 0 metric "
        "series, 0 spans ===",
    ]
    assert "-- gridftp --" not in grid_off.health_report()


def test_a_component_built_without_a_registry_records_nothing():
    testbed = gridftp_testbed()
    mover = DataMover(testbed.sim, testbed.client, testbed.client_fs)
    assert testbed.engine.metrics is testbed.server.metrics is NO_METRICS
    testbed.server_fs.create("/store/f", 2 * MB)
    report = testbed.sim.run(until=testbed.sim.spawn(
        mover.fetch("cern", "/store/f", "/recv/f", streams=2)
    ))
    assert report.throughput > 0
    assert len(NO_METRICS) == 0
    assert NO_METRICS.snapshot() == {} and NO_METRICS.sections() == []


def test_registry_snapshot_covers_the_data_plane(replicated):
    grid, _ = replicated
    assert "gridftp.bytes_sent" in grid.metrics.snapshot()


def test_health_report_renders(replicated):
    grid, _ = replicated
    text = grid.health_report()
    assert "grid health report" in text
    assert "-- gridftp --" in text
    assert "-- spans per host --" in text
