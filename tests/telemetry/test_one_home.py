"""One home per number (DESIGN.md, "Telemetry").

What the registry exports is pinned by family name, so a change that
drops or invents a family fails here by that name; what it does not
export lives in its owner's ``stats`` dict, and every such key is shown
to move when its event happens.
"""

import pytest

import tests.tools.conftest  # noqa: F401  (puts tools/ on the path)
from repro.faults import FaultCampaign, FaultEvent, FaultInjector
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.request_manager import GdmpError
from repro.gridftp import TransferError
from repro.netsim.units import GB, MB
from repro.security import new_user_credential
from repro.services import CallTimeout, RemoteCallError, ServiceError
from smoke import back_to_back_scenario

#: every family of the smoke gate's back-to-back scenario (subscribe, a 3-file
#: production run, one ``replicate``, one index snapshot), as exported
FAMILIES = [
    "catalog_ldap_filter_cache_hits",
    "catalog_ldap_filter_cache_misses",
    "catalog_ldap_index_searches",
    "catalog_ldap_scan_searches",
    "catalog_proxy_cache_hits",
    "catalog_proxy_cache_misses",
    "catalog_proxy_envelopes",
    "catalog_proxy_failure_invalidations",
    "catalog_proxy_negative_hits",
    "gdmp_mover_bytes_moved_total",
    "gdmp_mover_files_moved_total",
    "gridftp_bytes_sent_total",
    "gridftp_channels_dropped_total",
    "gridftp_files_sent_total",
    "gridftp_sessions_opened_total",
    "gridftp_stream_bytes_total",
    "gridftp_stream_throughput_avg",
    "gridftp_stream_throughput_last",
    "gridftp_stream_throughput_max",
    "gridftp_transfer_fanout",
    "netsim_bytes_delivered_total",
    "netsim_flow_bytes_total",
    "netsim_flows_opened_total",
    "netsim_flows_retired_total",
    "netsim_link_capacity",
    "netsim_link_cross_traffic",
    "netsim_tcp_cwnd_avg",
    "netsim_tcp_cwnd_last",
    "netsim_tcp_cwnd_max",
    "netsim_tcp_ssthresh_avg",
    "netsim_tcp_ssthresh_last",
    "netsim_tcp_ssthresh_max",
    "netsim_transfer_throughput",
    "netsim_transfers_completed_total",
    "rpc_latency",
    "rpc_requests_total",
    "storage_pool_evictions",
    "storage_pool_hits",
    "storage_pool_misses",
    "storage_pool_occupancy",
    "storage_pool_used_bytes",
]


def test_exported_families_are_pinned_by_name():
    exported = sorted(
        line.split()[2]
        for line in back_to_back_scenario()["prometheus"].splitlines()
        if line.startswith("# TYPE")
    )
    assert exported == FAMILIES


# -- stats: each scenario returns [(owner's stats, key, expected value)] ----
# (``None`` expects only that the key moved off zero)

def _grid(**anl):
    return DataGrid([
        GdmpConfig("cern", has_mss=True, disk_capacity=10 * GB),
        GdmpConfig("anl", **anl),
    ])


def _publish(grid, lfn, size=5 * MB):
    grid.run(until=grid.site("cern").client.produce_and_publish(lfn, size))
    return grid.site("cern").config.storage_path(lfn)


def lost_reply():
    grid = _grid()
    cern, anl = grid.site("cern"), grid.site("anl")

    def slow(request):
        yield grid.sim.timeout(10.0)
        return "late"

    cern.request_server.register("slow", slow)
    with pytest.raises(CallTimeout):
        grid.run(until=anl.request_client.call("cern", "slow", {}, timeout=1.0))
    grid.run(until=grid.sim.timeout(30.0))  # the reply arrives, unwanted
    client = anl.request_client.stats
    return [(client, "calls", 1), (client, "call_timeouts", 1),
            (client, "late_replies_discarded", 1)]


def handler_bug():
    grid = _grid()
    cern, anl = grid.site("cern"), grid.site("anl")
    cern.request_server.register("buggy", lambda request: 1 / 0)
    with pytest.raises(RemoteCallError, match="ZeroDivisionError"):
        grid.run(until=anl.request_client.call("cern", "buggy", {}))
    return [(cern.request_server.stats, "handler_errors", 1),
            (anl.request_client.stats, "call_failures", 1)]


def bad_chain():
    grid = _grid()
    cern, anl = grid.site("cern"), grid.site("anl")
    stranger = new_user_credential(grid.ca, "/O=Grid/CN=Stranger")
    anl.request_client.credential = stranger
    with pytest.raises(RemoteCallError, match="security"):
        grid.run(until=anl.request_client.call("cern", "get_catalog", {}))
    anl.gridftp_client.credential = stranger
    with pytest.raises(TransferError, match="authentication failed"):
        grid.run(until=grid.sim.spawn(anl.gridftp_client.connect("cern")))
    return [(cern.request_server.stats, "auth_failures", 1),
            (cern.gridftp_server.stats, "auth_failures", 1)]


def host_crash():
    grid = _grid()
    _publish(grid, "big.db", 60 * MB)
    anl = grid.site("anl")
    injector = FaultInjector(grid, FaultCampaign("crash", (
        FaultEvent(8.0, "host_crash", "cern"),
        FaultEvent(20.0, "host_restart", "cern"),
    )))
    injector.start()
    # the set redials the session the restarted daemon forgot and
    # resumes from its restart marker
    report = grid.run(until=anl.client.replicate("big.db"))
    assert report.attempts == 3
    grid.run()
    # the RETR in flight at the crash, and the restart's REST, sent into
    # the outage and reset when the host came back
    return [(anl.gridftp_client.bus.stats, "connection_resets", 2),
            (grid.site("cern").gridftp_server.stats, "sessions_dropped", 1),
            (injector.stats, "pools_cancelled", 1),
            (grid.engine.stats, "bytes_delivered_aborted", None)]


def known_down_host():
    grid = _grid()
    anl = grid.site("anl")
    anl.request_client.fail_fast_when_down = True
    grid.msgnet.set_host_down("cern")
    with pytest.raises(ServiceError, match="host is down"):
        grid.run(until=anl.request_client.call("cern", "get_catalog", {}))
    # the goodbye to a dead source is counted, never raised
    grid.run(until=grid.sim.spawn(anl.client._release("cern", ["x.db"])))
    return [(anl.request_client.stats, "fast_failures", 2),
            (anl.client.stats, "release_failures", 1)]


def tape_stage():
    grid = _grid()
    cern, anl = grid.site("cern"), grid.site("anl")
    path = _publish(grid, "cold.db")
    grid.run(until=cern.storage.archive(path))
    cern.fs.delete(path)
    grid.run(until=anl.client.replicate("cold.db"))
    return [(cern.mss.stats, "migrated_files", 1),
            (cern.mss.stats, "staged_files", 1),
            (cern.storage.stats, "files_archived", 1),
            (cern.storage.stats, "stage_requests", 1),
            (cern.server.stats, "stage_served", 1),
            (anl.storage.stats, "replicas_received", 1),
            (anl.client.stats, "replicated", 1),
            (anl.client.stats, "bytes_replicated", 5 * MB)]


def tape_trouble():
    grid = _grid()
    cern = grid.site("cern")
    path = _publish(grid, "cold.db")
    grid.run(until=cern.storage.archive(path))
    cern.fs.delete(path)
    cern.mss.inject_errors(1)
    with pytest.raises(GdmpError, match="injected drive error"):
        grid.run(until=grid.sim.spawn(
            cern.storage.ensure_on_disk(path, pin=False)
        ))
    cern.mss.inject_stall(grid.sim.now + 30.0)
    grid.run(until=grid.sim.spawn(
        cern.storage.ensure_on_disk(path, pin=False)
    ))
    return [(cern.mss.stats, "stage_faults", 1),
            (cern.mss.stats, "stage_stalls", 1)]


def notify():
    grid = _grid()
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=anl.client.subscribe_to("cern"))
    _publish(grid, "news.db")
    return [(cern.server.stats, "subscriptions", 1),
            (cern.client.stats, "published", 1),
            (anl.server.stats, "notifications", 1)]


def replica_lifecycle():
    """Debris purged before a transfer, a cold replica evicted to make
    room for the next, a replica deleted."""
    grid = _grid(disk_capacity=8 * MB)
    anl = grid.site("anl")
    _publish(grid, "a.db")
    _publish(grid, "b.db")
    anl.fs.create(anl.config.storage_path("a.db"), 1 * MB)  # never held
    grid.run(until=anl.client.replicate("a.db"))
    grid.run(until=anl.client.replicate("b.db"))
    grid.run(until=anl.client.delete_replica("b.db"))
    return [(anl.client.stats, "orphans_purged", 1),
            (anl.storage.stats, "evictions_for_incoming", 1),
            (anl.client.stats, "replicas_deleted", 1)]


def corrupted_transfer():
    grid = _grid()
    cern = grid.site("cern")
    cern.gridftp_server.failures.corrupt_next(_publish(grid, "bad.db"))
    grid.run(until=grid.site("anl").client.replicate("bad.db"))
    return [(cern.gridftp_server.stats, "corrupted_transfers", 1)]


def chunk_faults():
    grid = _grid()
    anl = grid.site("anl")
    for name in ("chunks/one", "chunks/two"):
        anl.fs.create(name, 1 * MB)
    injector = FaultInjector(grid, FaultCampaign("chunks", (
        FaultEvent(0.0, "chunk_corrupt", "cern"),   # holds no chunk
        FaultEvent(0.0, "site_wipe", "anl"),
    )))
    grid.run(until=injector.start())
    return [(injector.stats, "chunk_corrupt_noop", 1),
            (injector.stats, "chunks_wiped", 2)]


@pytest.mark.parametrize("scenario", [
    lost_reply, handler_bug, bad_chain, host_crash, known_down_host,
    tape_stage, tape_trouble, notify, replica_lifecycle, corrupted_transfer,
    chunk_faults,
], ids=lambda scenario: scenario.__name__)
def test_every_stats_key_moves_with_its_event(scenario):
    for stats, key, expected in scenario():
        if expected is None:
            assert stats[key] > 0, key
        else:
            assert stats[key] == expected, key
