"""Mid-stream link loss: the transfer resumes from the last cumulative
111 restart marker, restart attempts are only counted when a marker is
actually consumed, and a transfer that stops making progress surfaces
:class:`TransferAbandoned` with the partial range set."""

import pytest

from repro.faults import FaultCampaign, FaultEvent, FaultInjector
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp import data_mover
from repro.gdmp.data_mover import TransferAbandoned
from repro.gridftp.markers import RangeSet
from repro.netsim.units import MB

from .conftest import moved

SIZE = 60 * MB


@pytest.fixture
def rgrid():
    """Two-site grid with the recovery policies armed."""
    g = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    g.enable_resilience()
    return g


def _publish(grid, lfn, size=SIZE):
    cern = grid.site("cern")
    grid.run(until=cern.client.produce_and_publish(lfn, size))
    return cern.config.storage_path(lfn)


def test_transfer_resumes_from_marker_after_link_loss(rgrid):
    """Cut the WAN mid-transfer, restore it later: the mover consumes
    the synthesized cumulative marker and completes without refetching
    the delivered prefix."""
    _publish(rgrid, "big.db")
    anl = rgrid.site("anl")
    # cut after the second 5 s marker, restore well past the idle timeout
    injector = FaultInjector(rgrid, FaultCampaign("cut", (
        FaultEvent(12.0, "link_down", "wan-cern-anl"),
        FaultEvent(40.0, "link_up", "wan-cern-anl"),
    )))
    injector.start()
    report = rgrid.run(until=anl.client.replicate("big.db"))
    assert report.stored.size == SIZE
    assert report.attempts >= 2              # the transfer was reissued
    assert moved(rgrid, "restarts") >= 1    # a marker was consumed
    # the cut killed a live flow
    assert injector.stats["pools_cancelled"] >= 1
    assert not injector.active_faults()


def test_no_marker_progress_does_not_count_as_restart(rgrid, monkeypatch):
    """While the link stays down every reissue synthesizes an empty (or
    stale) marker: those count as stalled probes, never as restarts, and
    the mover eventually abandons with the partial ranges."""
    path = _publish(rgrid, "doomed.db")
    anl = rgrid.site("anl")
    # just past the 5 s marker cadence: fast probes without declaring a
    # healthy transfer dead between two markers
    anl.gridftp_client.idle_timeout = 6.0
    monkeypatch.setattr(data_mover, "MAX_STALLED_ATTEMPTS", 2)
    monkeypatch.setattr(data_mover, "STALL_BACKOFF", 0.1)
    injector = FaultInjector(rgrid, FaultCampaign("perma-cut", (
        FaultEvent(8.0, "link_down", "wan-cern-anl"),
    )))
    injector.start()

    def fetch():
        with pytest.raises(TransferAbandoned) as exc_info:
            yield from anl.mover.fetch(
                src_host="cern",
                remote_path=path,
                local_path="/incoming/doomed.db",
                streams=2,
            )
        return exc_info.value

    abandoned = rgrid.run(until=rgrid.sim.spawn(fetch(), name="fetch"))
    assert isinstance(abandoned.partial, RangeSet)
    # one 5 s marker landed before the cut: partial progress, not zero
    assert 0 < abandoned.partial.total < SIZE
    # exactly the marker-bearing reissue counts as a restart...
    assert moved(rgrid, "restarts") >= 1
    # ...and the no-progress probes were tallied separately
    assert moved(rgrid, "stalls") >= 3
    assert moved(rgrid, "abandoned") == 1
    # the partial local file was not committed
    assert not anl.fs.exists("/incoming/doomed.db")


def test_abandoned_transfer_fails_replication_cleanly(rgrid, monkeypatch):
    """Through the full pipeline an abandoned transfer surfaces as a
    replication failure with no dangling local state, and a later
    attempt (link restored) succeeds."""
    from repro.gdmp.request_manager import GdmpError

    _publish(rgrid, "retry.db")
    anl = rgrid.site("anl")
    anl.gridftp_client.idle_timeout = 6.0
    monkeypatch.setattr(data_mover, "MAX_STALLED_ATTEMPTS", 1)
    monkeypatch.setattr(data_mover, "STALL_BACKOFF", 0.1)
    injector = FaultInjector(rgrid, FaultCampaign("long-cut", (
        FaultEvent(5.0, "link_down", "wan-cern-anl"),
        FaultEvent(120.0, "link_up", "wan-cern-anl"),
    )))
    campaign_proc = injector.start()
    with pytest.raises(GdmpError, match="replica sources failed"):
        rgrid.run(until=anl.client.replicate("retry.db"))
    assert "retry.db" not in anl.server.held
    rgrid.run(until=campaign_proc)           # link comes back
    report = rgrid.run(until=anl.client.replicate("retry.db"))
    assert report.stored.size == SIZE
    assert "retry.db" in anl.server.held
