"""Replaying a campaign: what a down window does to the data plane."""

import pytest

from repro.faults import FaultCampaign, FaultEvent, FaultInjector
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.engine import TransferAborted
from repro.netsim.units import MB


def test_a_link_down_window_refuses_new_flows_without_a_watchdog(born):
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    injector = FaultInjector(grid, FaultCampaign("cut", (
        FaultEvent(1.0, "link_down", "wan-cern-anl"),
        FaultEvent(30.0, "link_up", "wan-cern-anl"),
    )))
    injector.start()
    grid.run(until=2.0)
    pool = grid.engine.open_transfer("cern", "anl", nbytes=10 * MB, streams=2)
    with pytest.raises(TransferAborted) as refused:
        grid.run(until=pool.done)
    assert refused.value.delivered == 0
    grid.run(until=20.0)
    assert [process.name for process in born
            if process.name.startswith("fault-watchdog")] == []
    assert injector.active_faults() == {("link", "wan-cern-anl"): 1}
    grid.run(until=31.0)
    after = grid.engine.open_transfer("cern", "anl", nbytes=1 * MB)
    grid.run(until=after.done)
    assert after.exhausted
