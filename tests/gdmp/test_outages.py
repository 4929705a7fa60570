"""Tests for host outages, dropped messages, and RPC timeouts."""

import pytest

from repro.netsim.units import MB
from repro.services import CallTimeout


def test_call_to_down_host_times_out(grid):
    anl = grid.site("anl")
    grid.msgnet.set_host_down("cern")
    with pytest.raises(CallTimeout, match="no reply within") as raised:
        grid.run(
            until=anl.request_client.call("cern", "get_catalog", {}, timeout=5.0)
        )
    assert str(raised.value) == "get_catalog@cern: no reply within 5.0s"
    assert raised.value.retryable is True
    assert grid.sim.now >= 5.0
    assert grid.msgnet.dropped_messages >= 1
    assert anl.request_client.stats["call_timeouts"] == 1


def test_recovered_host_answers_again(grid):
    anl = grid.site("anl")
    grid.msgnet.set_host_down("cern")
    with pytest.raises(CallTimeout):
        grid.run(
            until=anl.request_client.call("cern", "get_catalog", {}, timeout=2.0)
        )
    grid.msgnet.set_host_down("cern", down=False)
    result = grid.run(
        until=anl.request_client.call("cern", "get_catalog", {}, timeout=2.0)
    )
    assert result == {}


def test_call_without_timeout_still_works(grid):
    anl = grid.site("anl")
    result = grid.run(until=anl.request_client.call("cern", "get_catalog", {}))
    assert result == {}


def test_down_source_does_not_block_other_sites(grid3):
    cern = grid3.site("cern")
    grid3.run(until=cern.client.produce_and_publish("f.db", 2 * MB))
    grid3.run(until=grid3.site("anl").client.replicate("f.db"))
    # cern crashes; caltech can still query the catalog? no — the catalog
    # lives at cern in this grid.  But anl's own server still answers:
    grid3.msgnet.set_host_down("cern")
    catalog = grid3.run(
        until=grid3.site("caltech").client.get_remote_catalog("anl")
    )
    assert "f.db" in catalog


def test_late_reply_after_timeout_is_dropped(grid):
    """A reply arriving after the caller gave up must not corrupt a later
    call's reply stream."""
    anl = grid.site("anl")
    # timeout shorter than the WAN round trip: the reply WILL arrive late
    with pytest.raises(CallTimeout):
        grid.run(
            until=anl.request_client.call(
                "cern", "get_catalog", {}, timeout=0.050
            )
        )
    grid.run()  # the late reply lands now and must be discarded
    result = grid.run(until=anl.request_client.call("cern", "subscribe",
                                                    {"site": "anl"}))
    assert result == ["anl"]


def test_host_down_validation(grid):
    with pytest.raises(KeyError):
        grid.msgnet.set_host_down("atlantis")
    grid.msgnet.set_host_down("cern")
    assert grid.msgnet.is_host_down("cern")
    grid.msgnet.set_host_down("cern", down=False)
    assert not grid.msgnet.is_host_down("cern")
