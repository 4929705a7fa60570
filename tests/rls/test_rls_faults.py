"""RLS-aimed fault kinds: prefix black-holes, campaign determinism."""

import pytest

from repro.faults import FaultInjector, rli_blackhole_campaign
from repro.gdmp import DataGrid, GdmpConfig
from repro.simulation.randomness import RandomStreams

from .conftest import FAST_DIGESTS, converge, publish


def test_rli_blackhole_spares_colocated_catalog(rls_grid):
    """Black-holing ``rli.*`` at cern must leave cern's own LRC fully
    answerable — catalog writes and probes still land.  (That the digest
    pushes into the hole are lost and later folded forward is pinned in
    ``tests/services/test_softstate.py``.)"""
    grid = rls_grid
    publish(grid, "anl", "before.dat")
    converge(grid)
    grid.msgnet.set_service_down("cern", "gdmp", True, prefix="rli.")

    # cern's LRC (same host as the dead RLI) still takes writes
    publish(grid, "cern", "during.dat")
    assert grid.rls.backends["cern"].lfn_exists("during.dat")

    # readers degrade: RLI timeout -> verify-on-use broadcast, correct answer
    reader = grid.site("anl").client.catalog
    info = grid.run(until=reader.info("during.dat"))
    assert {loc["location"] for loc in info.locations} == {"cern"}
    assert reader.stats["rli_unavailable"] >= 1

    grid.run(until=grid.sim.timeout(FAST_DIGESTS.period * 3))

    # after the window closes the re-pushed digests converge the index
    grid.msgnet.set_service_down("cern", "gdmp", False, prefix="rli.")
    grid.run(until=grid.sim.timeout(FAST_DIGESTS.period * 5))
    assert "cern" in grid.rls.index.candidate_sites("during.dat")


def test_prefix_blackholes_are_independent(rls_grid):
    """Raising and clearing ``rli.`` must not disturb a concurrent
    ``catalog.`` black-hole on the same endpoint."""
    grid = rls_grid
    net = grid.msgnet
    net.set_service_down("cern", "gdmp", True, prefix="rli.")
    net.set_service_down("cern", "gdmp", True, prefix="catalog.")
    net.set_service_down("cern", "gdmp", False, prefix="rli.")

    dropped_before = net.dropped_messages
    with pytest.raises(Exception):
        publish(grid, "cern", "blackholed.dat")  # catalog.* still dead
    assert net.dropped_messages > dropped_before

    net.set_service_down("cern", "gdmp", False, prefix="catalog.")
    publish(grid, "cern", "restored.dat")
    assert grid.rls.backends["cern"].lfn_exists("restored.dat")


def test_rli_fault_kinds_require_an_rls_grid():
    central = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl")], catalog_host="cern"
    )
    campaign = rli_blackhole_campaign(RandomStreams(7), "cern")
    injector = FaultInjector(central, campaign)
    with pytest.raises(ValueError, match="no replica location service"):
        central.run(until=injector.start())


def test_rli_campaign_schedule_is_seed_deterministic():
    one = rli_blackhole_campaign(RandomStreams(2001), "cern")
    two = rli_blackhole_campaign(RandomStreams(2001), "cern")
    other = rli_blackhole_campaign(RandomStreams(2002), "cern")
    assert one.schedule_repr() == two.schedule_repr()
    assert one.schedule_repr() != other.schedule_repr()
    kinds = {event.kind for event in one.events}
    assert {"rli_blackhole", "rli_restore", "digest_loss",
            "digest_restore"} <= kinds
