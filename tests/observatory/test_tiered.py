"""Tiered T0/T1/T2 topology builder: shape, duplex mesh, and an
asymmetric tail built by hand."""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.replica_selection import rank_replicas
from repro.netsim.link import Link
from repro.netsim.tiered import TieredSpec, tiered_grid_spec
from repro.netsim.tools import pipechar
from repro.netsim.units import MB, mbps


def test_default_tree_shape():
    tspec = tiered_grid_spec(TieredSpec())
    assert tspec.t0 == "t0-cern"
    assert tspec.t1_sites == ("t1-0", "t1-1")
    assert tspec.t2_sites == ("t2-0a", "t2-0b", "t2-1a", "t2-1b")
    assert len(tspec.sites) == 7
    assert tspec.parents == {
        "t2-0a": "t1-0", "t2-0b": "t1-0",
        "t2-1a": "t1-1", "t2-1b": "t1-1",
    }


def test_symmetric_tails_share_one_link():
    tspec = tiered_grid_spec(TieredSpec())
    tail = [spec for spec in tspec.wan_links
            if spec[2].name.startswith("dl-")]
    assert len(tail) == 4 and all(len(spec) == 3 for spec in tail)


def _asymmetric_tail_grid():
    """The default tree with t2-0a's tail replaced by a directional pair:
    40 Mbit/s down, 4 Mbit/s up — the situation where probing the wrong
    direction misprices a source by an order of magnitude."""
    tspec = tiered_grid_spec(TieredSpec())
    down = Link("dl-t1-0-t2-0a", capacity=mbps(40.0), delay=0.010)
    up = Link("ul-t2-0a-t1-0", capacity=mbps(4.0), delay=0.010)
    wan_links = [
        ("t1-0", "t2-0a", down, up) if spec[:2] == ("t1-0", "t2-0a")
        else spec
        for spec in tspec.wan_links
    ]
    return DataGrid(
        [GdmpConfig(name) for name in tspec.sites],
        catalog_host=tspec.t0,
        wan_links=wan_links,
    )


def test_asymmetric_tail_probes_price_each_direction():
    """Wired into a grid, the uplink and downlink quote their own
    bandwidths, and ranking prices a source along the transfer
    direction: t2-0a's 4 Mbit/s uplink loses to the T0 for its sibling
    t2-0b (the downlink would have made t2-0a the nearer, equal-speed
    choice)."""
    grid = _asymmetric_tail_grid()
    t1, t2 = "t1-0", "t2-0a"
    down = pipechar(grid.topology, t1, t2).available_bandwidth
    up = pipechar(grid.topology, t2, t1).available_bandwidth
    assert down == pytest.approx(mbps(40.0))
    assert up == pytest.approx(mbps(4.0))
    ranked = rank_replicas(
        grid.topology, [{"location": t2}, {"location": "t0-cern"}],
        "t2-0b", 100 * MB,
    )
    assert [s.site for s in ranked] == ["t0-cern", t2]
    assert ranked[1].available_bandwidth == pytest.approx(mbps(4.0))


def test_mesh_is_full_duplex():
    """T1<->T1 mesh circuits carry a distinct link per direction, so
    opposing flows never contend with each other."""
    tspec = tiered_grid_spec(TieredSpec())
    mesh = [
        spec for spec in tspec.wan_links
        if spec[2].name.startswith("t1x-")
    ]
    assert len(mesh) == 1
    a, b, forward, reverse = mesh[0]
    assert (a, b) == ("t1-0", "t1-1")
    assert forward is not reverse
    assert forward.capacity == reverse.capacity == mbps(45.0)


def test_mesh_scales_with_t1_count():
    tspec = tiered_grid_spec(TieredSpec(t1_count=4, t2_per_t1=0))
    mesh = [
        spec for spec in tspec.wan_links
        if spec[2].name.startswith("t1x-")
    ]
    assert len(mesh) == 6  # 4 choose 2


def test_sibling_region_is_reached_over_the_mesh():
    """A sibling region is one mesh hop away (60 ms one way), not the
    two backbone hops through the T0 (80 ms)."""
    tspec = tiered_grid_spec(TieredSpec())
    grid = DataGrid(
        [GdmpConfig(name) for name in tspec.sites],
        catalog_host=tspec.t0,
        wan_links=list(tspec.wan_links),
    )
    hops = [
        link.name for link in grid.topology.route("t2-0a", "t2-1a")
    ]
    assert hops == ["dl-t1-0-t2-0a", "t1x-t1-0-t1-1", "dl-t1-1-t2-1a"]
    hops = [link.name for link in grid.topology.route("t2-0a", "t0-cern")]
    assert hops == ["dl-t1-0-t2-0a", "bb-t0-cern-t1-0"]


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        TieredSpec(t1_count=0)
    with pytest.raises(ValueError):
        TieredSpec(t2_per_t1=-1)
