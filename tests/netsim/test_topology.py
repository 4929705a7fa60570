import pytest

from repro.netsim.link import Link
from repro.netsim.topology import RouteError, Topology
from repro.netsim.units import mbps


def lan(name):
    return Link(name, capacity=mbps(1000), delay=0.0005)


def wan(name, capacity_mbps=45):
    return Link(name, capacity=mbps(capacity_mbps), delay=0.0625)


@pytest.fixture
def grid():
    topo = Topology()
    for site in ["cern", "anl", "caltech"]:
        topo.add_host(site)
    topo.connect("cern", "anl", wan("cern-anl"))
    topo.connect("cern", "caltech", wan("cern-caltech", capacity_mbps=20))
    return topo


def test_route_direct(grid):
    links = grid.route("cern", "anl")
    assert [l.name for l in links] == ["cern-anl"]


def test_route_multi_hop(grid):
    links = grid.route("anl", "caltech")
    assert [l.name for l in links] == ["cern-anl", "cern-caltech"]


def test_route_to_self_is_empty(grid):
    assert grid.route("cern", "cern") == []


def test_base_rtt(grid):
    assert grid.base_rtt("cern", "anl") == pytest.approx(0.125)
    assert grid.base_rtt("anl", "caltech") == pytest.approx(0.25)


def test_bottleneck_is_min_capacity(grid):
    assert grid.bottleneck("anl", "caltech").name == "cern-caltech"


def test_bottleneck_same_host_rejected(grid):
    with pytest.raises(RouteError):
        grid.bottleneck("cern", "cern")


def test_unknown_host_rejected(grid):
    with pytest.raises(KeyError):
        grid.route("cern", "slac")
    with pytest.raises(KeyError):
        grid.host("slac")


def test_no_route_raises():
    topo = Topology()
    topo.add_host("a")
    topo.add_host("b")
    with pytest.raises(RouteError):
        topo.route("a", "b")


def test_duplicate_host_rejected(grid):
    with pytest.raises(ValueError):
        grid.add_host("cern")


def test_duplicate_edge_rejected(grid):
    with pytest.raises(ValueError):
        grid.connect("cern", "anl", wan("dup"))


def test_reset_drains_queues(grid):
    link = grid.route("cern", "anl")[0]
    link.queue = 1000
    grid.reset()
    assert link.queue == 0


def test_hosts_and_links_listing(grid):
    assert {h.name for h in grid.hosts} == {"cern", "anl", "caltech"}
    assert len(grid.links) == 2
