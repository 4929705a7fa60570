"""Tests for cost-function replica selection ([VTF01] future work)."""

from types import SimpleNamespace

import pytest

from repro.gdmp import DataGrid, GdmpConfig, choose_replica
from repro.gdmp.replica_selection import (
    PipeWidth,
    estimate_transfer_time,
    pipe_width,
    rank_replicas,
)
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import MB, mbps
from repro.observatory.station import SiteWeather, WeatherConfig


@pytest.fixture
def uneven_topology():
    """dst connected to a nearby fast site and a distant slow one."""
    topo = Topology()
    for name in ("dst", "near", "far"):
        topo.add_host(Host(name))
    topo.connect("dst", "near", Link("l-near", capacity=mbps(100), delay=0.005))
    topo.connect("dst", "far", Link("l-far", capacity=mbps(45), delay=0.0625,
                                    cross_traffic=mbps(20)))
    return topo


def locations(*sites):
    return [{"location": s, "hostname": s, "url": f"gsiftp://{s}/x"} for s in sites]


def test_estimate_includes_setup_and_streaming(uneven_topology):
    score = estimate_transfer_time(uneven_topology, "far", "dst", 100 * MB)
    assert score.rtt == pytest.approx(0.125)
    assert score.available_bandwidth == pytest.approx(mbps(25))
    assert score.estimated_time == pytest.approx(5 * 0.125 + 100 * MB / mbps(25))


def test_nearby_fast_replica_wins(uneven_topology):
    choice = choose_replica(
        uneven_topology, locations("near", "far"), "dst", 100 * MB
    )
    assert choice.site == "near"


def test_destination_itself_is_not_a_candidate(uneven_topology):
    choice = choose_replica(
        uneven_topology, locations("dst", "far"), "dst", 1 * MB
    )
    assert choice.site == "far"


def test_unreachable_sites_are_skipped(uneven_topology):
    uneven_topology.add_host(Host("island"))
    choice = choose_replica(
        uneven_topology, locations("island", "near"), "dst", 1 * MB
    )
    assert choice.site == "near"


def test_no_candidates_raises(uneven_topology):
    with pytest.raises(ValueError, match="no usable replica"):
        choose_replica(uneven_topology, locations("dst"), "dst", 1 * MB)
    with pytest.raises(ValueError):
        choose_replica(uneven_topology, [], "dst", 1 * MB)


@pytest.fixture
def asymmetric_topology():
    """Candidates whose two directions are priced very differently:
    ``a``'s uplink toward dst is slim but its downlink is fat, ``b`` the
    other way around — probing the wrong direction inverts the ranking."""
    topo = Topology()
    for name in ("dst", "a", "b"):
        topo.add_host(Host(name))
    topo.connect(
        "a", "dst",
        Link("ul-a-dst", capacity=mbps(5), delay=0.01),
        Link("dl-dst-a", capacity=mbps(100), delay=0.01),
    )
    topo.connect(
        "b", "dst",
        Link("ul-b-dst", capacity=mbps(50), delay=0.01),
        Link("dl-dst-b", capacity=mbps(10), delay=0.01),
    )
    return topo


def test_probe_prices_the_transfer_direction(asymmetric_topology):
    """The estimate must probe src -> dst (the direction the bytes will
    flow), not the reverse path the old selector priced."""
    score = estimate_transfer_time(asymmetric_topology, "a", "dst", 10 * MB)
    assert score.available_bandwidth == pytest.approx(mbps(5))
    score = estimate_transfer_time(asymmetric_topology, "b", "dst", 10 * MB)
    assert score.available_bandwidth == pytest.approx(mbps(50))


def test_asymmetric_tails_do_not_invert_the_ranking(asymmetric_topology):
    """Reverse-direction probing would quote a at 100 Mbit/s and b at
    10 and pick the slow source; the transfer-direction probe picks b."""
    choice = choose_replica(
        asymmetric_topology, locations("a", "b"), "dst", 100 * MB
    )
    assert choice.site == "b"


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


def _digest(dst, sources, now, config):
    return {
        "site": dst,
        "as_of": now,
        "sources": {
            src: {
                "bins": [throughput] * config.bins,
                "ewma": throughput,
                "rtt": 0.02,
                "confidence": 0.9,
                "samples": 8,
            }
            for src, throughput in sources.items()
        },
    }


def test_confident_history_overrides_the_probe(uneven_topology):
    """A fresh forecast saying the probe-preferred source is starved
    flips the ranking, and the scores carry history provenance."""
    config = WeatherConfig()
    clock = _Clock(now=100.0)
    cache = SiteWeather("dst", config, clock)
    # history: "near" achieves a trickle, "far" runs near capacity
    assert cache.apply_digest(_digest(
        "dst", {"near": mbps(1) / 8, "far": mbps(30) / 8}, 100.0, config,
    ))
    ranked = rank_replicas(
        uneven_topology, locations("near", "far"), "dst", 100 * MB,
        weather=cache,
    )
    assert [s.site for s in ranked] == ["far", "near"]
    assert all(s.basis == "history" for s in ranked)
    # the same ranking without history stays probe-ordered
    probed = rank_replicas(
        uneven_topology, locations("near", "far"), "dst", 100 * MB,
    )
    assert [s.site for s in probed] == ["near", "far"]


def test_stale_history_degrades_to_the_probe_ladder(uneven_topology):
    """A cache older than the staleness horizon is not consulted: the
    ranking reduces to the pure-probe order and says so."""
    config = WeatherConfig(staleness_horizon=30.0)
    clock = _Clock(now=0.0)
    cache = SiteWeather("dst", config, clock)
    assert cache.apply_digest(_digest(
        "dst", {"near": mbps(1) / 8, "far": mbps(30) / 8}, 0.0, config,
    ))
    clock.now = 31.0  # past the horizon
    ranked = rank_replicas(
        uneven_topology, locations("near", "far"), "dst", 100 * MB,
        weather=cache,
    )
    assert [s.site for s in ranked] == ["near", "far"]
    assert all(s.basis == "probe" for s in ranked)
    # ranking decides nothing; a replicate() counts its selection
    # (tests/observatory/test_weather_grid.py)
    assert cache.stats["probe_fallbacks"] == 0
    assert cache.stats["history_selections"] == 0


def test_replication_uses_nearest_source_in_grid():
    """In a grid where one source's link is congested, selection still
    works (full-mesh identical links: any non-self site is valid)."""
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")]
    )
    cern = grid.site("cern")
    grid.run(until=cern.client.produce_and_publish("sel.db", 2 * MB))
    report = grid.run(until=grid.site("caltech").client.replicate("sel.db"))
    assert report.source == "cern"


# -- the width of a site's pipe -----------------------------------------------

def _paced(source, pace):
    """All of a ReplicationReport that the width reads."""
    return SimpleNamespace(source=source, throughput=pace)


def test_no_report_means_one_solo_set(uneven_topology):
    assert pipe_width(uneven_topology, "dst", []) == PipeWidth()
    assert PipeWidth().width == 1
    # a set that skipped every file (all held) reports nothing either
    known = PipeWidth(width=3, source="far", pace=1.2 * MB, bandwidth=mbps(25))
    assert pipe_width(uneven_topology, "dst", [], known) == known


def test_width_is_the_ceiling_of_probed_bandwidth_over_best_pace(
    uneven_topology,
):
    # far -> dst: 45 - 20 Mbit/s of cross-traffic = 3.125 MB/s to fill
    pipe = pipe_width(uneven_topology, "dst", [
        _paced("far", 0.7 * MB), _paced("far", 1.0 * MB), _paced("far", 0.2 * MB),
    ])
    assert pipe == PipeWidth(
        width=4, source="far", pace=1.0 * MB, bandwidth=mbps(25)
    )
    # an exact multiple is not rounded up past itself
    assert pipe_width(
        uneven_topology, "dst", [_paced("far", mbps(25) / 2)]
    ).width == 2
    # the pipe priced is the one the best file came in over
    assert pipe_width(
        uneven_topology, "dst", [_paced("far", 1.0 * MB), _paced("near", 5.0 * MB)]
    ) == PipeWidth(width=3, source="near", pace=5.0 * MB, bandwidth=mbps(100))


def test_width_never_reads_below_one(uneven_topology):
    # one stream already outruns the probe (a quiet moment of cross-traffic)
    assert pipe_width(
        uneven_topology, "dst", [_paced("far", 10.0 * MB)]
    ).width == 1


def test_the_best_pace_is_kept_across_sets(uneven_topology):
    first = pipe_width(uneven_topology, "dst", [_paced("far", 2.0 * MB)])
    assert first.width == 2
    # later sets share the pipe with each other: slower files change nothing
    assert pipe_width(
        uneven_topology, "dst", [_paced("far", 1.1 * MB)], first
    ) == first
    # a better one narrows it
    assert pipe_width(
        uneven_topology, "dst", [_paced("far", 3.2 * MB)], first
    ).width == 1


def test_unroutable_best_source_leaves_the_previous_width(uneven_topology):
    uneven_topology.add_host(Host("island"))
    first = pipe_width(uneven_topology, "dst", [_paced("far", 1.0 * MB)])
    assert pipe_width(
        uneven_topology, "dst", [_paced("island", 9.0 * MB)], first
    ) == first
    assert pipe_width(
        uneven_topology, "dst", [_paced("island", 9.0 * MB)]
    ) == PipeWidth()
