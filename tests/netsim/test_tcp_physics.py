"""Physics validation of the fluid TCP model against known TCP behaviour."""

import pytest

from repro.netsim import TcpParams, to_mbps
from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import KiB, MB, MiB, mbps
from repro.simulation import Simulator


def loss_limited_rate(loss_rate, seed=0, size=60 * MB):
    """Single-stream throughput on an uncongested fat link: the only
    limit is the random loss (Mathis-law regime)."""
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("l", capacity=mbps(1000), delay=0.0625,
                                loss_rate=loss_rate))
    engine = NetworkEngine(sim, topo, seed=seed)
    pool = engine.open_transfer("a", "b", nbytes=size, streams=1,
                                tcp=TcpParams(buffer=64 * MiB))
    sim.run(until=pool.done)
    return pool.throughput()


def test_throughput_scales_roughly_with_inverse_sqrt_loss():
    """Mathis et al.: T ~ MSS / (RTT * sqrt(p)).  Quadrupling the loss
    should roughly halve the throughput (averaged over loss realizations,
    in the loss-dominated regime where the law applies)."""

    def mean_rate(p):
        return sum(loss_limited_rate(p, seed=s) for s in range(4)) / 4

    rates = {p: mean_rate(p) for p in (4e-4, 16e-4, 64e-4)}
    ratio_a = rates[4e-4] / rates[16e-4]
    ratio_b = rates[16e-4] / rates[64e-4]
    assert 1.5 < ratio_a < 2.8
    assert 1.5 < ratio_b < 2.8


def test_window_limited_rate_matches_buffer_over_rtt():
    """With no loss, a small buffer pins throughput at buffer/RTT."""
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("l", capacity=mbps(1000), delay=0.05))
    engine = NetworkEngine(sim, topo, seed=0)
    buffer = 128 * KiB
    pool = engine.open_transfer("a", "b", nbytes=40 * MB, streams=1,
                                tcp=TcpParams(buffer=buffer))
    sim.run(until=pool.done)
    predicted = buffer / 0.1  # window / RTT
    assert pool.throughput() == pytest.approx(predicted, rel=0.1)


def test_rtt_fairness_shorter_rtt_wins():
    """Two loss-limited flows sharing a bottleneck: classic TCP RTT
    unfairness — the short-RTT flow gets more."""
    sim = Simulator()
    topo = Topology()
    for name in ("near", "far", "dst"):
        topo.add_host(Host(name))
    # both paths end in the same 20 Mbps bottleneck to dst
    topo.add_host(Host("mid"))
    topo.connect("near", "mid", Link("l1", capacity=mbps(100), delay=0.005))
    topo.connect("far", "mid", Link("l2", capacity=mbps(100), delay=0.08))
    topo.connect("mid", "dst", Link("l3", capacity=mbps(20), delay=0.005,
                                    queue_capacity=64 * KiB))
    engine = NetworkEngine(sim, topo, seed=5)
    near = engine.open_transfer("near", "dst", nbytes=30 * MB, streams=1,
                                tcp=TcpParams(buffer=4 * MiB))
    far = engine.open_transfer("far", "dst", nbytes=30 * MB, streams=1,
                               tcp=TcpParams(buffer=4 * MiB))
    sim.run()
    assert near.completed_at < far.completed_at


def test_no_loss_no_contention_saturates_link():
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("l", capacity=mbps(10), delay=0.01,
                                queue_capacity=256 * KiB))
    engine = NetworkEngine(sim, topo, seed=0)
    pool = engine.open_transfer("a", "b", nbytes=30 * MB, streams=2,
                                tcp=TcpParams(buffer=1 * MiB))
    sim.run(until=pool.done)
    assert to_mbps(pool.throughput()) > 8.5


def _two_megabytes(congestion):
    """2 MB over a clean 40 Mbit/s, 20 ms path (BDP 100 KB) on one
    stream whose buffer covers the BDP."""
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("l", capacity=mbps(40), delay=0.01))
    engine = NetworkEngine(sim, topo, seed=0)
    pool = engine.new_pool(2 * MB)
    flow = engine.open_flow("a", "b", pool=pool,
                            tcp=TcpParams(buffer=128 * KiB),
                            congestion=congestion)
    sim.run(until=pool.done)
    assert flow.delivered == pool.delivered == 2 * MB
    assert pool.remaining == 0.0
    return pool.completed_at - pool.started_at


def test_seeded_flow_skips_slow_start():
    """A stream that opens with its window already at the BDP moves a
    short file at link speed; a cold one spends a quarter again of that
    time getting there (Fig. 5's short-transfer penalty)."""
    from repro.netsim import CongestionState

    ideal = 2 * MB / mbps(40)
    warm = _two_megabytes(CongestionState(128.0 * KiB, 128.0 * KiB))
    cold = _two_megabytes(None)
    assert warm == pytest.approx(ideal, rel=0.05)
    assert cold >= 1.25 * ideal


def test_seed_is_clamped_to_buffer_and_initial_window():
    from repro.netsim import CongestionState, TcpState

    params = TcpParams(buffer=64 * KiB)
    fresh = TcpState(params)
    huge = TcpState(params, resume=CongestionState(1e12, 1e12))
    assert huge.cwnd == huge.ssthresh == 64 * KiB
    tiny = TcpState(params, resume=CongestionState(0.0, 0.0))
    assert tiny.cwnd == tiny.ssthresh == fresh.cwnd
    kept = TcpState(params, resume=CongestionState(30000.0, 20000.0))
    assert kept.congestion == CongestionState(30000.0, 20000.0)
