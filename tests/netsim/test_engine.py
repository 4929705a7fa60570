"""Behavioural tests of the flow engine against the calibrated testbed.

These assert the *physics* the Figure 5/6 benchmarks rely on: window-limited
throughput, parallel-stream scaling, slow-start penalty for small files,
buffer tuning, and rate caps.
"""

import pytest

from repro.netsim import (
    TcpParams,
    TestbedParams,
    cern_anl_testbed,
    to_mbps,
)
from repro.netsim.channels import MessageNetwork
from repro.netsim.engine import NetworkEngine, TransferAborted
from repro.netsim.link import Link
from repro.netsim.topology import Topology
from repro.netsim.units import KiB, MB, mbps
from repro.simulation import Simulator


def transfer_mbps(size_bytes, streams, buffer, params=None):
    sim, _topo, engine = cern_anl_testbed(params)
    pool = engine.open_transfer(
        "cern", "anl", nbytes=size_bytes, streams=streams,
        tcp=TcpParams(buffer=buffer),
    )
    sim.run(until=pool.done)
    return to_mbps(pool.throughput())


def test_transfer_completes_and_delivers_exact_bytes():
    sim, _topo, engine = cern_anl_testbed()
    pool = engine.open_transfer("cern", "anl", nbytes=10 * MB, streams=4)
    sim.run(until=pool.done)
    assert pool.delivered == pytest.approx(10 * MB)
    assert pool.remaining == 0
    assert pool.completed_at > pool.started_at


def test_untuned_single_stream_is_window_limited():
    # 64 KiB / 125 ms = 4.19 Mbps; observed slightly below due to slow start.
    rate = transfer_mbps(100 * MB, 1, 64 * KiB)
    assert 3.5 < rate < 4.3


def test_untuned_streams_scale_nearly_linearly_then_plateau():
    r1 = transfer_mbps(100 * MB, 1, 64 * KiB)
    r3 = transfer_mbps(100 * MB, 3, 64 * KiB)
    r9 = transfer_mbps(100 * MB, 9, 64 * KiB)
    assert r3 == pytest.approx(3 * r1, rel=0.15)
    assert 20 < r9 < 26          # the paper's ≈23 Mbps plateau
    assert r9 < 9 * r1 * 0.8     # well below linear: the link saturated


def test_tuned_single_stream_beats_untuned_by_factor_4plus():
    untuned = transfer_mbps(100 * MB, 1, 64 * KiB)
    tuned = transfer_mbps(100 * MB, 1, 1024 * KiB)
    assert tuned > 4 * untuned


def test_tuned_three_streams_gain_about_25_percent():
    t1 = transfer_mbps(100 * MB, 1, 1024 * KiB)
    t3 = transfer_mbps(100 * MB, 3, 1024 * KiB)
    assert 1.10 < t3 / t1 < 1.45


def test_small_file_pays_slow_start():
    small = transfer_mbps(1 * MB, 1, 1024 * KiB)
    large = transfer_mbps(100 * MB, 1, 1024 * KiB)
    assert small < 0.5 * large


def test_more_streams_cannot_exceed_available_bandwidth():
    params = TestbedParams()
    rate = transfer_mbps(100 * MB, 10, 1024 * KiB, params)
    assert rate <= params.capacity_mbps - params.cross_traffic_mbps + 1.0


def test_deterministic_given_seed():
    a = transfer_mbps(50 * MB, 4, 64 * KiB)
    b = transfer_mbps(50 * MB, 4, 64 * KiB)
    assert a == pytest.approx(b)


def test_different_seed_changes_loss_realization():
    a = transfer_mbps(50 * MB, 1, 1024 * KiB, TestbedParams(seed=1))
    b = transfer_mbps(50 * MB, 1, 1024 * KiB, TestbedParams(seed=2))
    assert a != pytest.approx(b, rel=1e-6)


def test_rate_cap_limits_flow():
    sim, _topo, engine = cern_anl_testbed()
    cap = mbps(1.0)
    pool = engine.new_pool(5 * MB)
    engine.open_flow("cern", "anl", pool=pool, rate_cap=cap,
                     tcp=TcpParams(buffer=1024 * KiB))
    sim.run(until=pool.done)
    assert to_mbps(pool.throughput()) <= 1.05


def test_two_transfers_share_the_bottleneck():
    sim, _topo, engine = cern_anl_testbed()
    a = engine.open_transfer("cern", "anl", nbytes=50 * MB, streams=3,
                             tcp=TcpParams(buffer=1024 * KiB))
    b = engine.open_transfer("cern", "anl", nbytes=50 * MB, streams=3,
                             tcp=TcpParams(buffer=1024 * KiB))
    sim.run(until=a.done)
    sim.run(until=b.done)
    total_rate = to_mbps((a.size + b.size) / max(a.completed_at, b.completed_at))
    assert total_rate < 26  # bounded by the shared available bandwidth


def test_reverse_direction_flow_works():
    sim, _topo, engine = cern_anl_testbed()
    pool = engine.open_transfer("anl", "cern", nbytes=5 * MB, streams=2)
    sim.run(until=pool.done)
    assert pool.exhausted


def test_open_flow_argument_validation():
    sim, _topo, engine = cern_anl_testbed()
    with pytest.raises(ValueError):
        engine.open_flow("cern", "anl")  # neither nbytes nor pool
    pool = engine.new_pool(1 * MB)
    with pytest.raises(ValueError):
        engine.open_flow("cern", "anl", nbytes=1 * MB, pool=pool)
    with pytest.raises(ValueError):
        engine.open_flow("cern", "cern", nbytes=1 * MB)
    with pytest.raises(ValueError):
        engine.open_transfer("cern", "anl", nbytes=1 * MB, streams=0)


def test_pool_throughput_before_completion_raises():
    sim, _topo, engine = cern_anl_testbed()
    pool = engine.open_transfer("cern", "anl", nbytes=100 * MB, streams=1)
    with pytest.raises(RuntimeError):
        pool.throughput()


def test_flow_sequential_after_completion_engine_restarts():
    sim, _topo, engine = cern_anl_testbed()
    first = engine.open_transfer("cern", "anl", nbytes=2 * MB, streams=1)
    sim.run(until=first.done)
    second = engine.open_transfer("cern", "anl", nbytes=2 * MB, streams=1)
    sim.run(until=second.done)
    assert second.exhausted
    assert second.completed_at > first.completed_at


# ------------------------------------------------------- down elements ----
def refused(sim, pool):
    """Run the pool to its end; the bytes it delivered if it was
    refused (and None if it completed)."""
    try:
        sim.run(until=pool.done)
    except TransferAborted as exc:
        return exc.delivered
    return None


@pytest.mark.parametrize("fault", [
    pytest.param(lambda m: m.set_link_down("wan-cern-anl"), id="link-down"),
    pytest.param(lambda m: m.set_host_down("cern"), id="source-down"),
    pytest.param(lambda m: m.set_host_down("anl"), id="destination-down"),
])
def test_a_flow_across_a_down_element_fails_its_pool_before_a_byte_moves(
        fault):
    sim, topo, engine = cern_anl_testbed()
    fault(MessageNetwork(sim, topo))  # the one record both networks read
    pool = engine.open_transfer("cern", "anl", nbytes=10 * MB, streams=4)
    assert engine.active_flows == ()
    assert refused(sim, pool) == 0
    assert pool.delivered == 0 and sim.now == 0


def test_a_refused_stripe_fails_the_streams_already_open_on_its_pool():
    sim = Simulator()
    topo = Topology()
    for name in ("dn1", "dn2", "dst"):
        topo.add_host(name)
    topo.connect("dn1", "dst", Link("l1", capacity=mbps(100), delay=0.01))
    topo.connect("dn2", "dst", Link("l2", capacity=mbps(100), delay=0.01))
    engine = NetworkEngine(sim, topo)
    topo.down.add("l2")
    pool = engine.new_pool(10 * MB)
    engine.open_flow("dn1", "dst", pool=pool)
    assert len(engine.active_flows) == 1
    engine.open_flow("dn2", "dst", pool=pool)   # refused: fails dn1's too
    engine.open_flow("dn1", "dst", pool=pool)   # refused with its pool
    assert engine.active_flows == ()
    assert refused(sim, pool) == 0
    topo.down.discard("l2")                     # back up: flows open again
    again = engine.open_transfer("dn2", "dst", nbytes=1 * MB)
    assert refused(sim, again) is None and again.exhausted
