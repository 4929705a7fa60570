"""Unit tests for Link queue dynamics and the TCP Reno window model."""

import pytest

from repro.netsim.link import Link
from repro.netsim.tcp import MSS, TcpParams, TcpState
from repro.netsim.units import KiB, mbps


# ---------------------------------------------------------------- Link ----
def test_link_validation():
    with pytest.raises(ValueError):
        Link("bad", capacity=0, delay=0.01)
    with pytest.raises(ValueError):
        Link("bad", capacity=100, delay=-1)
    with pytest.raises(ValueError):
        Link("bad", capacity=100, delay=0, cross_traffic=100)
    with pytest.raises(ValueError):
        Link("bad", capacity=100, delay=0, loss_rate=1.0)


def test_queue_builds_when_overdriven():
    link = Link("l", capacity=1000, delay=0.01, queue_capacity=500)
    dropped = link.advance_queue(offered_rate=1500, dt=0.5)
    # 500 excess bytes arrive in 0.5s -> 250 queued, under the 500 cap
    assert dropped == 0
    assert link.queue == pytest.approx(250)


def test_queue_overflow_drops():
    link = Link("l", capacity=1000, delay=0.01, queue_capacity=100)
    dropped = link.advance_queue(offered_rate=2000, dt=1.0)
    # 1000 excess bytes, queue holds 100 -> 900 dropped
    assert dropped == pytest.approx(900)
    assert link.queue == 100


def test_queue_drains_when_underdriven():
    link = Link("l", capacity=1000, delay=0.01, queue_capacity=500)
    link.advance_queue(offered_rate=2000, dt=0.4)  # queue = 400
    link.advance_queue(offered_rate=0, dt=0.2)     # drains 200
    assert link.queue == pytest.approx(200)
    link.advance_queue(offered_rate=0, dt=10)
    assert link.queue == 0


def test_queueing_delay():
    link = Link("l", capacity=mbps(45), delay=0.0625, queue_capacity=10**6)
    link.queue = mbps(45) * 0.01  # 10 ms worth of bytes
    assert link.queueing_delay == pytest.approx(0.01)


def test_available_capacity_subtracts_cross_traffic():
    link = Link("l", capacity=1000, delay=0, cross_traffic=400)
    assert link.available_capacity == 600


# ---------------------------------------------------------------- TCP -----
def test_tcp_params_validation():
    with pytest.raises(ValueError):
        TcpParams(buffer=MSS - 1)
    assert TcpParams(buffer=MSS).buffer == MSS == 1460


def test_window_clamped_by_buffer():
    state = TcpState(TcpParams(buffer=64 * KiB))
    for _ in range(50):
        state.on_round(loss=False)
    assert state.window == 64 * KiB


def test_slow_start_doubles():
    state = TcpState(TcpParams(buffer=1024 * KiB))
    w0 = state.cwnd
    state.on_round(loss=False)
    assert state.cwnd == pytest.approx(2 * w0)
    assert state.cwnd < state.ssthresh  # still in slow start


def test_loss_halves_window_and_enters_congestion_avoidance():
    state = TcpState(TcpParams(buffer=64 * KiB))
    for _ in range(20):
        state.on_round(loss=False)
    w = state.window
    state.on_round(loss=True)
    assert state.window == pytest.approx(w / 2)
    assert state.cwnd >= state.ssthresh  # congestion avoidance
    # linear growth afterwards: +MSS per round
    w_after = state.cwnd
    state.on_round(loss=False)
    assert state.cwnd == pytest.approx(w_after + MSS)


def test_timeout_collapses_to_initial_window():
    state = TcpState(TcpParams(buffer=1024 * KiB))
    for _ in range(8):
        state.on_round(loss=False)
    state.on_round(loss=True, timeout=True)
    assert state.cwnd == 2 * MSS
    assert state.cwnd < state.ssthresh  # still in slow start
    assert state.timeouts == 1


def test_halving_floor_two_mss():
    state = TcpState(TcpParams(buffer=4 * MSS))
    for _ in range(10):
        state.on_round(loss=True)
    assert state.window >= 2 * MSS


def test_cwnd_bounded_by_twice_buffer():
    params = TcpParams(buffer=8 * 1460)
    state = TcpState(params)
    for _ in range(100):
        state.on_round(loss=False)
    assert state.cwnd <= 2 * params.buffer
