"""Property-based tests on network-engine invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import TcpParams, TestbedParams, cern_anl_testbed
from repro.netsim.tcp import MSS, TcpState
from repro.netsim.units import KiB, MB, mbps


@settings(max_examples=25, deadline=None)
@given(
    size_mb=st.integers(min_value=1, max_value=40),
    streams=st.integers(min_value=1, max_value=10),
    buffer_kib=st.sampled_from([16, 64, 256, 1024]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_transfer_conserves_bytes_and_respects_capacity(
    size_mb, streams, buffer_kib, seed
):
    params = TestbedParams(seed=seed)
    sim, _topo, engine = cern_anl_testbed(params)
    pool = engine.open_transfer(
        "cern", "anl", nbytes=size_mb * MB, streams=streams,
        tcp=TcpParams(buffer=buffer_kib * KiB),
    )
    sim.run(until=pool.done)
    # exact byte conservation
    assert abs(pool.delivered - size_mb * MB) < 1e-6
    # goodput can never exceed the raw line rate
    assert pool.throughput() <= mbps(45) * 1.001
    # time moved forward at least the bandwidth bound
    elapsed = pool.completed_at - pool.started_at
    assert elapsed >= size_mb * MB / mbps(45) * 0.999


@settings(max_examples=50, deadline=None)
@given(
    losses=st.lists(st.booleans(), min_size=1, max_size=200),
    buffer_kib=st.sampled_from([16, 64, 1024]),
)
def test_tcp_window_always_within_bounds(losses, buffer_kib):
    params = TcpParams(buffer=buffer_kib * KiB)
    state = TcpState(params)
    for loss in losses:
        state.on_round(loss=loss)
        assert 2 * MSS <= state.window <= params.buffer
        assert state.cwnd <= 2 * params.buffer


@settings(max_examples=30, deadline=None)
@given(rounds=st.integers(min_value=1, max_value=60))
def test_lossless_window_is_monotone_nondecreasing(rounds):
    state = TcpState(TcpParams(buffer=1024 * KiB))
    previous = state.window
    for _ in range(rounds):
        state.on_round(loss=False)
        assert state.window >= previous
        previous = state.window
