"""Stretched ticks over a lossy link: bit-exact with fine ticking.

On a lossy path the planner reads the coming loss draws ahead, ends the
window before the first tick that holds a hit, and settlement consumes the
draws of exactly the ticks it settles.  So a run with stretching on must
match one with it off in every pool and flow field *and* in the position
of the loss stream — under both kernels, through a window a hit cuts short
and through one a flow opening mid-window aborts.
"""

import pytest

from repro.netsim import TcpParams
from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import KiB, MB, mbps
from repro.simulation import Simulator

#: when the second transfer opens (inside a stretched window: asserted)
OPEN_AT = 6.05


def _run(adaptive, kernel):
    """One lossy, uncongested link; a second transfer opens at OPEN_AT."""
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("ab", capacity=mbps(1000), delay=0.01,
                                loss_rate=1e-4))
    engine = NetworkEngine(sim, topo, seed=5, adaptive_ticks=adaptive,
                           kernel=kernel)
    horizons = []
    if adaptive:
        plain = engine._loss_horizon

        def spy(t, dt, budget):
            ticks, draws = plain(t, dt, budget)
            horizons.append((budget, ticks))
            return ticks, draws

        engine._loss_horizon = spy
    tcp = TcpParams(buffer=64 * KiB)
    pools = [engine.open_transfer("a", "b", nbytes=40 * MB, streams=2,
                                  tcp=tcp)]
    flows = list(engine.active_flows)
    stretched_at_open = []

    def second():
        yield sim.timeout(OPEN_AT)
        stretched_at_open.append(engine._stretch is not None)
        pools.append(engine.open_transfer("a", "b", nbytes=10 * MB,
                                          tcp=tcp))
        flows.extend(engine.active_flows[len(flows):])

    sim.spawn(second(), name="second")
    sim.run()
    outcome = {
        "now": sim.now,
        "pools": [(p.completed_at, p.delivered, p.remaining) for p in pools],
        "flows": [
            (f.delivered, f.rtt, f.next_round_at, f.tcp.cwnd,
             f.tcp.ssthresh, f.tcp.rounds, f.tcp.losses, f.tcp.timeouts)
            for f in flows
        ],
        "ticks": engine.tick_count + engine.settled_tick_count,
        "flow_ticks": engine.flow_tick_count,
        # the loss stream's position: the next value it would hand out
        "next_draw": float(engine.random["netsim.loss"].random()),
    }
    return outcome, engine.settled_tick_count, horizons, stretched_at_open


@pytest.mark.parametrize("adaptive, kernel", [
    (True, "scalar"), (True, "vector"), (False, "vector"),
])
def test_lossy_run_matches_fine_scalar_ticks(adaptive, kernel):
    reference, settled, _, _ = _run(adaptive=False, kernel="scalar")
    assert settled == 0
    outcome, settled, horizons, stretched_at_open = _run(adaptive, kernel)
    assert outcome == reference
    assert any(flow[6] for flow in outcome["flows"])    # the stream bit
    if adaptive:
        # not vacuous: windows were settled, one was cut short by a hit,
        # and the second transfer opened inside one
        assert settled > 0
        assert any(2 <= ticks < budget for budget, ticks in horizons)
        assert stretched_at_open == [True]
