"""Vector-vs-scalar kernel differential: identical outcomes, bit for bit.

The flow table backs two tick kernels (numpy whole-array passes vs plain
python loops).  The accumulation orders, RNG batch draws and guard-banded
``pow`` in the vector kernel exist precisely so that both produce the
same float sequences; these tests hold them to *exact* equality — no
tolerances — on a scenario mixing every regime the engine has: congested
bottlenecks, random per-packet loss, rate caps, shared pools, and
stretch-eligible clean paths.
"""

import pytest

from repro.netsim import TcpParams
from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import KiB, MB, mbps
from repro.simulation import Simulator
from repro.telemetry import MetricsRegistry

#: (disjoint chains, streams per chain) -> 200 mixed lossy/clean flows
N_ISLANDS = 20
STREAMS = 10


def _build(kernel):
    """20 chains x 10 streams: lossy, congested, rate-capped and clean
    chains all advanced by one engine."""
    sim = Simulator()
    topo = Topology()
    pools = []
    engine = None
    specs = []
    for i in range(N_ISLANDS):
        lossy = i % 4 == 0
        capped = i % 4 == 1
        src, mid, dst = f"s{i}", f"m{i}", f"d{i}"
        topo.add_host(Host(src))
        topo.add_host(Host(mid))
        topo.add_host(Host(dst))
        topo.connect(src, mid, Link(f"l{i}a", capacity=mbps(1000),
                                    delay=0.004))
        topo.connect(mid, dst, Link(
            f"l{i}b",
            # half the chains oversubscribed, half clean (stretchable)
            capacity=mbps(250) if i % 2 else mbps(1000),
            delay=0.004,
            loss_rate=1e-4 if lossy else 0.0,
            cross_traffic=mbps(20) if i % 3 == 0 else 0.0,
        ))
        specs.append((src, dst, capped))
    engine = NetworkEngine(sim, topo, seed=1234, kernel=kernel)
    for i, (src, dst, capped) in enumerate(specs):
        pools.append(engine.open_transfer(
            src, dst, nbytes=(4 + i % 5) * MB, streams=STREAMS,
            tcp=TcpParams(buffer=64 * KiB),
            rate_cap=mbps(80) if capped else float("inf"),
        ))
    return sim, engine, pools


def _outcome(kernel):
    sim, engine, pools = _build(kernel)
    flows = list(engine.active_flows)
    assert len(flows) == N_ISLANDS * STREAMS
    sim.run()
    per_pool = [
        (pool.completed_at, pool.delivered, pool.remaining)
        for pool in pools
    ]
    per_flow = []
    for f in flows:
        tcp = f.tcp
        per_flow.append((
            f.delivered, f.rtt, f.next_round_at,
            tcp.cwnd, tcp.ssthresh, tcp.rounds, tcp.losses, tcp.timeouts,
        ))
    return {
        "sim_now": sim.now,
        "ticks": engine.tick_count,
        "settled": engine.settled_tick_count,
        "flow_ticks": engine.flow_tick_count,
        "pools": per_pool,
        "flows": per_flow,
    }


def test_200_mixed_flows_identical_outcomes():
    vector = _outcome("vector")
    scalar = _outcome("scalar")
    # exact equality, field by field for a readable failure
    assert vector["sim_now"] == scalar["sim_now"]
    assert vector["ticks"] == scalar["ticks"]
    assert vector["settled"] == scalar["settled"]
    assert vector["flow_ticks"] == scalar["flow_ticks"]
    assert vector["pools"] == scalar["pools"]
    assert vector["flows"] == scalar["flows"]


def _clean_outcome(kernel):
    """Stretch-heavy regime: both kernels must plan and settle the same
    stretched windows, not just the same full ticks."""
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("ab", capacity=mbps(1000), delay=0.004))
    engine = NetworkEngine(sim, topo, seed=7, kernel=kernel)
    pool = engine.open_transfer("a", "b", nbytes=200 * MB, streams=4,
                                tcp=TcpParams(buffer=128 * KiB))
    sim.run(until=pool.done)
    return (sim.now, pool.completed_at, pool.delivered,
            engine.tick_count, engine.settled_tick_count,
            engine.flow_tick_count)


def test_stretched_clean_path_identical_outcomes():
    vector = _clean_outcome("vector")
    scalar = _clean_outcome("scalar")
    assert vector == scalar
    # the stretch path actually engaged (the comparison is not vacuous)
    assert vector[4] > 0


def test_scalar_kernel_runs_without_numpy_types():
    """The scalar kernel must leave pure-python floats everywhere it
    writes — it is the fallback for environments without numpy."""
    sim, engine, pools = _build("scalar")
    flows = list(engine.active_flows)
    sim.run()
    for pool in pools:
        assert type(pool.delivered) is float
        assert type(pool.remaining) is float
    for f in flows:
        assert type(f.delivered) is float
        assert type(f.tcp.cwnd) is float


# ------------------------------------------------- seeded (warm) flows ----
def _seeded_outcome(kernel, loss_rate, mixed):
    """Flows opened from a parked congestion state — alone, or sharing a
    bottleneck with cold flows — on a clean or a lossy path."""
    from repro.netsim import CongestionState

    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("ab", capacity=mbps(40), delay=0.01,
                                loss_rate=loss_rate))
    engine = NetworkEngine(sim, topo, seed=11, kernel=kernel)
    tcp = TcpParams(buffer=64 * KiB)
    pools = [engine.new_pool(2 * MB)]
    flows = [
        engine.open_flow(
            "a", "b", pool=pools[0], tcp=tcp,
            # distinct windows, one above the buffer and one below the
            # initial window: both kernels must see the same clamp
            congestion=CongestionState(cwnd, ssthresh),
        )
        for cwnd, ssthresh in (
            (64.0 * KiB, 64.0 * KiB), (40000.0, 20000.0),
            (1e9, 1e9), (100.0, 100.0),
        )
    ]
    if mixed:
        pools.append(engine.new_pool(2 * MB))
        flows += [
            engine.open_flow("a", "b", pool=pools[1], tcp=tcp)
            for _ in range(4)
        ]
    sim.run()
    return (
        sim.now, engine.tick_count, engine.settled_tick_count,
        engine.flow_tick_count,
        [(p.completed_at, p.delivered, p.remaining) for p in pools],
        [(f.delivered, f.next_round_at, f.tcp.cwnd, f.tcp.ssthresh,
          f.tcp.rounds, f.tcp.losses, f.tcp.timeouts) for f in flows],
    )


@pytest.mark.parametrize("loss_rate", [0.0, 1e-2])
@pytest.mark.parametrize("mixed", [False, True])
def test_seeded_flows_identical_outcomes(loss_rate, mixed):
    vector = _seeded_outcome("vector", loss_rate, mixed)
    scalar = _seeded_outcome("scalar", loss_rate, mixed)
    assert vector == scalar
    pools = vector[4]
    # bytes conserved (to the float drift of a four-way shared ledger)
    assert all(
        delivered == pytest.approx(2 * MB, abs=1e-6) and remaining <= 1e-9
        for _, delivered, remaining in pools
    )
    if loss_rate:
        # the lossy comparison is not vacuous: windows were cut
        assert any(flow[5] for flow in vector[5])
    elif mixed:
        # and neither is the seeding: the warm pool drains first
        assert pools[0][0] < pools[1][0]


# ------------------------------------------------------- tier tree -------
#: (T1 hubs, T2 leaves per hub) under one T0 -> 12 pools
TREE_HUBS = 3
TREE_LEAVES = 4
TREE_STREAMS = 16


def _tree_outcome(kernel):
    """12 pools x 16 streams fanned out from T0 over a shared lossy
    backbone: queue overflow on the backbone and a hub link, RTTs spread
    over the leaves (a tick's RTT-boundary set is a partial one) and pool
    sizes spread so completions are staggered and the table shrinks."""
    sim = Simulator()
    topo = Topology()
    for name in ("t0", "core"):
        topo.add_host(Host(name))
    topo.connect("t0", "core", Link(
        "backbone", capacity=mbps(622), delay=0.005, loss_rate=2e-5,
        cross_traffic=mbps(60),
    ))
    leaves = []
    for h in range(TREE_HUBS):
        hub = f"t1-{h}"
        topo.add_host(Host(hub))
        # hub 0's uplink is a second, shallow bottleneck: 64 initial
        # windows overload it twice over, so its drops cause timeouts
        topo.connect("core", hub, Link(
            f"core-{hub}", capacity=mbps(30 if h == 0 else 2500),
            delay=0.003 + 0.002 * h, queue_capacity=32 * KiB,
        ))
        for leaf in range(TREE_LEAVES):
            name = f"t2-{h}-{leaf}"
            topo.add_host(Host(name))
            # fast access links: on every path, never congested
            topo.connect(hub, name, Link(
                f"{hub}-{name}", capacity=mbps(10000),
                delay=0.001 + 0.0015 * leaf,
            ))
            leaves.append(name)
    metrics = MetricsRegistry(sim)
    engine = NetworkEngine(sim, topo, seed=2001, kernel=kernel,
                           metrics=metrics)
    pools = [
        engine.open_transfer(
            "t0", leaf, nbytes=(6 + 3 * i) * MB, streams=TREE_STREAMS,
            tcp=TcpParams(buffer=256 * KiB),
        )
        for i, leaf in enumerate(leaves)
    ]
    flows = list(engine.active_flows)
    sim.run()
    link_metrics = {
        name: sorted(
            (child.labels, child.value) for child in metrics.children(name)
        )
        for name in metrics.families() if name.startswith("netsim.link.")
    }
    return {
        "sim_now": sim.now,
        "ticks": (engine.tick_count, engine.settled_tick_count,
                  engine.flow_tick_count),
        "pools": [(p.completed_at, p.delivered, p.remaining) for p in pools],
        "flows": [
            (f.delivered, f.rtt, f.next_round_at, f.tcp.cwnd,
             f.tcp.ssthresh, f.tcp.rounds, f.tcp.losses, f.tcp.timeouts)
            for f in flows
        ],
        "links": [(link.name, link.queue) for link in topo.links],
        "metrics": link_metrics,
    }


def test_tier_tree_identical_outcomes():
    vector = _tree_outcome("vector")
    scalar = _tree_outcome("scalar")
    for field in ("sim_now", "ticks", "pools", "flows", "links", "metrics"):
        assert vector[field] == scalar[field], field
    # not vacuous: overflow, random loss, staggered completions
    dropped = {labels for labels, _ in vector["metrics"][
        "netsim.link.dropped_bytes"]}
    assert (("link", "backbone"),) in dropped
    assert vector["metrics"]["netsim.link.overflow_events"]
    assert any(flow[6] for flow in vector["flows"])
    assert any(flow[7] for flow in vector["flows"])
    assert len({p[0] for p in vector["pools"]}) == len(vector["pools"])
    # a link that never dropped has no dropped_bytes child
    quiet = [name for name, _ in vector["links"] if name.startswith("t1-")]
    assert quiet and not dropped & {(("link", n),) for n in quiet}
