"""Flow-table unit tests: kernel selection, view flushing."""

import pytest

from repro.netsim import TcpParams
from repro.netsim.engine import NetworkEngine
from repro.netsim.flowtable import VECTOR_MIN_FLOWS, resolve_kernel
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import KiB, MB, mbps
from repro.simulation import Simulator


# -- kernel selection -----------------------------------------------------

def test_resolve_kernel_rejects_unknown():
    with pytest.raises(ValueError, match="unknown netsim kernel"):
        resolve_kernel("simd")


def test_resolve_kernel_accepts_each_kernel():
    for kernel in ("auto", "scalar", "vector"):
        assert resolve_kernel(kernel) == kernel


def test_auto_table_picks_kernel_by_flow_count():
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("s"))
    topo.add_host(Host("d"))
    topo.connect("s", "d", Link("sd", capacity=mbps(100), delay=0.01))
    engine = NetworkEngine(sim, topo, seed=1)
    assert engine.kernel == "auto"
    pool = engine.new_pool(VECTOR_MIN_FLOWS * MB)
    for _ in range(VECTOR_MIN_FLOWS - 1):
        engine.open_flow("s", "d", pool=pool)
    engine._rebuild_cache()
    assert engine._table.kernel == "scalar"
    engine.open_flow("s", "d", pool=pool)
    engine._rebuild_cache()
    assert engine._table.kernel == "vector"


# -- view flushing --------------------------------------------------------

def _grid():
    """One 1 MB transfer over two streams on a single link."""
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("s0"))
    topo.add_host(Host("d0"))
    topo.connect("s0", "d0", Link("l0", capacity=mbps(100), delay=0.01))
    engine = NetworkEngine(sim, topo, seed=1)
    pool = engine.open_transfer("s0", "d0", nbytes=1 * MB, streams=2,
                                tcp=TcpParams(buffer=64 * KiB))
    return sim, engine, [pool]


def test_views_survive_retirement_with_final_state():
    sim, engine, pools = _grid()
    flows = list(engine.active_flows)
    engine._rebuild_cache()  # the lazy table build: attaches the views
    assert all(f._table is not None for f in flows)
    sim.run(until=pools[0].done)
    # rows flushed back: views detached, objects hold the final state
    assert all(f._table is None for f in flows)
    assert pools[0]._table is None
    assert sum(f.delivered for f in flows) == pytest.approx(1 * MB)
    assert pools[0].remaining == pytest.approx(0.0, abs=1e-6)
    assert all(f.tcp.rounds > 0 for f in flows)


def test_midflight_reads_see_table_state():
    sim, engine, pools = _grid()
    flows = list(engine.active_flows)
    sim.run(until=0.1)  # a few RTTs in: bytes moved, transfer still open
    assert not pools[0].done.triggered
    # mid-flight, reads route through the attached table rows
    assert all(f._table is not None for f in flows)
    delivered = sum(f.delivered for f in flows)
    assert delivered > 0
    assert delivered == pytest.approx(pools[0].delivered, abs=1e-6)
    assert pools[0].conservation_error() <= 1e-6
