"""Flow-table unit tests: kernel selection, view flushing, and the kept
table against a fresh build."""

import random

import numpy as np
import pytest

from repro.netsim import TcpParams, flowtable
from repro.netsim.engine import NetworkEngine
from repro.netsim.flowtable import (
    SCRATCH_COLUMNS,
    VECTOR_MIN_FLOWS,
    FlowTable,
    resolve_kernel,
)
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
    assert engine._table.kernel == "scalar"
    engine.open_flow("s", "d", pool=pool)
    # the kept table converts its columns in place at the threshold
    assert engine._table.kernel == "vector"
    assert engine._table.cutovers == 1


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
    # open_flow appended each flow to the kept table: views attached
    assert all(f._table is engine._table for f in flows)
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


# -- the kept table: equal to a fresh build after every mutation ------------

def _line(kernel):
    """Five hosts in a line, h0 - h1 - h2 - h3 - h4: every route is a run
    of the line, so flows meet shared links in many orders.  l12 is
    lossy."""
    sim = Simulator()
    topo = Topology()
    for i in range(5):
        topo.add_host(Host(f"h{i}"))
    for i in range(4):
        topo.connect(f"h{i}", f"h{i + 1}", Link(
            f"l{i}{i + 1}", capacity=mbps(100), delay=0.002 * (i + 1),
            loss_rate=1e-5 if i == 1 else 0.0,
        ))
    return sim, NetworkEngine(sim, topo, seed=3, kernel=kernel)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    return a == b


def _assert_fresh(kept: FlowTable) -> None:
    """Every column and slot order of ``kept`` equals a fresh build over
    its flows.  The flows' state is flushed into the objects for the
    build and the views re-attached to ``kept`` afterwards."""
    flows = list(kept.flows)
    pools = list(kept.pools)
    for f in flows:
        kept.flush_flow(f)
    for p in pools:
        kept.flush_pool(p)
    fresh = FlowTable(flows, kept.requested)
    for i, f in enumerate(flows):
        f._table, f._row = kept, i
    for row, p in enumerate(pools):
        p._table, p._row = kept, row
    columns = [name for _, names in flowtable._GROUPS.values()
               for name in names if name not in SCRATCH_COLUMNS]
    for name in (
        "kernel", "n_flows", "path_slots", "lossy_rows", "has_lossy",
        "link_flows", "n_links", "_link_slot", "pool_flow_rows", "n_pools",
        *columns,
    ):
        assert _same(getattr(kept, name), getattr(fresh, name)), name
    assert kept.flows == fresh.flows
    assert kept.links == fresh.links and kept.pools == fresh.pools
    if fresh.pool_rows_of is None:
        assert kept.pool_rows_of is None
    else:
        assert len(kept.pool_rows_of) == len(fresh.pool_rows_of)
        assert all(_same(a, b) for a, b in
                   zip(kept.pool_rows_of, fresh.pool_rows_of))


@pytest.fixture
def checked(monkeypatch):
    """Check the kept table against a fresh build after every append and
    every compact; yields the list of kernels the table has run."""
    kernels = []
    fresh_builds = []   # a build in progress: its appends go unchecked

    def after(method):
        def wrapped(self, *args):
            method(self, *args)
            if fresh_builds:
                return
            kernels.append(self.kernel)
            fresh_builds.append(self)
            try:
                _assert_fresh(self)
            finally:
                fresh_builds.pop()
        return wrapped

    monkeypatch.setattr(FlowTable, "append", after(FlowTable.append))
    monkeypatch.setattr(FlowTable, "compact", after(FlowTable.compact))
    return kernels


def test_compact_moves_a_link_behind_one_met_later(checked):
    """Flow A runs [l12, l23] and flow B [l01, l12]: with A gone a fresh
    build meets l01 before l12, so the kept table must reorder them."""
    sim, engine = _line("scalar")
    a = engine.open_flow("h1", "h3", nbytes=1 * MB)
    engine.open_flow("h0", "h2", nbytes=1 * MB)
    t = engine._table
    assert [link.name for link in t.links] == ["l12", "l23", "l01"]
    engine.cancel_pool(a.pool)
    assert [link.name for link in t.links] == ["l01", "l12"]
    assert t.path_slots == [[0, 1]]


@pytest.mark.parametrize("kernel", ["auto", "scalar", "vector"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kept_table_equals_a_fresh_build(monkeypatch, checked, kernel, seed):
    """Seeded random opens (new and shared pools), forced drains,
    natural retirements and cancels; under ``auto`` the flow count
    crosses a lowered cutover both ways."""
    monkeypatch.setattr(flowtable, "VECTOR_MIN_FLOWS", 6)
    rng = random.Random(seed)
    sim, engine = _line(kernel)
    t = engine._table
    pools = []
    for _ in range(120):
        pools = [p for p in pools if not p.done.triggered]
        op = rng.random()
        src, dst = rng.sample(range(5), 2)
        if op < 0.45 or not pools:
            if pools and rng.random() < 0.4:
                pool = rng.choice(pools)
                engine.open_flow(f"h{src}", f"h{dst}", pool=pool)
            else:
                pools.append(engine.open_transfer(
                    f"h{src}", f"h{dst}", nbytes=rng.choice((0.2, 2.0)) * MB,
                    streams=rng.randint(1, 3),
                    tcp=TcpParams(buffer=64 * KiB),
                ))
        elif op < 0.6:
            rng.choice(pools).remaining = 0.0   # drains at the next tick
        elif op < 0.75:
            engine.cancel_pool(rng.choice(pools), "test")
        else:
            sim.run(until=sim.now + rng.choice((0.005, 0.05, 0.5)))
        assert t is engine._table   # kept, never rebuilt
    if kernel == "auto":
        assert {"scalar", "vector"} <= set(checked)
        assert t.cutovers >= 2
    else:
        assert set(checked) == {kernel}
