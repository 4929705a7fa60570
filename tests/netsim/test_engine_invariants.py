"""Engine invariants guarding the hot-path caches and pool bookkeeping:
determinism, byte conservation, incidence-cache coherence across
mid-flight flow-set mutations, engine-scoped flow ids, and the explicit
pool error paths.
"""

import pytest

from repro.netsim import TcpParams
from repro.netsim.engine import NetworkEngine, TransferAborted
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import KiB, MB, mbps
from repro.simulation import Simulator


def build_testbed(seed=11, loss_rate=1e-4):
    sim = Simulator()
    topo = Topology()
    for name in ("a", "b", "c"):
        topo.add_host(Host(name))
    topo.connect("a", "b", Link("ab", capacity=mbps(45), delay=0.02,
                                loss_rate=loss_rate, cross_traffic=mbps(5)))
    topo.connect("b", "c", Link("bc", capacity=mbps(100), delay=0.01))
    engine = NetworkEngine(sim, topo, seed=seed)
    return sim, topo, engine


def run_transfer(seed):
    sim, _topo, engine = build_testbed(seed=seed)
    pool = engine.open_transfer("a", "c", nbytes=20 * MB, streams=4,
                                tcp=TcpParams(buffer=256 * KiB))
    sim.run(until=pool.done)
    return pool.completed_at, pool.delivered, pool.throughput()


def test_same_seed_twice_is_identical():
    assert run_transfer(seed=7) == run_transfer(seed=7)


def test_different_seeds_differ():
    # sanity check that the determinism test is not vacuous: the loss RNG
    # actually shapes the outcome
    assert run_transfer(seed=7) != run_transfer(seed=8)


def test_delivered_bytes_are_conserved_across_flows():
    sim, _topo, engine = build_testbed(loss_rate=0.0)
    pool = engine.open_transfer("a", "c", nbytes=10 * MB, streams=3,
                                tcp=TcpParams(buffer=256 * KiB))
    flows = list(engine.active_flows)
    sim.run(until=pool.done)
    per_flow = sum(f.delivered for f in flows)
    assert per_flow == pytest.approx(10 * MB, abs=1e-6)
    assert pool.delivered == pytest.approx(10 * MB, abs=1e-6)


def test_incidence_cache_survives_midflight_open_flow():
    sim, _topo, engine = build_testbed(loss_rate=0.0)
    first = engine.open_transfer("a", "c", nbytes=10 * MB, streams=2,
                                 tcp=TcpParams(buffer=256 * KiB))
    sim.run(until=2.0)
    # a second transfer joins mid-flight on an overlapping path: the
    # engine must rebuild its link->flows incidence and keep both correct
    second = engine.open_transfer("b", "c", nbytes=5 * MB, streams=2,
                                  tcp=TcpParams(buffer=256 * KiB))
    sim.run(until=first.done)
    sim.run(until=second.done)
    assert first.delivered == pytest.approx(10 * MB, abs=1e-6)
    assert second.delivered == pytest.approx(5 * MB, abs=1e-6)
    assert first.completed_at > 2.0 and second.completed_at > 2.0


def test_incidence_cache_survives_midflight_cancel():
    sim, _topo, engine = build_testbed(loss_rate=0.0)
    keep = engine.open_transfer("a", "c", nbytes=8 * MB, streams=2,
                                tcp=TcpParams(buffer=256 * KiB))
    gone = engine.open_transfer("a", "c", nbytes=8 * MB, streams=2,
                                tcp=TcpParams(buffer=256 * KiB))
    sim.run(until=1.5)
    engine.cancel_pool(gone, reason="preempted")
    assert gone.done.triggered and not gone.done.ok
    with pytest.raises(TransferAborted, match="preempted"):
        gone.done.value
    assert all(f.pool is not gone for f in engine.active_flows)
    sim.run(until=keep.done)
    assert keep.delivered == pytest.approx(8 * MB, abs=1e-6)
    # the canceled transfer's bytes stay frozen at the abort point
    assert gone.delivered < 8 * MB


def test_cancelled_flows_free_capacity_for_survivors():
    def finish_time(cancel_competitor):
        sim, _topo, engine = build_testbed(loss_rate=0.0)
        keep = engine.open_transfer("a", "c", nbytes=8 * MB, streams=2,
                                    tcp=TcpParams(buffer=256 * KiB))
        rival = engine.open_transfer("a", "c", nbytes=80 * MB, streams=2,
                                     tcp=TcpParams(buffer=256 * KiB))
        sim.run(until=1.0)
        if cancel_competitor:
            engine.cancel_pool(rival)
        sim.run(until=keep.done)
        return keep.completed_at

    # with the rival gone its link share must be re-usable immediately:
    # the cached incidence map cannot keep scheduling the dead flows
    assert finish_time(True) < finish_time(False)


def test_flow_ids_are_engine_scoped():
    _sim, _topo, engine_a = build_testbed(seed=1)
    engine_a.open_transfer("a", "c", nbytes=1 * MB, streams=3)
    ids_a = [f.id for f in engine_a.active_flows]

    _sim2, _topo2, engine_b = build_testbed(seed=1)
    engine_b.open_transfer("a", "c", nbytes=1 * MB, streams=3)
    ids_b = [f.id for f in engine_b.active_flows]

    # a fresh engine restarts its sequence: ids (and thus flow names) are
    # reproducible no matter how many engines ran before in this process
    assert ids_a == ids_b == [1, 2, 3]
    names = [f.name for f in engine_b.active_flows]
    assert names == ["xfer[0]", "xfer[1]", "xfer[2]"]


def test_pool_throughput_zero_elapsed_is_an_error():
    sim, _topo, engine = build_testbed()
    pool = engine.new_pool(1 * MB)
    pool.started_at = 3.0
    pool.completed_at = 3.0
    with pytest.raises(RuntimeError, match="non-positive elapsed"):
        pool.throughput()


def test_cancel_pool_wrong_state_errors():
    sim, _topo, engine = build_testbed(loss_rate=0.0)
    done_pool = engine.open_transfer("a", "c", nbytes=1 * MB, streams=1,
                                     tcp=TcpParams(buffer=256 * KiB))
    sim.run(until=done_pool.done)
    with pytest.raises(ValueError, match="already completed"):
        engine.cancel_pool(done_pool)

    aborted = engine.open_transfer("a", "c", nbytes=1 * MB, streams=1)
    engine.cancel_pool(aborted)
    with pytest.raises(ValueError, match="already aborted"):
        engine.cancel_pool(aborted)


def test_pool_byte_conservation_invariant():
    """size == delivered + remaining and sum(per-flow) == pool delivered,
    at completion and at arbitrary mid-flight observation points."""
    sim, _topo, engine = build_testbed(loss_rate=1e-4)
    pool = engine.open_transfer("a", "c", nbytes=20 * MB, streams=4,
                                tcp=TcpParams(buffer=256 * KiB))
    flows = list(engine.active_flows)
    for probe in (1.0, 3.0, 7.0):
        sim.run(until=probe)
        if pool.done.triggered:
            break
        assert pool.conservation_error() <= 1e-6
        per_flow = sum(f.delivered for f in flows)
        assert per_flow == pytest.approx(pool.delivered, abs=1e-6)
    sim.run(until=pool.done)
    assert pool.conservation_error() <= 1e-6
    assert sum(f.delivered for f in flows) == pytest.approx(
        pool.delivered, abs=1e-6
    )
    assert pool.delivered == pytest.approx(pool.size, abs=1e-6)


def test_stretch_abort_replays_ticks_without_double_counting():
    """A fault mid-stretch (link-flap tearing down a victim transfer, as
    in the PR 5 campaigns) must abort the stretched window, settle exactly
    the elapsed fine ticks, and leave the survivor's trajectory identical
    to a run that never stretched."""
    def run(adaptive, flap_at=4.0):
        sim = Simulator()
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_host(Host(name))
        # clean uncongested paths: the stretch preconditions hold almost
        # everywhere, so the flap lands inside a stretched window
        topo.connect("a", "b", Link("ab", capacity=mbps(1000), delay=0.004))
        topo.connect("b", "c", Link("bc", capacity=mbps(1000), delay=0.004))
        engine = NetworkEngine(sim, topo, seed=3, adaptive_ticks=adaptive)
        survivor = engine.open_transfer(
            "a", "b", nbytes=400 * MB, streams=2,
            tcp=TcpParams(buffer=128 * KiB),
        )
        victim = engine.open_transfer(
            "b", "c", nbytes=400 * MB, streams=2,
            tcp=TcpParams(buffer=128 * KiB),
        )

        probes = {}

        def injector():
            yield sim.timeout(flap_at)
            if adaptive:
                assert engine._stretch is not None, (
                    "flap must land mid-stretch for this test to bite"
                )
            # the link_flap campaign's data-plane action: cancel every
            # pool routed over the failed link
            for pool in engine.pools_on_link("bc"):
                engine.cancel_pool(pool, reason="link bc flapped")
            probes["at_flap"] = (
                sim.now, survivor.delivered, victim.delivered,
            )

        sim.spawn(injector(), name="fault-injector")
        sim.run(until=survivor.done)
        probes["final"] = (
            survivor.completed_at, survivor.delivered, victim.delivered,
        )
        return probes

    stretched = run(adaptive=True)
    reference = run(adaptive=False)
    # delivered bytes at the flap instant and at completion match the
    # never-stretched reference exactly: no tick lost, none replayed twice
    assert stretched["at_flap"] == reference["at_flap"]
    assert stretched["final"][1:] == reference["final"][1:]
    # the post-abort realignment re-derives a boundary as now + (bound -
    # now), which may round the tick grid by an ulp — so the completion
    # *timestamp* is compared to float precision, not bit-exactly
    assert stretched["final"][0] == pytest.approx(
        reference["final"][0], rel=1e-12
    )
