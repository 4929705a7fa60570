"""Tests for the message-level control-traffic network."""

from types import SimpleNamespace

import pytest

from repro.netsim import TcpParams, TestbedParams, cern_anl_testbed
from repro.netsim.channels import PER_MESSAGE_OVERHEAD, MessageNetwork
from repro.netsim.link import Link
from repro.netsim.topology import Topology
from repro.netsim.units import KiB, MB, mbps
from repro.simulation import Simulator


@pytest.fixture
def net():
    sim, topo, _engine = cern_anl_testbed()
    return sim, MessageNetwork(sim, topo)


def endpoint(msgnet, host="anl", service="gdmp"):
    """Register a (host, service) endpoint whose delivery function keeps
    every envelope it is handed, in order; return that list."""
    delivered = []
    msgnet.register(host, service, delivered.append)
    return delivered


def test_register_and_lookup(net):
    sim, msgnet = net
    delivered = endpoint(msgnet)
    assert msgnet.lookup("anl", "gdmp") == delivered.append


def test_duplicate_registration_rejected(net):
    _sim, msgnet = net
    endpoint(msgnet)
    with pytest.raises(ValueError):
        endpoint(msgnet)


def test_lookup_missing_service(net):
    _sim, msgnet = net
    with pytest.raises(KeyError):
        msgnet.lookup("anl", "nothing")


def test_message_delivered_after_wan_latency(net):
    sim, msgnet = net
    received = []
    msgnet.register("anl", "gdmp",
                    lambda envelope: received.append((envelope.payload,
                                                      sim.now)))
    msgnet.send("cern", "anl", "gdmp", payload={"op": "publish"}, size=512)
    sim.run()
    payload, t = received[0]
    assert payload == {"op": "publish"}
    # one-way propagation (62.5 ms) + overhead + serialization
    assert 0.0625 < t < 0.07


def test_local_message_is_fast(net):
    sim, msgnet = net
    assert msgnet.latency("cern", "cern", 512) == pytest.approx(0.001)


def test_send_event_reports_delivery(net):
    sim, msgnet = net
    delivered = endpoint(msgnet)
    timer = msgnet.send("cern", "anl", "gdmp", payload="x", size=100)
    sim.run(until=timer)
    # the returned timer is the delivery instant itself
    [envelope] = delivered
    assert envelope.src == "cern"
    assert envelope.dst == "anl"
    assert envelope.delivered_at == sim.now > envelope.sent_at


def test_fifo_per_mailbox(net):
    sim, msgnet = net
    delivered = endpoint(msgnet)
    for i in range(3):
        msgnet.send("cern", "anl", "gdmp", payload=i, size=100)
    sim.run()
    assert [envelope.payload for envelope in delivered] == [0, 1, 2]


def test_larger_messages_take_longer(net):
    _sim, msgnet = net
    small = msgnet.latency("cern", "anl", 100)
    big = msgnet.latency("cern", "anl", 10_000_000)
    assert big > small


def request(operation):
    """What the bus puts on the wire for a request: it has an operation."""
    return SimpleNamespace(operation=operation)


@pytest.mark.parametrize("fault", [
    pytest.param(lambda m: m.set_host_down("anl"), id="receiver-down"),
    pytest.param(lambda m: m.set_host_down("cern"), id="sender-down"),
    pytest.param(lambda m: m.set_link_down("wan-cern-anl"), id="link-down"),
    pytest.param(lambda m: m.set_service_down("anl", "gdmp"),
                 id="service-down"),
    pytest.param(lambda m: m.set_service_down("anl", "gdmp", prefix="catalog."),
                 id="prefix-down"),
])
def test_a_message_in_flight_when_the_fault_starts_is_lost_at_delivery(
        net, fault):
    sim, msgnet = net
    received = endpoint(msgnet)
    timer = msgnet.send("cern", "anl", "gdmp", request("catalog.info"))
    sim.run(until=0.03)  # half way across the 62.5 ms link
    fault(msgnet)
    sim.run(until=timer)
    # the timer still fires at the delivery instant: nothing landed there
    assert sim.now == pytest.approx(msgnet.latency("cern", "anl", 512))
    assert msgnet.dropped_messages == 1
    assert len(received) == 0


def test_a_prefix_black_hole_drops_only_matching_requests_never_replies(net):
    sim, msgnet = net
    delivered = endpoint(msgnet)
    msgnet.set_service_down("anl", "gdmp", prefix="catalog.")
    reply = SimpleNamespace(request_id=7, payload="catalog.info")
    for payload in (request("catalog.info"), request("rli.lookup"), reply):
        msgnet.send("cern", "anl", "gdmp", payload)
    sim.run()
    assert msgnet.dropped_messages == 1
    assert len(delivered) == 2
    # a whole-service black-hole is still about requests only
    msgnet.set_service_down("anl", "gdmp")
    assert msgnet.send("cern", "anl", "gdmp", reply) is not None
    sim.run()
    assert msgnet.dropped_messages == 1
    assert len(delivered) == 3


def test_a_service_delay_slows_matching_requests_at_send_time(net):
    sim, msgnet = net
    delivered = endpoint(msgnet)
    msgnet.set_service_delay("anl", "gdmp", extra=1.0, prefix="catalog.")
    msgnet.send("cern", "anl", "gdmp", request("catalog.info"))
    msgnet.send("cern", "anl", "gdmp", request("rli.lookup"))
    msgnet.set_service_delay("anl", "gdmp")  # cleared: `slow` already left
    sim.run()
    fast, slow = delivered
    assert slow.payload.operation == "catalog.info"
    assert slow.delivered_at == pytest.approx(fast.delivered_at + 1.0)


def _uncached_latency(topology, src, dst, size):
    """The latency formula over a fresh route, nothing kept."""
    links = topology.route(src, dst)
    return (
        PER_MESSAGE_OVERHEAD
        + sum(link.delay for link in links)
        + sum(link.queueing_delay for link in links)
        + size / min(link.available_capacity for link in links)
    )


def test_latency_is_the_uncached_formula_bit_for_bit():
    """The kept per-pair route figures change no latency, even with a
    standing queue on the path (a transfer running over it)."""
    sim, topo, engine = cern_anl_testbed(TestbedParams(extra_sites=("ral",)))
    msgnet = MessageNetwork(sim, topo)
    delivered = endpoint(msgnet, "ral", "svc")
    engine.open_transfer("cern", "anl", nbytes=50 * MB, streams=4,
                         tcp=TcpParams(buffer=1024 * KiB))
    pairs = [("cern", "anl"), ("anl", "cern"), ("anl", "ral"), ("ral", "anl")]
    queued = 0
    for _ in range(40):
        sim.run(until=sim.now + 0.25)
        queued += any(link.queue > 0 for link in topo.links)
        for src, dst in pairs:
            for size in (1, 512, 65536):
                assert msgnet.latency(src, dst, size) == _uncached_latency(
                    topo, src, dst, size
                )
        expected = sim.now + _uncached_latency(topo, "anl", "ral", 512)
        sim.run(until=msgnet.send("anl", "ral", "svc", None, size=512))
        assert delivered[-1].delivered_at == expected
    assert queued                       # the path did hold a queue


def test_a_new_link_reroutes_the_next_message():
    sim = Simulator()
    topo = Topology()
    for name in ("a", "b", "c"):
        topo.add_host(name)
    topo.connect("a", "b", Link("ab", capacity=mbps(10), delay=0.1))
    topo.connect("b", "c", Link("bc", capacity=mbps(10), delay=0.1))
    msgnet = MessageNetwork(sim, topo)
    delivered = endpoint(msgnet, "c", "svc")
    sim.run(until=msgnet.send("a", "c", "svc", payload=1, size=100))
    topo.connect("a", "c", Link("ac", capacity=mbps(10), delay=0.05))
    sim.run(until=msgnet.send("a", "c", "svc", payload=2, size=100))
    before, after = (e.delivered_at - e.sent_at for e in delivered)
    assert after < before
    assert msgnet.latency("a", "c", 100) == _uncached_latency(topo, "a", "c", 100)
    assert [link.name for link in topo.path("a", "c")[0]] == ["ac"]


def test_cross_traffic_change_reaches_messages_and_flows_at_the_next_tick():
    """``Topology.set_cross_traffic`` is the one way a built link changes:
    message latency reads the new load at once, and a live flow's first
    tick after the change runs at the new share of the link."""
    sim, topo, engine = cern_anl_testbed()
    msgnet = MessageNetwork(sim, topo)
    [link] = topo.route("cern", "anl")
    before = msgnet.latency("cern", "anl", 512)
    pool = engine.open_transfer("cern", "anl", nbytes=100 * MB,
                                tcp=TcpParams(buffer=64 * KiB))
    sim.run(until=60.0)
    assert engine._stretch is not None     # the change lands mid-window
    cross = mbps(43)                        # 2 Mbit/s left of the 45
    topo.set_cross_traffic(link, cross)
    assert engine._stretch is None
    assert engine._table.link_cross == [cross]
    after = msgnet.latency("cern", "anl", 512)
    assert after > before
    assert after == pytest.approx(
        PER_MESSAGE_OVERHEAD + link.delay + 512 / (link.capacity - cross),
        rel=1e-12,
    )
    # the engine resumes full ticks at the next fine boundary; that tick
    # moves the stream's window scaled to what the link now has left
    moved = pool.delivered
    rtt = 2 * link.delay
    sim.run(until=engine._realign_at + rtt / 2)
    offered = 64 * KiB / rtt
    share = offered * (link.capacity / (offered + cross))
    assert pool.delivered - moved == pytest.approx(share * rtt, rel=1e-12)
    with pytest.raises(ValueError):
        topo.set_cross_traffic(link, link.capacity)
