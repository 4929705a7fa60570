"""Tests for the service bus: dispatch, middleware, faults, timeouts."""

import pytest

from repro.netsim import cern_anl_testbed
from repro.netsim.channels import MessageNetwork
from repro.services import (
    CallTimeout,
    DeadlineMiddleware,
    RemoteCallError,
    RequestContext,
    ServiceClient,
    ServiceEndpoint,
    ServiceError,
    ServiceFault,
    TraceLog,
)
from repro.services.bus import ClientCall
from repro.services.middleware import MetricsMiddleware
from repro.telemetry import MetricsRegistry


@pytest.fixture
def net():
    sim, topo, _engine = cern_anl_testbed()
    return sim, MessageNetwork(sim, topo)


def make_pair(sim, msgnet, middlewares=(), tracelog=None, **client_kwargs):
    endpoint = ServiceEndpoint(
        sim,
        msgnet,
        msgnet.topology.host("cern"),
        "svc",
        middlewares=middlewares,
        tracelog=tracelog,
    )
    client = ServiceClient(
        sim,
        msgnet,
        msgnet.topology.host("anl"),
        "svc",
        tracelog=tracelog,
        **client_kwargs,
    )
    return endpoint, client


def test_round_trip_with_generator_and_plain_handlers(net):
    sim, msgnet = net
    endpoint, client = make_pair(sim, msgnet)

    def echo(request):
        yield sim.timeout(0.01)
        return {"echo": request.payload}

    endpoint.register("echo", echo)
    endpoint.register("plain", lambda request: request.payload * 2)

    assert sim.run(until=client.call("cern", "echo", "hi")) == {"echo": "hi"}
    assert sim.run(until=client.call("cern", "plain", 21)) == 42
    assert endpoint.stats["handler_errors"] == 0
    assert client.stats["calls"] == 2


def test_unknown_operation_faults(net):
    sim, msgnet = net
    _endpoint, client = make_pair(sim, msgnet)
    with pytest.raises(RemoteCallError, match="unknown operation"):
        sim.run(until=client.call("cern", "nope"))
    assert client.stats["call_failures"] == 1


def test_service_error_maps_to_remote_error(net):
    sim, msgnet = net
    endpoint, client = make_pair(sim, msgnet)
    endpoint.register(
        "boom", lambda request: (_ for _ in ()).throw(ServiceError("deliberate"))
    )
    with pytest.raises(RemoteCallError, match="deliberate"):
        sim.run(until=client.call("cern", "boom"))


def test_handler_bug_is_surfaced_and_counted(net):
    sim, msgnet = net
    metrics = MetricsRegistry(sim)
    endpoint, client = make_pair(
        sim, msgnet, middlewares=(MetricsMiddleware(metrics, "svc"),)
    )

    def broken(request):
        raise KeyError("oops")
        yield

    endpoint.register("broken", broken)
    with pytest.raises(RemoteCallError, match="KeyError"):
        sim.run(until=client.call("cern", "broken"))
    assert endpoint.stats["handler_errors"] == 1
    # a crashed handler is an error, never an ok request
    assert metrics.value(
        "rpc.requests", service="svc", operation="broken", outcome="error"
    ) == 1.0
    assert [
        dict(child.labels)["outcome"]
        for child in metrics.children("rpc.requests")
    ] == ["error"]


def test_service_fault_carries_protocol_payload(net):
    sim, msgnet = net
    endpoint, client = make_pair(sim, msgnet)

    def deny(request):
        raise ServiceFault({"code": 530, "text": "denied"})
        yield

    endpoint.register("deny", deny)

    def run():
        outcome = yield from client.invoke(
            "cern", "deny", raise_on_fault=False
        )
        return outcome

    outcome = sim.run(until=sim.spawn(run()))
    assert not outcome.ok
    assert outcome.payload == {"code": 530, "text": "denied"}


def test_preliminary_replies_collected_before_final(net):
    sim, msgnet = net
    endpoint, client = make_pair(sim, msgnet)

    def progress(request):
        yield request.preliminary("opening")
        request.preliminary("halfway")  # fire-and-forget
        yield sim.timeout(0.5)
        return "done"

    endpoint.register("progress", progress)

    def run():
        outcome = yield from client.invoke("cern", "progress")
        return outcome

    outcome = sim.run(until=sim.spawn(run()))
    assert outcome.ok and outcome.payload == "done"
    assert outcome.preliminaries == ["opening", "halfway"]


def test_middleware_composes_outermost_first(net):
    sim, msgnet = net
    order = []

    def mk(tag):
        def middleware(request, call_next):
            order.append(f"{tag}>")
            result = yield from call_next(request)
            order.append(f"<{tag}")
            return result

        return middleware

    endpoint, client = make_pair(sim, msgnet, middlewares=(mk("a"), mk("b")))
    endpoint.register("op", lambda request: order.append("handler"))
    sim.run(until=client.call("cern", "op"))
    assert order == ["a>", "b>", "handler", "<b", "<a"]


def test_timeout_raises_and_late_reply_is_discarded(net):
    """The timeout regression: a timed-out call's late reply must be
    drained/discarded, never misdelivered to the next request."""
    sim, msgnet = net
    endpoint, client = make_pair(sim, msgnet)

    def slow(request):
        yield sim.timeout(10.0)
        return "slow-reply"

    endpoint.register("slow", slow)
    endpoint.register("fast", lambda request: "fast-reply")

    # one-way WAN latency is ~62.5ms, so 0.2s times out while the slow
    # handler is still working and its reply arrives much later
    with pytest.raises(CallTimeout, match="no reply within"):
        sim.run(until=client.call("cern", "slow", timeout=0.2))
    assert client.stats["call_timeouts"] == 1

    # the next call must see its own reply, not the stale "slow-reply"
    assert sim.run(until=client.call("cern", "fast")) == "fast-reply"
    sim.run(until=sim.timeout(30.0))  # let the slow reply arrive and drain
    assert client.stats["late_replies_discarded"] == 1


def test_calls_to_a_black_hole_time_out_and_leave_no_client_state(net):
    """A reply that never comes leaves nothing behind: no pending call,
    and nothing remembered about the request, however many were lost."""
    sim, msgnet = net
    endpoint, client = make_pair(sim, msgnet)
    endpoint.register("op", lambda request: "ok")
    msgnet.set_service_down("cern", "svc")
    for _ in range(3):
        with pytest.raises(CallTimeout):
            sim.run(until=client.call("cern", "op", timeout=0.5))
    sim.run(until=sim.timeout(30.0))
    assert client.stats["call_timeouts"] == 3
    assert client.stats["late_replies_discarded"] == 0
    assert client._pending == {}
    assert not [
        name for name, value in vars(client).items()
        if isinstance(value, (set, dict)) and value and name != "stats"
    ]


def test_deadline_middleware_sheds_expired_requests(net):
    sim, msgnet = net
    registry = MetricsRegistry(sim)
    endpoint, client = make_pair(
        sim, msgnet,
        middlewares=(DeadlineMiddleware(metrics=registry, service="svc"),),
        tracelog=TraceLog(sim),
    )

    def fine(request):
        return "ok"

    endpoint.register("op", fine)
    # generous deadline: passes
    assert sim.run(until=client.call("cern", "op", timeout=5.0)) == "ok"
    # impossible deadline: the request arrives already expired AND the
    # client gives up first
    with pytest.raises(CallTimeout):
        sim.run(until=client.call("cern", "op", timeout=0.001))
    sim.run(until=sim.timeout(5.0))
    assert registry.value(
        "rpc.deadline_sheds", service="svc", operation="op"
    ) == 1


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_the_handler_gets_the_request_the_client_built(net, traced):
    """One object from `_invoke_once` to the handler; the endpoint only
    stamps what it alone knows, and the context rides the envelope."""
    sim, msgnet = net
    tracelog = TraceLog(sim) if traced else None
    endpoint, client = make_pair(sim, msgnet, tracelog=tracelog)
    sent, handled = [], []
    send = msgnet.send
    msgnet.send = lambda *args, **kwargs: (
        sent.append(kwargs["payload"]) or send(*args, **kwargs)
    )
    endpoint.register("write", handled.append)
    caller = RequestContext("t9", "s9", deadline=60.0)
    sim.run(until=client.call(
        "cern", "write", {"n": 1}, idempotent=True, timeout=5.0,
        context=caller,
    ))
    (request,) = handled
    assert request is sent[0]
    assert (request.operation, request.payload) == ("write", {"n": 1})
    assert request.reply_service == client.reply_service
    assert request.meta["txn"] == ("anl/svc-reply-1", 1, 1)
    assert request.endpoint is endpoint and request.caller_host == "anl"
    on_the_wire = request.envelope.context
    # the call's own 5 s tightened the caller's 60 s; nothing loosens it
    assert (on_the_wire.trace_id, on_the_wire.deadline) == ("t9", 5.0)
    if traced:
        client_span = tracelog.find("svc:write", kind="client")
        server_span = tracelog.find("svc:write", kind="server")
        assert on_the_wire.span_id == client_span.span_id
        assert request.context == server_span.context.with_deadline(5.0)
        assert request.context.parent_id == client_span.span_id
    else:
        assert request.context is on_the_wire
        assert on_the_wire.span_id == "s9"


def test_reply_service_names_are_per_simulator(net):
    """Back-to-back simulations must hand out identical endpoint names."""

    def build():
        sim, topo, _engine = cern_anl_testbed()
        msgnet = MessageNetwork(sim, topo)
        a = ServiceClient(sim, msgnet, topo.host("anl"), "svc")
        b = ServiceClient(sim, msgnet, topo.host("cern"), "svc")
        return a.reply_service, b.reply_service

    assert build() == build()
    assert build() == ("svc-reply-1", "svc-reply-2")


def test_trace_spans_link_client_and_server(net):
    sim, msgnet = net
    tracelog = TraceLog(sim)
    endpoint, client = make_pair(sim, msgnet, tracelog=tracelog)
    endpoint.register("op", lambda request: "ok")
    sim.run(until=client.call("cern", "op"))
    client_span = tracelog.find("svc:op", kind="client")
    server_span = tracelog.find("svc:op", kind="server")
    assert server_span.trace_id == client_span.trace_id
    assert server_span.parent_id == client_span.span_id
    assert client_span.status == "ok" and server_span.status == "ok"
    assert server_span.end is not None
    assert client_span.end >= server_span.end  # reply still had to travel


def test_nested_calls_share_one_trace(net):
    """A handler that calls a second service stays in the caller's trace."""
    sim, msgnet = net
    tracelog = TraceLog(sim)
    endpoint, client = make_pair(sim, msgnet, tracelog=tracelog)
    inner_endpoint = ServiceEndpoint(
        sim, msgnet, msgnet.topology.host("anl"), "inner", tracelog=tracelog
    )
    inner_endpoint.register("leaf", lambda request: "leaf-done")
    inner_client = ServiceClient(
        sim, msgnet, msgnet.topology.host("cern"), "inner", tracelog=tracelog
    )

    def outer(request):
        outcome = yield from inner_client.invoke("anl", "leaf")
        return outcome.payload

    endpoint.register("outer", outer)
    assert sim.run(until=client.call("cern", "outer")) == "leaf-done"
    (trace_id,) = {span.trace_id for span in tracelog.spans()}
    names = [s.name for s in tracelog.trace(trace_id)]
    assert names == ["svc:outer", "svc:outer", "inner:leaf", "inner:leaf"]
    leaf_server = tracelog.find("inner:leaf", kind="server")
    leaf_client = tracelog.find("inner:leaf", kind="client")
    outer_server = tracelog.find("svc:outer", kind="server")
    assert leaf_client.parent_id == outer_server.span_id
    assert leaf_server.parent_id == leaf_client.span_id


def test_message_records_are_slotted(net):
    """What a request builds per hop carries no instance dict."""
    sim, msgnet = net
    tracelog = TraceLog(sim)
    endpoint, client = make_pair(sim, msgnet, tracelog=tracelog)
    endpoint.register("echo", lambda request: request.payload)
    delivered = []
    msgnet.register("anl", "watch", delivered.append)
    msgnet.send("cern", "anl", "watch", payload="x")

    def run():
        return (yield from client.invoke("cern", "echo", 1))

    outcome = sim.run(until=sim.spawn(run()))
    [envelope] = delivered
    span = tracelog.spans(kind="client")[0]
    records = [
        envelope, outcome.context, span, outcome,
        ClientCall(client, "cern", "echo"),
    ]
    assert [type(record).__name__ for record in records] == [
        "Envelope", "RequestContext", "Span", "CallOutcome", "ClientCall",
    ]
    assert [
        type(record).__name__ for record in records
        if hasattr(record, "__dict__")
    ] == []


def test_request_context_is_a_value():
    context = RequestContext("t1", "s1", deadline=4.0)
    twin = RequestContext("t1", "s1", None, 4.0)
    assert context == twin and hash(context) == hash(twin)
    assert context != RequestContext("t1", "s1")
    assert context != ("t1", "s1", None, 4.0)
    assert len({context, twin, context.with_deadline(9.0)}) == 1
    assert repr(context) == (
        "RequestContext(trace_id='t1', span_id='s1', parent_id=None, "
        "deadline=4.0)"
    )
    assert context.child("s2") == RequestContext("t1", "s2", "s1", 4.0)
