"""The service bus: one dispatch/reply/timeout implementation for every
control-plane service.

GDMP's §4.1 Request Manager, the GridFTP control channel, and the replica
catalog service are all request/reply conversations over the simulated
message network.  This module provides the single implementation they
share:

* :class:`ServiceEndpoint` — a (host, service) address with an operation
  dispatch table behind a composable middleware chain (see
  :mod:`repro.services.middleware`);
* :class:`ServiceClient` — correlated request/reply with per-call
  timeouts, late-reply discarding, and client-side trace spans;
* :class:`ServiceError` / :class:`ServiceFault` — the two ways a handler
  fails a request: a clean message fault, or a protocol-specific payload
  (e.g. a GridFTP ``Reply`` with an FTP error code).

A request on the wire is the :class:`ServiceRequest` its handler receives
and a reply is a :class:`ServiceReply`; this module is the only one that
knows either.  Each travels with a :class:`RequestContext` on its
envelope; endpoints open server spans as children of the caller's span and
install the context as the handler process's ambient context, so nested
calls and spawned network flows join the same trace automatically.
"""

from __future__ import annotations

import itertools
from collections import deque
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from repro.netsim.channels import Envelope, MessageNetwork
from repro.netsim.topology import Host
from repro.services.context import RequestContext
from repro.services.tracelog import Span, TraceLog
from repro.simulation.kernel import Event, Interrupt, Process, Simulator

__all__ = [
    "DEFAULT_MESSAGE_SIZE",
    "ServiceError",
    "ServiceFault",
    "RemoteCallError",
    "CallTimeout",
    "ConnectionReset",
    "CallOutcome",
    "ServiceRequest",
    "ServiceReply",
    "ServiceEndpoint",
    "ServiceClient",
    "ClientCall",
    "run_handler",
]

#: Default control-message size in bytes (one small framed request).
DEFAULT_MESSAGE_SIZE = 512

_TIMED_OUT = object()


class ServiceError(Exception):
    """A clean operation failure: mapped to a fault reply whose payload is
    the error message (and re-raised at the caller as a remote error).

    ``retryable`` marks transport-level failures (timeouts, resets) that a
    retry policy may safely re-issue; application faults stay ``False``.
    """

    retryable = False


class ServiceFault(Exception):
    """A failure with a protocol-specific reply payload.

    Raised by middleware or handlers that must answer in their protocol's
    own vocabulary — e.g. the GridFTP session gate faults with a
    ``Reply(503, ...)`` object rather than a bare string.
    """

    def __init__(self, payload: Any):
        super().__init__(repr(payload))
        self.payload = payload


class RemoteCallError(ServiceError):
    """A fault reply, re-raised at the caller: the remote handler failed
    the operation (an application error — retrying cannot help)."""

    def __init__(self, operation: str, server: str, message: str):
        super().__init__(f"{operation}@{server}: {message}")
        self.operation = operation
        self.server = server
        self.remote_message = message


class CallTimeout(ServiceError):
    """No reply within the deadline (crashed server, dropped message)."""

    retryable = True

    def __init__(self, operation: str, server: str, timeout: float):
        super().__init__(f"{operation}@{server}: no reply within {timeout}s")
        self.operation = operation
        self.server = server
        self.timeout = timeout


class ConnectionReset(ServiceError):
    """The server crashed (or was declared down) while this call was in
    flight: the pending reply was synthesized away by
    :meth:`ServiceClient.fail_pending`, or the call was refused up front
    because the client is in fail-fast mode and the host is known down."""

    retryable = True

    def __init__(self, operation: str, server: str, message: str):
        super().__init__(f"{operation}@{server}: {message}")
        self.operation = operation
        self.server = server
        self.remote_message = message
        #: preliminary replies received before the reset (e.g. GridFTP 111
        #: restart markers) — what makes client-side resume possible.
        self.preliminaries: list = []


class _ResetBody:
    """Sentinel payload of a synthetic reply injected by ``fail_pending``
    (distinguishable from any real fault payload)."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


class CallOutcome:
    """What one bus call produced."""

    __slots__ = ("ok", "payload", "preliminaries", "context")

    def __init__(
        self,
        ok: bool,
        payload: Any,
        preliminaries: Optional[list] = None,
        context: Optional[RequestContext] = None,
    ):
        self.ok = ok
        self.payload = payload
        self.preliminaries = [] if preliminaries is None else preliminaries
        self.context = context


#: A server middleware: ``middleware(request, call_next)`` returning a
#: generator; ``call_next(request)`` invokes the rest of the chain.
Middleware = Callable[["ServiceRequest", Callable], Generator]

#: A terminal handler: ``handler(request)`` returning the answer, or a
#: generator of simulation events that returns it.
Handler = Callable[["ServiceRequest"], Any]


def run_handler(handler: Callable[[Any], Any], request: Any):
    """Generator: the answer of ``handler(request)``.  A handler whose
    operation is immediate is a plain function; one that holds the
    simulated clock is a generator function, driven here inside the
    calling request process."""
    result = handler(request)
    if isinstance(result, GeneratorType):
        result = yield from result
    return result


class ClientCall:
    """One outbound call as seen by *client* middleware (retry policies,
    circuit breakers).  The terminal stage issues the wire request via
    :meth:`ServiceClient._invoke_once`; a middleware that re-invokes
    ``call_next`` re-issues the call with a fresh request id."""

    __slots__ = (
        "client", "server_host", "operation", "payload", "size", "timeout",
        "idle_timeout", "context", "meta", "raise_on_fault",
    )

    def __init__(
        self,
        client: "ServiceClient",
        server_host: str,
        operation: str,
        payload: Any = None,
        size: Optional[int] = None,
        timeout: Optional[float] = None,
        idle_timeout: Optional[float] = None,
        context: Optional[RequestContext] = None,
        meta: Optional[dict] = None,
        raise_on_fault: bool = True,
    ):
        self.client = client
        self.server_host = server_host
        self.operation = operation
        self.payload = payload
        self.size = size
        self.timeout = timeout
        self.idle_timeout = idle_timeout
        self.context = context
        self.meta = meta
        self.raise_on_fault = raise_on_fault

    @property
    def sim(self) -> Simulator:
        return self.client.sim


#: A client middleware: ``middleware(call, call_next)`` returning a
#: generator; ``call_next(call)`` invokes the rest of the chain (and may
#: be re-invoked to retry).
ClientMiddleware = Callable[[ClientCall, Callable], Generator]


class ServiceRequest:
    """One request, from the client that builds it to the handler that
    answers it: :meth:`ServiceClient._invoke_once` puts this object on the
    wire and the endpoint hands the same object to its middleware chain,
    stamping ``endpoint``, ``envelope`` and ``context`` (which travels on
    the envelope, not in here) on arrival."""

    __slots__ = (
        "request_id operation payload meta reply_service "
        "endpoint envelope context state"
    ).split()

    def __init__(
        self,
        request_id: int,
        operation: str,
        payload: Any,
        meta: dict,
        reply_service: str,
    ):
        self.request_id = request_id
        self.operation = operation
        self.payload = payload
        self.meta = meta
        self.reply_service = reply_service
        self.endpoint: Optional["ServiceEndpoint"] = None
        self.envelope: Optional[Envelope] = None
        self.context: Optional[RequestContext] = None
        #: middleware scratch space (auth result, session, ...)
        self.state: dict[str, Any] = {}

    @property
    def caller_host(self) -> str:
        return self.envelope.src

    @property
    def sim(self) -> Simulator:
        return self.endpoint.sim

    def preliminary(self, payload: Any) -> Event:
        """Send a non-final reply (a GridFTP 1xx marker, a progress note).
        Returns the message's delivery timer, which fires at the delivery
        instant even when the reply is lost: callers may yield it to pace
        on the control channel or ignore it to fire-and-forget."""
        return self.endpoint._respond(self, ok=True, payload=payload,
                                      final=False)


class ServiceReply:
    """One reply on the wire: final, or a preliminary marker ahead of it.
    It has no ``operation``, which is how the network tells it from a
    request."""

    __slots__ = ("request_id", "ok", "final", "payload")

    def __init__(self, request_id: int, ok: bool, final: bool, payload: Any):
        self.request_id = request_id
        self.ok = ok
        self.final = final
        self.payload = payload


class _Replies:
    """The replies of one call in flight to ``host``, in arrival order.  A
    reply that arrives while its caller is parked wakes it; one that
    arrives while the caller runs waits in ``items`` and is taken without
    an event."""

    __slots__ = ("sim", "host", "items", "waiter")

    def __init__(self, sim: Simulator, host: str):
        self.sim = sim
        self.host = host
        self.items: deque[ServiceReply] = deque()
        self.waiter: Optional[Event] = None

    def put(self, reply: ServiceReply) -> None:
        waiter = self.waiter
        if waiter is None:
            self.items.append(reply)
        else:
            self.waiter = None
            waiter.succeed(reply)

    def wait(self, deadline_at: Optional[float]) -> Event:
        """Park the caller: an event yielding the next reply, or
        ``_TIMED_OUT`` at ``deadline_at``."""
        self.waiter = Event(self.sim)
        if deadline_at is None:
            return self.waiter
        remaining = max(deadline_at - self.sim.now, 0.0)
        return self.sim.any_of(
            [self.waiter, self.sim.timeout(remaining, value=_TIMED_OUT)]
        )


class ServiceEndpoint:
    """Server half of the bus: a dispatch table behind middleware."""

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        host: Host,
        service: str,
        *,
        middlewares: tuple = (),
        tracelog: Optional[TraceLog] = None,
        message_size: int = DEFAULT_MESSAGE_SIZE,
        unknown_operation: Optional[Callable[["ServiceRequest"], Exception]] = None,
    ):
        self.sim = sim
        self.msgnet = msgnet
        self.host = host
        self.service = service
        self.tracelog = tracelog
        #: ``auth_failures`` is moved by whichever stage authenticates for
        #: this endpoint (``GsiAuthMiddleware``, GridFTP's ``ADAT``)
        self.stats = {"handler_errors": 0, "auth_failures": 0}
        self.message_size = message_size
        self._unknown_operation = unknown_operation or (
            lambda request: ServiceError(
                f"unknown operation {request.operation!r}"
            )
        )
        self._handlers: dict[str, Handler] = {}
        #: span name per operation, built once: ``service:operation``
        self._span_names: dict[str, str] = {}
        self._chain = self._build_chain(tuple(middlewares))
        msgnet.register(host, service, self._receive)

    # -- registration ----------------------------------------------------
    def register(self, operation: str, handler: Handler) -> None:
        """Bind a handler (plain or generator function) to an operation."""
        if operation in self._handlers:
            raise ValueError(f"handler for {operation!r} already registered")
        self._handlers[operation] = handler

    def _build_chain(self, middlewares: tuple):
        def terminal(request: ServiceRequest):
            handler = self._handlers.get(request.operation)
            if handler is None:
                raise self._unknown_operation(request)
            return (yield from run_handler(handler, request))

        chain = terminal
        for middleware in reversed(middlewares):
            def stage(request, _mw=middleware, _next=chain):
                return _mw(request, _next)
            chain = stage
        return chain

    # -- serving ---------------------------------------------------------
    def _receive(self, envelope: Envelope) -> None:
        """Each request is answered by a process of its own, spawned at
        its delivery instant: requests to one endpoint run concurrently."""
        self.sim.spawn(
            self._handle(envelope),
            name=f"{self.service}-req@{self.host.name}",
        )

    def _respond(
        self,
        request: ServiceRequest,
        ok: bool,
        payload: Any,
        final: bool = True,
    ) -> Event:
        return self.msgnet.send(
            self.host,
            request.caller_host,
            request.reply_service,
            payload=ServiceReply(request.request_id, ok, final, payload),
            size=self.message_size,
            context=request.context,
        )

    def _handle(self, envelope: Envelope):
        request: ServiceRequest = envelope.payload
        request.endpoint = self
        request.envelope = envelope
        request.context = envelope.context
        span: Optional[Span] = None
        if self.tracelog is not None:
            name = self._span_names.get(request.operation)
            if name is None:
                name = self._span_names[request.operation] = (
                    f"{self.service}:{request.operation}"
                )
            span = self.tracelog.begin(
                name,
                parent=request.context,
                kind="server",
                host=self.host.name,
                service=self.service,
            )
            deadline = (
                request.context.deadline if request.context is not None
                else None
            )
            request.context = span.context_until(deadline)
        # Everything this handler spawns — nested calls, transfers, flows —
        # inherits the request's context through the ambient mechanism.
        self.sim.active_process.context = request.context
        try:
            result = yield from self._chain(request)
        except ServiceFault as fault:
            if span is not None:
                self.tracelog.finish(span, "error", detail=str(fault))
            self._respond(request, ok=False, payload=fault.payload)
            return
        except ServiceError as exc:
            if span is not None:
                self.tracelog.finish(span, "error", detail=str(exc))
            self._respond(request, ok=False, payload=str(exc))
            return
        except Exception as exc:  # handler bug or substrate error: surface it
            self.stats["handler_errors"] += 1
            if span is not None:
                self.tracelog.finish(
                    span, "error", detail=f"{type(exc).__name__}: {exc}"
                )
            self._respond(
                request, ok=False, payload=f"{type(exc).__name__}: {exc}"
            )
            return
        if span is not None:
            self.tracelog.finish(span, "ok")
        # sent, not awaited: an answer lost to a crash must not leave its
        # handler parked on a delivery that never comes
        self._respond(request, ok=True, payload=result)


class ServiceClient:
    """Client half of the bus: correlated calls with timeouts and traces."""

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        host: Host,
        service: str,
        *,
        tracelog: Optional[TraceLog] = None,
        message_size: int = DEFAULT_MESSAGE_SIZE,
        middlewares: tuple = (),
    ):
        self.sim = sim
        self.msgnet = msgnet
        self.host = host
        self.service = service
        self.tracelog = tracelog
        self.stats = {
            "calls": 0,
            "call_failures": 0,
            "call_timeouts": 0,
            "late_replies_discarded": 0,
            "connection_resets": 0,
            "fast_failures": 0,
        }
        self.message_size = message_size
        #: whole-call timeout of a call that names none (None: wait)
        self.default_timeout: Optional[float] = None
        #: refuse calls to hosts the msgnet knows are down instead of
        #: waiting out a timeout.  Off by default: a plain client should
        #: observe a crash exactly as a real one would — silence.
        self.fail_fast_when_down = False
        self._client_chain = self._build_client_chain(tuple(middlewares))
        #: span name per operation, built once: ``service:operation``
        self._span_names: dict[str, str] = {}
        # Per-simulator serial, not a module global: back-to-back
        # simulations in one process name their endpoints identically.
        self.reply_service = (
            f"{service}-reply-{sim.next_serial(f'bus-client:{service}')}"
        )
        msgnet.register(host, self.reply_service, self._receive)
        self._request_ids = itertools.count(1)
        #: the calls in flight, by request id, in the order they were sent
        self._pending: dict[int, _Replies] = {}
        #: idempotent-write serials (see :mod:`repro.services.replay`);
        #: the open set is insertion-ordered, so its first key is the
        #: lowest serial still in flight
        self._txn_serials = itertools.count(1)
        self._open_txns: dict[int, None] = {}

    # -- client middleware ------------------------------------------------
    def use_middlewares(self, middlewares: tuple) -> None:
        """Install a client middleware chain (outermost first), replacing
        any existing one.  Middleware see every :meth:`invoke`."""
        self._client_chain = self._build_client_chain(tuple(middlewares))

    def _build_client_chain(self, middlewares: tuple):
        def terminal(call: ClientCall):
            outcome = yield from self._invoke_once(call)
            return outcome

        chain = terminal
        for middleware in reversed(middlewares):
            def stage(call, _mw=middleware, _next=chain):
                return _mw(call, _next)
            chain = stage
        return chain

    # -- failure injection ------------------------------------------------
    def fail_pending(self, server_host: str, message: str = "connection reset") -> int:
        """Synthesize a connection-reset reply for every call of this
        client currently in flight to ``server_host`` (a crashed server
        loses its in-flight request state; the caller's TCP connection
        resets rather than hanging until an application timeout).  Returns
        the number of calls reset."""
        failed = 0
        for request_id, replies in self._pending.items():
            if replies.host != server_host:
                continue
            replies.put(
                ServiceReply(request_id, False, True, _ResetBody(message))
            )
            failed += 1
        if failed:
            self.stats["connection_resets"] += failed
        return failed

    # -- reply routing ---------------------------------------------------
    def _receive(self, envelope: Envelope) -> None:
        """Put a reply into the queue of the call it answers.  A reply to
        a call no longer in flight is dropped, as a real client drops data
        for a closed control channel; a final one answered a call that
        timed out, was interrupted or was reset, and is counted late."""
        reply: ServiceReply = envelope.payload
        replies = self._pending.get(reply.request_id)
        if replies is not None:
            replies.put(reply)
        elif reply.final:
            self.stats["late_replies_discarded"] += 1

    # -- calling ---------------------------------------------------------
    def invoke(
        self,
        server_host: str,
        operation: str,
        payload: Any = None,
        *,
        size: Optional[int] = None,
        timeout: Optional[float] = None,
        idle_timeout: Optional[float] = None,
        context: Optional[RequestContext] = None,
        meta: Optional[dict] = None,
        raise_on_fault: bool = True,
        idempotent: bool = False,
    ):
        """Generator: issue one call and wait for its final reply, inside
        the caller's own process (``yield from``).  Returns a
        :class:`CallOutcome`; with ``raise_on_fault`` a fault reply whose
        payload is a string raises :class:`RemoteCallError` instead.

        ``timeout`` bounds the whole call; ``idle_timeout`` bounds the gap
        between replies, so a long transfer streaming periodic preliminary
        markers stays alive while a stalled one is detected quickly.

        ``idempotent`` marks a write the server must apply exactly once
        however often the transport re-issues it: the call carries one
        ``txn`` in its ``meta`` across every retry, answered from the
        service's :class:`~repro.services.replay.ReplayWindow` when
        repeated.  The write stays *open* until this returns or raises —
        after that no retry of it can ever be sent."""
        if idempotent:
            serial = next(self._txn_serials)
            self._open_txns[serial] = None
            meta = {**(meta or {}), "txn": (
                f"{self.host.name}/{self.reply_service}",
                serial,
                next(iter(self._open_txns)),
            )}
        call = ClientCall(
            self, server_host, operation, payload, size, timeout,
            idle_timeout, context, meta, raise_on_fault,
        )
        try:
            return (yield from self._client_chain(call))
        finally:
            if idempotent:
                del self._open_txns[serial]

    def _invoke_once(self, call: ClientCall):
        """One wire-level request/reply exchange (the terminal stage of
        the client middleware chain)."""
        server_host = call.server_host
        operation = call.operation
        timeout = call.timeout
        if timeout is None and call.idle_timeout is None:
            # an idle-bounded call (e.g. a long transfer streaming
            # markers) must not be capped by the blanket default — its
            # rolling idle deadline is the liveness check
            timeout = self.default_timeout
        if self.fail_fast_when_down and self.msgnet.is_host_down(server_host):
            self.stats["fast_failures"] += 1
            raise ConnectionReset(operation, server_host, "host is down")
        parent = (
            call.context if call.context is not None
            else self.sim.current_context
        )
        span: Optional[Span] = None
        if self.tracelog is not None:
            name = self._span_names.get(operation)
            if name is None:
                name = self._span_names[operation] = (
                    f"{self.service}:{operation}"
                )
            span = self.tracelog.begin(
                name,
                parent=parent,
                kind="client",
                host=self.host.name,
                service=self.service,
            )
            ctx: Optional[RequestContext] = span.context_until(
                parent.deadline if parent is not None else None
            )
        else:
            ctx = parent
        if ctx is not None:
            if timeout is not None:
                ctx = ctx.with_deadline(self.sim.now + timeout)
            elif ctx.deadline is not None:
                # no explicit timeout: inherit the caller's remaining budget
                timeout = max(ctx.deadline - self.sim.now, 0.0)

        request_id = next(self._request_ids)
        replies = self._pending[request_id] = _Replies(self.sim, server_host)
        self.stats["calls"] += 1
        self.msgnet.send(
            self.host,
            server_host,
            self.service,
            payload=ServiceRequest(
                request_id, operation, call.payload, call.meta or {},
                self.reply_service,
            ),
            size=self.message_size if call.size is None else call.size,
            context=ctx,
        )
        hard_deadline = None if timeout is None else self.sim.now + timeout
        idle = call.idle_timeout

        def next_deadline():
            candidates = [d for d in (
                hard_deadline,
                None if idle is None else self.sim.now + idle,
            ) if d is not None]
            return min(candidates) if candidates else None

        deadline_at = next_deadline()
        preliminaries: list = []
        while True:
            if replies.items:
                reply = replies.items.popleft()
            else:
                try:
                    reply = yield replies.wait(deadline_at)
                except Interrupt:
                    # the calling process was stopped mid-wait: nobody
                    # will read the reply, so it is dropped on arrival
                    self._discard(request_id)
                    if span is not None:
                        self.tracelog.finish(
                            span, "error", detail="interrupted")
                    raise
            if reply is _TIMED_OUT:
                self._discard(request_id)
                self.stats["call_timeouts"] += 1
                if span is not None:
                    self.tracelog.finish(span, "timeout")
                exc = CallTimeout(
                    operation, server_host,
                    timeout if timeout is not None else idle,
                )
                exc.preliminaries = preliminaries
                raise exc
            if not reply.final:
                preliminaries.append(reply.payload)
                # an idle deadline is rolling: every reply renews it
                deadline_at = next_deadline()
                continue
            break
        del self._pending[request_id]
        if isinstance(reply.payload, _ResetBody):
            # synthetic reply from fail_pending: the server crashed with
            # this call in flight; a late real reply (e.g. raced in just
            # before the crash) finds no call and is discarded
            if span is not None:
                self.tracelog.finish(span, "error", detail=reply.payload.message)
            exc = ConnectionReset(operation, server_host, reply.payload.message)
            exc.preliminaries = preliminaries
            raise exc
        outcome = CallOutcome(reply.ok, reply.payload, preliminaries, ctx)
        if not outcome.ok:
            self.stats["call_failures"] += 1
            if span is not None:
                self.tracelog.finish(span, "error", detail=str(outcome.payload))
            if call.raise_on_fault and isinstance(outcome.payload, str):
                raise RemoteCallError(operation, server_host, outcome.payload)
            return outcome
        if span is not None:
            self.tracelog.finish(span, "ok")
        return outcome

    def call(self, server_host: str, operation: str, payload: Any = None,
             **kwargs: Any) -> Process:
        """:meth:`invoke` as a process of its own — a call its caller
        holds as a command — whose value is the final reply payload."""

        def run():
            outcome = yield from self.invoke(
                server_host, operation, payload, **kwargs
            )
            return outcome.payload

        return self.sim.spawn(
            run(), name=f"{self.service}-call {operation}@{server_host}"
        )

    def _discard(self, request_id: int) -> None:
        """Timeout cleanup: drop the pending entry, so the eventual late
        reply is discarded, never misdelivered."""
        replies = self._pending.pop(request_id)
        # a reply may have raced in at this very instant: count it
        self.stats["late_replies_discarded"] += len(replies.items)
