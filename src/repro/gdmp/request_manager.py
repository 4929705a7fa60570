"""The Request Manager: GDMP's authenticated RPC layer.

§4.1: "Client requests are sent to the GDMP server through the Request
Manager.  The Request Manager is the client-server communication module ...
Using the Globus IO and Globus Data Conversion libraries, the Request
Manager provides a limited Remote Procedure Call functionality."  And:
"Every client request to a GDMP server is authenticated and authorized by a
security service."

This module is a thin protocol profile over the shared service bus
(:mod:`repro.services`): the server is a :class:`ServiceEndpoint` whose
middleware chain verifies the caller's proxy chain against the trusted
CAs, maps the identity through the gridmap, and sheds deadline-expired
requests (and, given a metrics registry, counts and times every
operation); the client is a :class:`ServiceClient` that
attaches the proxy chain to every call.  Handlers take the bus's
:class:`~repro.services.bus.ServiceRequest` and callers see the bus's
faults (:class:`~repro.services.bus.RemoteCallError`,
:class:`~repro.services.bus.CallTimeout`): this layer adds credentials,
not vocabulary.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.netsim.channels import MessageNetwork
from repro.netsim.topology import Host
from repro.security.ca import CertificateAuthority
from repro.security.credentials import Credential
from repro.security.gridmap import GridMap
from repro.services.bus import (
    Handler,
    ServiceClient,
    ServiceEndpoint,
    ServiceError,
)
from repro.services.middleware import (
    DeadlineMiddleware,
    GsiAuthenticator,
    GsiAuthMiddleware,
    MetricsMiddleware,
)
from repro.services.replay import ReplayWindow
from repro.services.tracelog import TraceLog
from repro.simulation.kernel import Process, Simulator
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = [
    "GdmpError",
    "RequestServer",
    "RequestClient",
    "RequestProxy",
]

REQUEST_MESSAGE_SIZE = 512


class GdmpError(ServiceError):
    """GDMP operation failure."""


class RequestServer(ServiceEndpoint):
    """Server half: a dispatch table behind the security middleware."""

    SERVICE = "gdmp"

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        host: Host,
        credential: Credential,
        trusted_cas: list[CertificateAuthority],
        gridmap: GridMap,
        service: str = SERVICE,
        tracelog: Optional[TraceLog] = None,
        metrics: MetricsRegistry = NO_METRICS,
    ):
        self.credential = credential
        self.trusted_cas = trusted_cas
        self.gridmap = gridmap
        self.authenticator = GsiAuthenticator(trusted_cas, gridmap)
        super().__init__(
            sim,
            msgnet,
            host,
            service,
            middlewares=(
                MetricsMiddleware(metrics, service=service),
                GsiAuthMiddleware(self.authenticator),
                DeadlineMiddleware(metrics=metrics, service=service),
            ),
            tracelog=tracelog,
            message_size=REQUEST_MESSAGE_SIZE,
        )

    def register(self, operation: str, handler: Handler,
                 replay: Optional[ReplayWindow] = None) -> None:
        """Bind a handler — a plain function, or a generator function when
        it holds the simulated clock — to an operation name.  It receives
        the bus's request once the middleware has verified the caller
        (the :class:`~repro.services.middleware.AuthResult` is in
        ``request.state["auth"]``).  With ``replay`` — the owning
        service's window — the operation is an exactly-once write: a
        re-issued request is answered from the window, never handled
        twice."""
        if replay is not None:
            handler = (
                lambda request, write=handler:
                replay.apply(request.meta.get("txn"), write, request)
            )
        super().register(operation, handler)


class RequestClient(ServiceClient):
    """Client half: issue authenticated calls to remote GDMP servers."""

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        host: Host,
        credential: Credential,
        service: str = RequestServer.SERVICE,
        tracelog: Optional[TraceLog] = None,
    ):
        super().__init__(
            sim,
            msgnet,
            host,
            service,
            tracelog=tracelog,
            message_size=REQUEST_MESSAGE_SIZE,
        )
        self.credential = credential

    def invoke(self, server_host: str, operation: str, payload: Any = None,
               **options: Any):
        """Generator: :meth:`ServiceClient.invoke` of ``operation`` on the
        GDMP server at ``server_host``, this site's proxy chain riding in
        ``meta`` — every request is authenticated.

        With ``timeout`` set, a missing reply (crashed server, dropped
        message) raises :class:`~repro.services.bus.CallTimeout` after that
        many seconds; without it the call waits indefinitely (in-order FIFO
        delivery means no reply can be merely late).  The late reply of a
        timed-out call is discarded on arrival, never misdelivered to a
        later call."""
        return super().invoke(
            server_host, operation, payload,
            meta={"chain": self.credential.chain}, **options,
        )


class RequestProxy:
    """Base of the site-side stubs: one authenticated call per method.

    Owns the two decisions every stub shares — the envelope is sized as
    one request header plus ``ITEM_SIZE`` per batched item, and a
    ``_write`` is an exactly-once call while a ``_read`` is a plain one.
    Both return the call's :class:`Process`: a stub method is a command.
    """

    #: wire-size increment per item carried in one envelope
    ITEM_SIZE = 0

    def __init__(self, client: RequestClient, server_host: str):
        self.client = client
        self.server_host = server_host

    def _invoke(self, host: str, operation: str, payload: Any,
                n_items: int = 0, **options: Any):
        """Generator: one call inside the caller's own process; returns
        the reply payload.  ``options`` are :meth:`ServiceClient.invoke`'s
        (``idempotent``, ``timeout``)."""
        outcome = yield from self.client.invoke(
            host, operation, payload,
            size=REQUEST_MESSAGE_SIZE + self.ITEM_SIZE * n_items, **options,
        )
        return outcome.payload

    def _rpc(self, host: str, operation: str, payload: Any,
             n_items: int = 0, **options: Any) -> Process:
        return self.client.call(
            host, operation, payload,
            size=REQUEST_MESSAGE_SIZE + self.ITEM_SIZE * n_items, **options,
        )

    def _read(self, operation: str, payload: Any, n_items: int = 0) -> Process:
        return self._rpc(self.server_host, operation, payload, n_items)

    def _write(self, operation: str, payload: Any, n_items: int = 0) -> Process:
        return self._rpc(
            self.server_host, operation, payload, n_items, idempotent=True
        )
