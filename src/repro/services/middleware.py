"""Composable server-side middleware for the service bus.

A middleware is a callable ``middleware(request, call_next)`` returning a
generator; it may inspect/augment the :class:`ServiceRequest`, delegate to
``call_next(request)`` with ``yield from``, and post-process the result.
The chain is composed once at endpoint construction, outermost first.

The stock middlewares reproduce what the bespoke GDMP and GridFTP servers
each implemented privately:

* :class:`GsiAuthMiddleware` — GSI chain verification + gridmap mapping
  (the paper's "every client request ... is authenticated and authorized
  by a security service");
* :class:`DeadlineMiddleware` — shed requests whose propagated deadline
  already passed before dispatch (the caller has given up; doing the work
  would only waste simulated server time);
* :class:`MetricsMiddleware` — per-operation RPC latency histograms and
  outcome counters in a :class:`~repro.telemetry.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.security.ca import CertificateAuthority, CertificateError, verify_chain
from repro.security.gridmap import AuthorizationError, GridMap
from repro.services.bus import ServiceError, ServiceFault, ServiceRequest
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = [
    "AuthResult",
    "GsiAuthenticator",
    "GsiAuthMiddleware",
    "DeadlineMiddleware",
    "MetricsMiddleware",
]


@dataclass(frozen=True)
class AuthResult:
    """What GSI verification establishes about a caller."""

    subject: str    # the presented (proxy) subject
    identity: str   # the authenticated end-entity DN
    account: str    # gridmap-mapped local account


class GsiAuthenticator:
    """Chain verification + gridmap authorization, shared by every
    service that authenticates callers (GDMP RPC and GridFTP ADAT)."""

    def __init__(self, trusted_cas: list[CertificateAuthority], gridmap: GridMap):
        self.trusted_cas = trusted_cas
        self.gridmap = gridmap

    def authenticate(self, chain, now: float) -> AuthResult:
        """Verify a presented certificate chain; raises
        :class:`CertificateError` / :class:`AuthorizationError`."""
        if not chain:
            raise CertificateError("no credential presented")
        identity = verify_chain(chain, self.trusted_cas, now)
        account = self.gridmap.authorize(identity)
        return AuthResult(
            subject=chain[0].subject, identity=identity, account=account
        )


class GsiAuthMiddleware:
    """Authenticate + authorize before any dispatch.

    Expects the caller's proxy chain in ``request.meta["chain"]``; on
    success stores the :class:`AuthResult` in ``request.state["auth"]``,
    on failure counts ``auth_failures`` in the endpoint's ``stats`` and
    faults with ``security: ...``.
    """

    def __init__(self, authenticator: GsiAuthenticator):
        self.authenticator = authenticator

    def __call__(self, request: ServiceRequest, call_next):
        try:
            request.state["auth"] = self.authenticator.authenticate(
                request.meta.get("chain"), request.sim.now
            )
        except (CertificateError, AuthorizationError) as exc:
            request.endpoint.stats["auth_failures"] += 1
            raise ServiceError(f"security: {exc}") from exc
        result = yield from call_next(request)
        return result


class DeadlineMiddleware:
    """Shed requests whose propagated deadline expired before dispatch."""

    def __init__(self, metrics: MetricsRegistry = NO_METRICS,
                 service: str = ""):
        self.metrics = metrics
        self.service = service

    def __call__(self, request: ServiceRequest, call_next):
        context = request.context
        if (
            context is not None
            and context.deadline is not None
            and request.sim.now > context.deadline
        ):
            self.metrics.counter(
                "rpc.deadline_sheds",
                service=self.service,
                operation=request.operation,
            ).inc()
            raise ServiceError(
                f"deadline exceeded before dispatch of {request.operation!r}"
            )
        result = yield from call_next(request)
        return result


class MetricsMiddleware:
    """Record per-operation RPC latency and outcomes into a registry.

    Placed outermost in a chain it times the whole server-side handling
    (middlewares + handler, in simulated time) of every request and counts
    outcomes: ``ok``, ``fault`` (protocol-level :class:`ServiceFault`),
    ``error`` (any other exception: a :class:`ServiceError`, deadline
    sheds included, or a handler bug the endpoint answers as a fault).
    Series:

    * ``rpc.latency{service,operation}`` — histogram, seconds;
    * ``rpc.requests{service,operation,outcome}`` — counter.

    Both handles of an ``(operation, outcome)`` are looked up in the
    registry once, on its first request, and kept.
    """

    def __init__(self, registry, service: str):
        self.registry = registry
        self.service = service
        self._handles: dict[tuple[str, str], tuple] = {}

    def __call__(self, request: ServiceRequest, call_next):
        start = request.sim.now
        outcome = "ok"
        try:
            result = yield from call_next(request)
        except ServiceFault:
            outcome = "fault"
            raise
        except Exception:
            outcome = "error"
            raise
        finally:
            key = (request.operation, outcome)
            handles = self._handles.get(key)
            if handles is None:
                handles = self._handles[key] = (
                    self.registry.counter(
                        "rpc.requests", service=self.service,
                        operation=request.operation, outcome=outcome,
                    ),
                    self.registry.histogram(
                        "rpc.latency", service=self.service,
                        operation=request.operation,
                    ),
                )
            requests, latency = handles
            requests.inc()
            latency.observe(request.sim.now - start)
        return result
