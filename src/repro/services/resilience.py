"""Client-side resilience middleware: retries and circuit breaking.

These are :data:`~repro.services.bus.ClientMiddleware` stages installed on
a :class:`~repro.services.bus.ServiceClient` via ``use_middlewares``.  They
act only on *transport-level* failures — exceptions whose ``retryable``
class attribute is true (timeouts, connection resets) — and never re-issue
a call that failed with an application fault, which may not be idempotent
to repeat.

Composition order matters: ``(RetryMiddleware, CircuitBreakerMiddleware)``
puts the retry loop outermost, so every attempt consults the breaker and
every failed attempt feeds its failure count.  An open breaker raises
:class:`CircuitOpenError` (not retryable), which propagates to the caller
immediately — replica failover, not patience, is the right response to a
host that keeps failing.

Determinism: retry jitter is drawn from a seeded
:class:`~repro.simulation.randomness.RandomStreams` generator, so the same
seed gives the same backoff schedule; everything else is pure sim-time
arithmetic.

The backoff schedule, the breaker's threshold and cooldown and the
transfer idle timeout are module constants: no deployment varies them.
What a caller does vary — the RPC timeout — is :class:`ResilienceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.services.bus import ClientCall, ServiceError
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = [
    "RetryMiddleware",
    "CircuitOpenError",
    "CircuitBreakerMiddleware",
    "ResilienceConfig",
]


class CircuitOpenError(ServiceError):
    """The breaker for this server is open: the call was refused locally,
    without touching the network.  Deliberately *not* retryable — callers
    should fail over to another replica rather than wait out the cooldown."""

    retryable = False

    def __init__(self, operation: str, server: str, remaining: float):
        super().__init__(
            f"{operation}@{server}: circuit open "
            f"(retry after {remaining:.3f}s)"
        )
        self.operation = operation
        self.server = server
        self.remaining = remaining


#: Retry schedule: a call is tried up to :data:`RETRY_ATTEMPTS` times, and
#: retry ``n`` (1-based) first sleeps ``RETRY_BASE_DELAY * 2**(n-1) *
#: (1 + RETRY_JITTER * u)``, ``u`` uniform in [0, 1) — at most 0.625 +
#: 1.25 + 2.5 s in all, so no cap on one sleep or on their sum can bind.
RETRY_ATTEMPTS = 4
RETRY_BASE_DELAY = 0.5
RETRY_JITTER = 0.25


class RetryMiddleware:
    """Re-issue transport-failed calls on the seeded backoff schedule.

    Each retry draws exactly one ``u`` from ``rng``, the site's seeded
    stream.  Counts ``rpc.retries{service,operation}`` in the registry
    for every re-issued attempt.  A retry is abandoned (the original
    error re-raised) after :data:`RETRY_ATTEMPTS` attempts, or when
    backing off would cross the caller's propagated deadline — deadlines
    only ever shrink, so sleeping past one can never help.
    """

    def __init__(self, rng, metrics: MetricsRegistry = NO_METRICS):
        self.rng = rng
        self.metrics = metrics

    def __call__(self, call: ClientCall, call_next):
        sim = call.sim
        attempt = 0
        while True:
            attempt += 1
            try:
                outcome = yield from call_next(call)
                return outcome
            except ServiceError as exc:
                if not getattr(exc, "retryable", False):
                    raise
                if attempt >= RETRY_ATTEMPTS:
                    raise
                delay = RETRY_BASE_DELAY * 2.0 ** (attempt - 1)
                delay *= 1.0 + RETRY_JITTER * float(self.rng.random())
                ctx = (
                    call.context if call.context is not None
                    else sim.current_context
                )
                if (
                    ctx is not None
                    and ctx.deadline is not None
                    and sim.now + delay >= ctx.deadline
                ):
                    raise
                self.metrics.counter(
                    "rpc.retries",
                    service=call.client.service,
                    operation=call.operation,
                ).inc()
                yield sim.timeout(delay)


#: Consecutive retryable failures that open a circuit, and the seconds it
#: then refuses calls before letting one probe through.
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN = 30.0

#: Gauge encoding of breaker states.
_STATE_VALUE = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


@dataclass
class _BreakerState:
    state: str = "closed"
    failures: int = 0
    opened_at: float = 0.0
    probing: bool = False
    stats: dict = field(default_factory=lambda: {
        "opened": 0, "closed": 0, "refused": 0,
    })


class CircuitBreakerMiddleware:
    """Per-(server-host, endpoint) circuit breaker: closed → open →
    half-open.

    :data:`BREAKER_THRESHOLD` consecutive retryable failures open the
    circuit; while open, calls are refused locally with
    :class:`CircuitOpenError` until :data:`BREAKER_COOLDOWN` has
    elapsed, after which a single probe call is let through (half-open).
    A successful probe closes the circuit; a failed one re-opens it for
    another cooldown.  Application faults (not retryable) neither trip
    nor reset the breaker's failure count — a server answering "no such
    file" is healthy.

    Breaker state is tracked per *endpoint* on a host, where the endpoint
    is the operation's family prefix (``catalog.info_bulk`` → ``catalog``,
    ``rli.lookup_bulk`` → ``rli``): hosts run several daemons, and a wedged
    replica-location index must not refuse calls to the healthy local
    replica catalog sharing its host.

    Exposes ``breaker.state{service,server,endpoint}`` as a gauge
    (0 closed, 1 half-open, 2 open) and counts opens/refusals.
    """

    def __init__(self, metrics: MetricsRegistry = NO_METRICS,
                 service: str = ""):
        self.metrics = metrics
        self.service = service
        self._servers: dict[tuple[str, str], _BreakerState] = {}

    @staticmethod
    def _endpoint(operation: str) -> str:
        """The daemon-level operation family (prefix before the dot)."""
        return operation.split(".", 1)[0]

    def state_of(self, server_host: str, endpoint: str | None = None) -> str:
        """Current breaker state for a server's endpoint ("closed" when
        unseen).  Without ``endpoint``, the worst state across every
        endpoint seen on that host."""
        if endpoint is not None:
            st = self._servers.get((server_host, endpoint))
            return st.state if st is not None else "closed"
        states = [
            st.state for (host, _), st in self._servers.items()
            if host == server_host
        ]
        for worst in ("open", "half-open"):
            if worst in states:
                return worst
        return "closed"

    def _transition(self, st: _BreakerState, server: str, endpoint: str,
                    to: str, now: float) -> None:
        st.state = to
        if to == "open":
            st.opened_at = now
            st.stats["opened"] += 1
        elif to == "closed":
            st.failures = 0
            st.stats["closed"] += 1
        self.metrics.gauge(
            "breaker.state", service=self.service, server=server,
            endpoint=endpoint,
        ).set(_STATE_VALUE[to])
        self.metrics.counter(
            "breaker.transitions",
            service=self.service, server=server, endpoint=endpoint,
            to=to,
        ).inc()

    def __call__(self, call: ClientCall, call_next):
        sim = call.sim
        server = call.server_host
        endpoint = self._endpoint(call.operation)
        key = (server, endpoint)
        st = self._servers.get(key)
        if st is None:
            st = self._servers[key] = _BreakerState()
        if st.state == "open":
            elapsed = sim.now - st.opened_at
            if elapsed < BREAKER_COOLDOWN:
                st.stats["refused"] += 1
                self.metrics.counter(
                    "breaker.refusals",
                    service=self.service, server=server,
                    endpoint=endpoint,
                ).inc()
                raise CircuitOpenError(
                    call.operation, server, BREAKER_COOLDOWN - elapsed
                )
            self._transition(st, server, endpoint, "half-open", sim.now)
        if st.state == "half-open" and st.probing:
            # one probe at a time: concurrent calls are refused until the
            # in-flight probe settles the circuit one way or the other
            st.stats["refused"] += 1
            raise CircuitOpenError(call.operation, server, 0.0)
        probing = st.state == "half-open"
        if probing:
            st.probing = True
        try:
            outcome = yield from call_next(call)
        except ServiceError as exc:
            if getattr(exc, "retryable", False):
                st.failures += 1
                if (
                    st.state == "half-open"
                    or st.failures >= BREAKER_THRESHOLD
                ):
                    self._transition(st, server, endpoint, "open", sim.now)
            raise
        finally:
            # however the probe ended — an interrupted caller included —
            # the next call may probe again
            if probing:
                st.probing = False
        st.failures = 0
        if st.state != "closed":
            self._transition(st, server, endpoint, "closed", sim.now)
        return outcome


#: Max silence on the GridFTP control channel once resilience is on; a
#: healthy transfer streams restart markers every 5 s, so 15 s of silence
#: means the link or server is gone.
IDLE_TIMEOUT = 15.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for :meth:`repro.gdmp.grid.DataGrid.enable_resilience`
    (retries follow the fixed backoff schedule, breakers the fixed
    threshold and cooldown, transfers :data:`IDLE_TIMEOUT`)."""

    #: whole-call timeout applied to request-manager/catalog RPCs that do
    #: not carry their own.  Generous enough for a healthy MSS staging
    #: (tape mount + seek is ~45 s) to finish inside one attempt.
    rpc_timeout: float = 120.0
