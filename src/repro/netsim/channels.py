"""Message-level communication for control traffic (RPC, notifications).

GDMP control messages (requests, notifications, catalog updates) are small
compared to data transfers, so they are modeled at message granularity: a
send is delivered after propagation delay + serialization at the
bottleneck's available capacity + a fixed per-message processing overhead,
without entering the fluid congestion engine.  Bulk data must use
:class:`~repro.netsim.engine.NetworkEngine` flows instead.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.netsim.topology import Host, Topology
from repro.simulation.kernel import Event, Simulator, Timeout

__all__ = ["Envelope", "MessageNetwork"]

#: Host-side cost of handling one message (seconds), paid even on loopback.
PER_MESSAGE_OVERHEAD = 0.001

class Envelope:
    """A delivered message.

    ``context`` carries the sender's request-trace context (a
    :class:`repro.services.context.RequestContext`, or ``None``) so that
    multi-hop request chains — RPC -> GridFTP control -> catalog update —
    keep one causal trace id across every delivery.
    """

    __slots__ = (
        "src", "dst", "service", "payload", "size", "sent_at",
        "delivered_at", "context",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        service: str,
        payload: Any,
        size: int,
        sent_at: float,
        delivered_at: float,
        context: Any = None,
    ):
        self.src = src
        self.dst = dst
        self.service = service
        self.payload = payload
        self.size = size
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.context = context


#: What an endpoint registers: called with each envelope as it arrives.
Deliver = Callable[[Envelope], None]


class MessageNetwork:
    """Registry of endpoint delivery functions plus the latency model
    between them."""

    def __init__(self, sim: Simulator, topology: Topology):
        self.sim = sim
        self.topology = topology
        self._endpoints: dict[tuple[str, str], Deliver] = {}
        #: (host, service) -> set of black-holed operation prefixes; the
        #: element ``None`` means the whole service.  A set, not a single
        #: prefix, so independent faults (say ``catalog.`` and ``rli.``
        #: black-holes on one host) can overlap without clobbering each
        #: other.
        self._blackholed: dict[tuple[str, str], set[Optional[str]]] = {}
        self._service_delays: dict[tuple[str, str], tuple[float, Optional[str]]] = {}
        self.dropped_messages = 0

    # -- failure injection ----------------------------------------------------
    def set_host_down(self, host: Host | str, down: bool = True) -> None:
        """Mark a host crashed: messages addressed to it are silently
        dropped until it comes back (senders see only their own timeouts,
        as on a real network).  The flow engine refuses new data flows to
        or from it; flows already open are the fault injector's to cancel."""
        name = host.name if isinstance(host, Host) else host
        self.topology.host(name)  # validate
        self._mark_down(name, down)

    def is_host_down(self, host: Host | str) -> bool:
        """Whether the host is currently marked crashed."""
        name = host.name if isinstance(host, Host) else host
        return name in self.topology.down

    def set_link_down(self, link_name: str, down: bool = True) -> None:
        """Partition a link: any control message whose route crosses it at
        delivery time is silently lost (in-flight messages included, as on
        a real fibre cut), and the flow engine refuses new data flows
        across it.  Flows already open over the link are *not* cancelled
        here — that is the fault injector's job via
        :meth:`repro.netsim.engine.NetworkEngine.cancel_pool`."""
        if all(link.name != link_name for link in self.topology.links):
            raise KeyError(f"no link named {link_name!r}")
        self._mark_down(link_name, down)

    def _mark_down(self, name: str, down: bool) -> None:
        if down:
            self.topology.down.add(name)
        else:
            self.topology.down.discard(name)

    def set_service_down(
        self,
        host: Host | str,
        service: str,
        down: bool = True,
        prefix: Optional[str] = None,
    ) -> None:
        """Black-hole a (host, service) endpoint: inbound *requests* (not
        replies) are dropped at delivery time.  With ``prefix``, only
        requests whose operation name starts with it are dropped — e.g.
        ``prefix="catalog."`` black-holes catalog RPCs while leaving the
        host's other operations answerable.  Prefix faults are independent:
        raising and clearing ``prefix="rli."`` leaves a concurrent
        ``prefix="catalog."`` black-hole in place.  Clearing with
        ``prefix=None`` clears every fault on the endpoint."""
        name = host.name if isinstance(host, Host) else host
        self.lookup(name, service)  # validate
        key = (name, service)
        if down:
            self._blackholed.setdefault(key, set()).add(prefix)
        elif prefix is None:
            self._blackholed.pop(key, None)
        else:
            prefixes = self._blackholed.get(key)
            if prefixes is not None:
                prefixes.discard(prefix)
                if not prefixes:
                    del self._blackholed[key]

    def set_service_delay(
        self,
        host: Host | str,
        service: str,
        extra: float = 0.0,
        prefix: Optional[str] = None,
    ) -> None:
        """Add ``extra`` seconds of one-way latency to requests addressed
        to a (host, service) endpoint (optionally only those whose
        operation matches ``prefix``).  ``extra=0`` clears the fault."""
        name = host.name if isinstance(host, Host) else host
        self.lookup(name, service)  # validate
        if extra > 0:
            self._service_delays[(name, service)] = (extra, prefix)
        else:
            self._service_delays.pop((name, service), None)

    @staticmethod
    def _operation_matches(payload: Any, prefix: Optional[str]) -> bool:
        """True when a message is a request whose operation matches
        ``prefix``.  What the bus carries says so itself: a request has an
        ``operation`` attribute, a reply has none and never matches."""
        operation = getattr(payload, "operation", None)
        if operation is None:
            return False
        return prefix is None or operation.startswith(prefix)

    def register(self, host: Host | str, service: str, deliver: Deliver) -> None:
        """Bind a (host, service) endpoint to ``deliver``, which the
        network calls with each :class:`Envelope` at its delivery instant
        — the code that answers a message is the code that receives it."""
        name = host.name if isinstance(host, Host) else host
        self.topology.host(name)  # validate
        address = (name, service)
        if address in self._endpoints:
            raise ValueError(f"service {service!r} already registered on {name!r}")
        self._endpoints[address] = deliver

    def lookup(self, host: Host | str, service: str) -> Deliver:
        """The delivery function of a registered (host, service) endpoint."""
        name = host.name if isinstance(host, Host) else host
        try:
            return self._endpoints[(name, service)]
        except KeyError:
            raise KeyError(f"no service {service!r} on host {name!r}") from None

    def latency(self, src: Host | str, dst: Host | str, size: int) -> float:
        """One-way delivery latency for a ``size``-byte message."""
        src_name = src.name if isinstance(src, Host) else src
        dst_name = dst.name if isinstance(dst, Host) else dst
        if src_name == dst_name:
            return PER_MESSAGE_OVERHEAD
        links, propagation, bandwidth = self.topology.path(src_name, dst_name)
        # only the queues move between messages (Link.queueing_delay)
        queueing = sum(link.queue / link.capacity for link in links)
        return PER_MESSAGE_OVERHEAD + propagation + queueing + size / bandwidth

    def send(
        self,
        src: Host | str,
        dst: Host | str,
        service: str,
        payload: Any,
        size: int = 512,
        context: Any = None,
    ) -> Timeout:
        """Send ``payload`` to ``(dst, service)``.  The returned timer fires
        at the delivery instant whether the message landed or was lost:
        the endpoint's delivery function and ``dropped_messages`` say which.
        ``context`` (defaulting to the sending process's ambient context)
        is stamped onto the delivered envelope."""
        src_name = src.name if isinstance(src, Host) else src
        dst_name = dst.name if isinstance(dst, Host) else dst
        deliver_to = self.lookup(dst_name, service)
        delay = self.latency(src_name, dst_name, size)
        if self._service_delays:
            fault = self._service_delays.get((dst_name, service))
            if fault is not None and self._operation_matches(payload, fault[1]):
                delay += fault[0]
        sent_at = self.sim.now
        if context is None:
            context = self.sim.current_context
        topology = self.topology

        def deliver(_timer: Event) -> None:
            if topology.down and topology.severed(
                src_name, dst_name, topology.route(src_name, dst_name)
            ):
                self.dropped_messages += 1
                return  # lost to a crashed host or a partitioned link
            if self._blackholed:
                prefixes = self._blackholed.get((dst_name, service))
                if prefixes is not None and any(
                    self._operation_matches(payload, prefix)
                    for prefix in prefixes
                ):
                    self.dropped_messages += 1
                    return  # black-holed at the endpoint
            deliver_to(Envelope(
                src_name, dst_name, service, payload, size, sent_at,
                self.sim.now, context,
            ))

        # One timer per message, not a process: timers of equal delay fire
        # in the order they were set, which is the per-pair FIFO.
        timer = self.sim.timeout(delay)
        timer.callbacks.append(deliver)
        return timer
