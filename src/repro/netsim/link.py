"""Network links: capacity, propagation delay, FIFO queue, cross-traffic.

A :class:`Link` is unidirectionally modeled but used symmetrically (the
topology installs it for both directions; data flows dominate one direction
and ACK traffic is negligible at this abstraction level).

The queue is a fluid quantity in bytes.  Cross-traffic is a constant-rate
background load that consumes capacity and absorbs its proportional share of
overflow drops but never backs off — this is what makes a 45 Mbps production
link deliver ≈25 Mbps to a new transfer, as observed in the paper's testbed.

The Link object stays *authoritative* for queue state even under the
flow-table kernels: the engine calls :meth:`Link.advance_queue` per
touched link each tick and mirrors ``queue`` back into its table column
(a read-only copy used for the whole-array RTT pass), so external readers
— :meth:`queueing_delay` for control-message latency, ``tools.ping`` —
always see the current value without any flush step.
``capacity``/``loss_rate``/``queue_capacity`` (and ``delay``) are
treated as immutable after construction; the table reads them when the
link enters it (the first flow to cross it since no flow did), and the
topology keeps each route's delay sum and least available capacity for
message latency (:meth:`Topology.path`).  ``cross_traffic`` changes on a
built link only through :meth:`Topology.set_cross_traffic`, which drops
those kept figures and refreshes the engines' copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Link"]


@dataclass
class Link:
    """A point-to-point network segment.

    Parameters
    ----------
    name:
        Identifier used in topology routing and reports.
    capacity:
        Raw line rate in bytes/second.
    delay:
        One-way propagation delay in seconds.
    queue_capacity:
        Router buffer at the head of the link, in bytes.  Arrivals beyond
        ``capacity`` accumulate here; overflow becomes packet loss.
    cross_traffic:
        Constant background load in bytes/second (non-reactive).
    loss_rate:
        Random per-packet loss probability (transmission errors, unrelated
        congestion elsewhere) applied independently of queue overflow.
    """

    name: str
    capacity: float
    delay: float
    queue_capacity: float = 128 * 1024
    cross_traffic: float = 0.0
    loss_rate: float = 0.0

    queue: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.name}: capacity must be positive")
        if self.delay < 0:
            raise ValueError(f"link {self.name}: negative delay")
        if self.cross_traffic < 0 or self.cross_traffic >= self.capacity:
            raise ValueError(
                f"link {self.name}: cross traffic must be in [0, capacity)"
            )
        if not 0 <= self.loss_rate < 1:
            raise ValueError(f"link {self.name}: loss_rate must be in [0, 1)")

    @property
    def available_capacity(self) -> float:
        """Capacity left over after the constant cross-traffic."""
        return self.capacity - self.cross_traffic

    @property
    def queueing_delay(self) -> float:
        """Extra delay a packet arriving now experiences from the queue."""
        return self.queue / self.capacity

    def advance_queue(self, offered_rate: float, dt: float) -> float:
        """Advance queue state by ``dt`` given total ``offered_rate`` (bytes/s,
        including cross-traffic).  Returns the number of bytes *dropped* due
        to queue overflow during this interval (0 when the queue absorbed
        everything)."""
        net = (offered_rate - self.capacity) * dt
        new_queue = self.queue + net
        dropped = 0.0
        if new_queue > self.queue_capacity:
            dropped = new_queue - self.queue_capacity
            new_queue = self.queue_capacity
        self.queue = max(0.0, new_queue)
        return dropped

    def reset(self) -> None:
        """Drain the queue (between experiment repetitions)."""
        self.queue = 0.0
