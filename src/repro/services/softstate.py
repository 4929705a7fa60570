"""Soft-state push: one standing process per (source, target) pair.

The RLS digest feed and the grid-weather forecast feed are the same
protocol with different payloads: every period a source builds its
current state and pushes it to one host over the bus; the source is told
only about pushes the target *acknowledged*, so a push lost to a fault
(black-holed endpoint, dropped message, crashed host) is simply folded
into the next period's payload.  Nothing here retries in a tight loop or
escalates — convergence comes from the cadence itself.

:class:`SoftStatePusher` is that protocol; :class:`PushNames` carries
the plane-specific spelling (process name, interrupt cause, counter
names) so each plane's telemetry keeps its own vocabulary;
:class:`PushPlane` is what a plane's runtime inherits to own a set of
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.services.bus import ServiceClient
from repro.simulation.kernel import Interrupt, Process
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["PushNames", "SoftStatePusher", "PushPlane"]


@dataclass(frozen=True)
class PushNames:
    """How one push plane spells its processes and counters."""

    #: standing process is ``{process}@{site}``
    process: str
    #: interrupt cause :meth:`SoftStatePusher.stop` delivers
    shutdown: str
    #: counter ``{pushes}{site, <label>=lost|<kind>}``
    pushes: str
    label: str
    #: counter ``{bytes}{site}`` of acknowledged payload bytes
    bytes: str


class SoftStatePusher:
    """Periodically push ``build()`` to ``operation`` at ``target_host``.

    ``wire_size(payload)`` models the payload's bytes on top of one
    request header.  ``on_ack(payload)`` runs only after the target
    replied.  ``kinds`` declares the payload kinds that get their own
    ``pushes_<kind>`` stat, told apart by ``kind_of(payload)``; a plane
    with one kind of payload leaves both out and counts ``pushed``.
    ``phase`` delays the first push, so the sources of one plane do not
    all push in the same instant.
    """

    def __init__(
        self,
        client: ServiceClient,
        names: PushNames,
        site: str,
        target_host: str,
        operation: str,
        period: float,
        build: Callable[[], dict],
        wire_size: Callable[[dict], int],
        *,
        on_ack: Optional[Callable[[dict], None]] = None,
        kinds: tuple[str, ...] = (),
        kind_of: Optional[Callable[[dict], str]] = None,
        phase: float = 0.0,
        metrics: MetricsRegistry = NO_METRICS,
    ) -> None:
        self.sim = client.sim
        self.client = client
        self.names = names
        self.site = site
        self.target_host = target_host
        self.operation = operation
        self.period = period
        self.build = build
        self.wire_size = wire_size
        self.on_ack = on_ack
        self.kind_of = kind_of
        self.phase = phase
        self.metrics = metrics
        self.process: Optional[Process] = None
        self._pushing = False
        #: set by :meth:`finish` while a push is on the wire: the pusher
        #: ends once that push is answered
        self._finishing = False
        self.stats = {
            "pushes": 0,
            **{f"pushes_{kind}": 0 for kind in kinds},
            "pushes_lost": 0,
            "bytes_pushed": 0,
        }

    def start(self) -> Process:
        self._pushing = self._finishing = False
        self.process = self.sim.spawn(
            self._run(), name=f"{self.names.process}@{self.site}"
        )
        return self.process

    def stop(self) -> None:
        if self.running():
            self.process.interrupt(self.names.shutdown)

    def finish(self) -> Optional[Process]:
        """Stop pushing, letting a push on the wire land first (where
        :meth:`stop` drops it): the pusher's process, which ends then."""
        if self._pushing:
            self._finishing = True
        else:
            self.stop()
        return self.process

    def running(self) -> bool:
        return self.process is not None and self.process.is_alive

    def push_once(self):
        """Generator: build, push, and (on success) acknowledge once."""
        payload = self.build()
        size = self.wire_size(payload)
        try:
            yield from self.client.invoke(
                self.target_host,
                self.operation,
                payload,
                size=self.client.message_size + size,
                timeout=max(self.period * 0.5, 1.0),
            )
        except Interrupt:
            raise
        except Exception:
            # lost push: soft state, the next period's payload carries
            # everything this one did
            self.stats["pushes_lost"] += 1
            self._count("lost")
            return False
        if self.on_ack is not None:
            self.on_ack(payload)
        self.stats["pushes"] += 1
        self.stats["bytes_pushed"] += size
        if self.kind_of is None:
            self._count("pushed", size)
        else:
            kind = self.kind_of(payload)
            self.stats[f"pushes_{kind}"] += 1
            self._count(kind, size)
        return True

    def _run(self):
        try:
            if self.phase > 0:
                yield self.sim.timeout(self.phase)
            while True:
                self._pushing = True
                yield from self.push_once()
                self._pushing = False
                if self._finishing:
                    return
                yield self.sim.timeout(self.period)
        except Interrupt:
            return

    def _count(self, kind: str, size: int = 0) -> None:
        self.metrics.counter(
            self.names.pushes, site=self.site, **{self.names.label: kind}
        ).inc()
        if size:
            self.metrics.counter(self.names.bytes, site=self.site).inc(size)


class PushPlane:
    """The pusher-owning half of a plane runtime: ``pushers`` by site,
    spawned by :meth:`start` (never by the constructor, so fault-free
    event schedules stay untouched until an experiment opts in)."""

    def __init__(self) -> None:
        self.pushers: dict[str, SoftStatePusher] = {}
        self.started = False

    @staticmethod
    def stagger(index: int, sources: int, period: float) -> float:
        """The first-push delay of a plane's ``index``-th of ``sources``
        pushers: one period split evenly between them, so they do not all
        push in the same instant."""
        return index * period / sources

    def start(self) -> None:
        """Spawn the standing pushers (idempotent)."""
        if self.started:
            return
        self.started = True
        for pusher in self.pushers.values():
            pusher.start()

    def stop(self) -> None:
        for pusher in self.pushers.values():
            pusher.stop()
        self.started = False

    def finish(self) -> list[Process]:
        """Stop every pusher, each letting a push on the wire land first:
        their processes, which end then."""
        self.started = False
        return [p.finish() for p in self.pushers.values() if p.running()]

    def push_stats(self) -> dict[str, int]:
        """Every pusher stat summed over the plane."""
        totals: dict[str, int] = {}
        for pusher in self.pushers.values():
            for key, value in pusher.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def push_fingerprint(self) -> str:
        """Landed/lost push counts per site, canonical text."""
        return ",".join(
            f"{site}:{self.pushers[site].stats['pushes']}"
            f"/{self.pushers[site].stats['pushes_lost']}"
            for site in sorted(self.pushers)
        )
