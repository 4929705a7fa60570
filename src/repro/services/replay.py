"""Exactly-once writes: the server half of the idempotent-call protocol.

A client whose *reply* was lost re-issues the same write; applying it
again would double-claim a task, mint a second LFN, or notify write
listeners twice.  The bus closes that gap once, for every service:

* the client half (:meth:`repro.services.bus.ServiceClient.call` with
  ``idempotent=True``) stamps one ``txn`` into the envelope ``meta`` per
  logical write — ``(client id, serial, low)`` — shared by every
  transport-level retry of that write.  ``low`` is the client's lowest
  serial still in flight: everything below it has settled (its call
  returned or raised) and will never be retried;
* the server half (:class:`ReplayWindow`, one per service, applied by
  ``RequestServer.register(op, handler, replay=window)``) stores each
  applied write's result under its serial and answers a repeated serial
  from the store instead of calling the handler again — and a repeat
  that arrives while the first delivery is still being handled (a slow
  write out-waited its caller's timeout) waits for that delivery's
  answer rather than starting a second one.

The window needs no size or age knob: each request's ``low`` tells it
which of that client's results can never be asked for again, so it holds
at most one entry per write the client had in flight at once.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.services.bus import ServiceError, run_handler
from repro.simulation.kernel import Event, Simulator
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["ReplayWindow"]


class _ClientResults:
    """One client's retained results and the serial they start at."""

    __slots__ = ("low", "results", "applying")

    def __init__(self) -> None:
        self.low = 0
        self.results: dict[int, Any] = {}
        #: serial -> None while its first delivery is being handled, or
        #: the event its repeats are waiting on
        self.applying: dict[int, Optional[Event]] = {}


class ReplayWindow:
    """One service's table of applied-write results, bounded by each
    client's in-flight watermark.

    Several services share one request server, so each owns its window:
    a ``task.claim`` and a ``catalog.publish_bulk`` from the same client draw
    serials from one counter but must never answer for each other.
    ``counter`` names the registry counter bumped per replayed write
    (``None`` keeps the window silent).
    """

    def __init__(self, sim: Simulator, metrics: MetricsRegistry = NO_METRICS,
                 counter: Optional[str] = None):
        self.sim = sim
        self.metrics = metrics
        self.counter = counter
        self._clients: dict[str, _ClientResults] = {}

    def __len__(self) -> int:
        """Results currently retained, over all clients."""
        return sum(len(state.results) for state in self._clients.values())

    def apply(
        self,
        txn: Optional[tuple[str, int, int]],
        handler: Callable[[Any], Any],
        request: Any,
    ):
        """Generator: run ``handler(request)`` (a plain or a generator
        function, see :func:`~repro.services.bus.run_handler`) unless
        ``txn`` was already applied, in which case return the stored
        result, or is being applied right now, in which case wait for that
        result.  A request without a ``txn`` (a read, or a caller that
        opted out) always runs.  A handler that raises stores nothing, so the retry of a
        failed write re-executes it."""
        if txn is None:
            return (yield from run_handler(handler, request))
        client, serial, low = txn
        state = self._clients.get(client)
        if state is None:
            state = self._clients[client] = _ClientResults()
        if low > state.low:
            state.low = low
            for settled in [s for s in state.results if s < low]:
                del state.results[settled]
        if serial in state.results or serial in state.applying:
            if self.counter is not None:
                self.metrics.counter(self.counter).inc()
            if serial in state.results:
                return state.results[serial]
            joined = state.applying[serial]
            if joined is None:
                joined = state.applying[serial] = self.sim.event()
            return (yield joined)
        if serial < state.low:
            # A duplicate that out-waited its own call (a delayed first
            # attempt overtaken by its retry): the client settled this
            # write long ago and discards whatever we answer — but
            # applying it a second time would break exactly-once.
            raise ServiceError(f"write {serial} of {client} already settled")
        state.applying[serial] = None
        try:
            result = yield from run_handler(handler, request)
        except Exception as exc:
            joined = state.applying.pop(serial)
            if joined is not None:
                joined.fail(exc)
            raise
        joined = state.applying.pop(serial)
        state.results[serial] = result
        if joined is not None:
            joined.succeed(result)
        return result
