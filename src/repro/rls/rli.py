"""The Replica Location Index as a bus service.

:class:`RliService` hosts a :class:`~repro.rls.digest.ReplicaLocationIndex`
behind ``rli.*`` operations on an existing GDMP request server (the same
endpoint pattern the per-site ``catalog.*`` LRCs and the ``task.*`` queue
use):

* ``rli.push_digest`` — a site pushes a full or delta digest; the reply
  acknowledges the generation so the source can clear its pending sets.
* ``rli.lookup_bulk`` — "which sites *might* hold each of these LFNs?"
  (a single name is a batch of one).  Answers may be stale or contain
  bloom false positives; callers must verify at the candidate LRCs (the
  router does).

Because every ``rli.*`` operation shares the GDMP service endpoint,
fault campaigns can black-hole the whole index (prefix ``rli.``) or
just the digest feed (prefix ``rli.push_digest``, leaving lookups
serving increasingly stale answers) without touching co-hosted
``catalog.*`` or ``task.*`` traffic.
"""

from __future__ import annotations

from typing import Optional

from ..gdmp.request_manager import RequestServer
from ..services.bus import ServiceRequest
from ..telemetry.metrics import NO_METRICS, MetricsRegistry
from .digest import ReplicaLocationIndex

__all__ = ["RliService"]


class RliService:
    """Hosts the Replica Location Index behind ``rli.*`` operations."""

    def __init__(
        self,
        server: RequestServer,
        index: Optional[ReplicaLocationIndex] = None,
        metrics: MetricsRegistry = NO_METRICS,
    ) -> None:
        self.server = server
        self.sim = server.sim
        self.index = index if index is not None else ReplicaLocationIndex()
        self.metrics = metrics
        for op in ("push_digest", "lookup_bulk"):
            server.register(f"rli.{op}", getattr(self, f"_op_{op}"))

    # Handlers are plain functions: the index is in-memory and immediate.

    def _op_push_digest(self, request: ServiceRequest):
        payload = request.payload
        applied = self.index.apply(payload, self.sim.now)
        self.metrics.counter(
            "rls.rli.digests", kind=payload["kind"],
            outcome="applied" if applied else "stale",
        ).inc()
        return {
            "applied": applied,
            "generation": self.index.states[payload["site"]].generation,
        }

    def _op_lookup_bulk(self, request: ServiceRequest):
        lfns = request.payload["lfns"]
        return {lfn: self.index.candidate_sites(lfn) for lfn in lfns}
