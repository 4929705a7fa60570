"""The Replica Catalog Service: a central catalog accessed over the WAN.

§4.2: "The current Globus Replica Catalog implementation uses the LDAP
protocol to interface with the database backend.  We do not currently
distribute or replicate the replica catalog but instead, for simplicity,
use a central replica catalog and a single LDAP server."

:class:`ReplicaCatalogService` hosts the catalog (the LDAP server site);
:class:`CatalogProxy` is what every site's GDMP uses — identical API, each
call paying one authenticated round trip to the catalog host.

Two additions take the WAN out of the per-file cost ("Grid Data Management
in Action" found exactly this catalog traffic to be the first production
bottleneck):

* **batched envelopes** — ``*_bulk`` operations carry N registrations or
  lookups in one request message (sized as one header plus a per-item
  increment), so a transfer set costs one round trip per *set*, not per
  file;
* **a client-side location cache** — each site's proxy remembers
  ``info``/``locations`` answers, invalidated by that site's own writes
  and by catalog-replication applies (see
  :mod:`repro.gdmp.catalog_replication`).  Reads of files another site
  changed meanwhile may be one staleness-window old — the same window the
  replicated catalog already admits — and the §4.3 alternate-replica
  failover absorbs a stale source going away.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.catalog.gdmp_catalog import GdmpCatalog
from repro.catalog.operations import OPERATIONS, CatalogOperation
from repro.catalog.replica_catalog import CatalogError
from repro.gdmp.request_manager import (
    GdmpError,
    RequestClient,
    RequestProxy,
    RequestServer,
)
from repro.services.bus import RemoteCallError, ServiceRequest
from repro.services.replay import ReplayWindow
from repro.simulation.kernel import Event, Process
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = [
    "ReplicaCatalogService",
    "CatalogProxy",
    "BULK_ITEM_SIZE",
]

#: Wire-size increment per batched item: one envelope carrying N
#: registrations costs a header plus N compact records, far below N full
#: request messages.
BULK_ITEM_SIZE = 96


class ReplicaCatalogService:
    """Hosts the central :class:`GdmpCatalog` behind the request manager."""

    def __init__(self, server: RequestServer, catalog: Optional[GdmpCatalog] = None,
                 metrics: MetricsRegistry = NO_METRICS):
        self.catalog = catalog or GdmpCatalog()
        self.server = server
        #: called with (operation, payload) after each successful write —
        #: the hook :mod:`repro.gdmp.catalog_replication` propagates from.
        self.write_listeners: list = []
        #: a retried write whose *reply* was lost is answered from here,
        #: not re-applied: no duplicate LFNs from a retried ``publish``,
        #: no double notifications
        self.replay = ReplayWindow(server.sim, metrics, "catalog.txn_replays")
        for row in OPERATIONS.values():
            server.register(
                f"catalog.{row.name}",
                partial(self._handle, row),
                replay=None if row.effect is None else self.replay,
            )

    def _handle(self, row: CatalogOperation, request: ServiceRequest):
        """Every ``catalog.*`` request: catalog operations are in-memory
        and immediate, so the handler is a plain function."""
        payload = request.payload
        try:
            answer = row.apply(self.catalog, payload)
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        if row.effect is None:
            return answer
        if not row.mints:
            answer = True
        propagated = row.propagated(payload, answer)
        for listener in self.write_listeners:
            listener(row.name, propagated)
        return answer


class _NegativeEntry:
    """Cached proof of absence: the remote application error an ``info``
    lookup produced for an unknown LFN.  Served back without an RPC —
    raised to an ``info`` read, ``[]`` to a ``locations`` read — until a
    write to that LFN invalidates it."""

    __slots__ = ("error",)

    def __init__(self, error: RemoteCallError) -> None:
        self.error = error


class CatalogProxy(RequestProxy):
    """Site-side view of the central catalog.  Every method returns an
    event to ``yield`` or ``run(until=...)``: a :class:`Process` (a
    network round trip to the catalog host) — or, on a location-cache
    hit, a plain :class:`Event` already triggered with the answer.

    Negative lookups are cached too: an ``info`` miss (unknown LFN) is
    remembered until a write to that LFN invalidates it, so repeated
    probes for absent files — which the RLI lookup path amplifies — cost
    no envelopes."""

    ITEM_SIZE = BULK_ITEM_SIZE

    def __init__(self, client: RequestClient, catalog_host: str):
        super().__init__(client, catalog_host)
        #: reads go here; catalog replication points it at a nearer copy
        self.read_host = catalog_host
        #: client-side info/locations cache toggle (experiments measuring
        #: raw deployment latency switch it off)
        self.cache_enabled = True
        self._cache: dict[tuple[str, str], object] = {}
        self.stats = {
            "cache_hits": 0,
            "cache_misses": 0,
            "negative_hits": 0,
            "envelopes": 0,
            "failure_invalidations": 0,
        }

    # -- plumbing -------------------------------------------------------------
    def _guarded(self, host: str, op: str, payload: dict,
                 idempotent: bool = False):
        """Generator: one ``catalog.<op>`` call, its envelope sized by the
        batch the operation table says it carries; counts the envelope and
        drops the whole cache when the catalog host looks unwell."""
        self.stats["envelopes"] += 1
        try:
            return (yield from self._invoke(
                host, f"catalog.{op}", payload,
                OPERATIONS[op].n_items(payload), idempotent=idempotent,
            ))
        except RemoteCallError:
            # The server processed the request and answered with an
            # application fault: the host is healthy and cached
            # entries are still trustworthy.
            raise
        except Exception:
            # A failed catalog RPC means the catalog host (or the path
            # to it) is suspect: a cached answer must not outlive the
            # divergence window of a crashed or partitioned replica.
            if self._cache:
                self._cache.clear()
                self.stats["failure_invalidations"] += 1
            raise

    def _read(self, op: str, payload: dict):
        return self._guarded(self.read_host, op, payload)

    def _apply_write(self, op: str, payload: dict):
        """Generator: one write, then this site's cached answers dropped
        for every LFN the operation table says it touched (names the
        catalog generated come back in the answer)."""
        answer = yield from self._guarded(
            self.server_host, op, payload, idempotent=True
        )
        for lfn in OPERATIONS[op].lfns(payload, answer):
            self.invalidate(lfn)
        return answer

    def _spawn_write(self, name: str, op: str, **payload) -> Process:
        return self.client.sim.spawn(self._apply_write(op, payload), name=name)

    def _cache_get(self, key: tuple[str, str]):
        if not self.cache_enabled:
            return None
        value = self._cache.get(key)
        if value is None:
            self.stats["cache_misses"] += 1
        else:
            self.stats["cache_hits"] += 1
        return value

    def _cache_put(self, key: tuple[str, str], value) -> None:
        if self.cache_enabled:
            self._cache[key] = value

    def _cached_read(self, kind: str, lfn: str, name: str, miss) -> Event:
        """One per-name read: the cached ``kind`` answer as a triggered
        event (an absence re-raised, and counted) — or, when the
        question has to travel, a process running ``miss()``: a
        generator that fetches the answer, caches it and returns it."""
        cached = self._cache_get((kind, lfn))
        if cached is None:
            return self.client.sim.spawn(miss(), name=f"{name} {lfn}")
        if isinstance(cached, _NegativeEntry):
            self.stats["negative_hits"] += 1
            if kind == "info":
                return self.client.sim.event().fail(cached.error)
            cached = ()
        if kind == "locations":
            # the cache keeps one tuple of dicts; every caller gets copies
            cached = [dict(loc) for loc in cached]
        return self.client.sim.event().succeed(cached)

    def invalidate(self, lfn: Optional[str] = None) -> None:
        """Drop cached answers for one LFN (or all of them).

        Called after this site's own writes, and by the catalog-replication
        layer when a propagated write is applied locally.
        """
        if lfn is None:
            self._cache.clear()
        else:
            self._cache.pop(("info", lfn), None)
            self._cache.pop(("locations", lfn), None)

    # -- writes (always to the primary; invalidate on completion) -----------------
    def _publish(self, site: str, files: list[dict]):
        """Generator: one ``publish_bulk`` envelope; answers the LFNs."""
        return (yield from self._apply_write(
            "publish_bulk", {"site": site, "files": files}
        ))

    def publish(
        self,
        site: str,
        size: float,
        modified: float,
        crc: int,
        lfn: Optional[str] = None,
        **attributes,
    ) -> Process:
        """Register a new logical file and its first replica: a
        :meth:`publish_bulk` of one.  Returns the LFN."""
        files = [{"size": size, "modified": modified, "crc": crc, "lfn": lfn,
                  "attributes": attributes}]

        def run():
            (name,) = yield from self._publish(site, files)
            return name

        return self.client.sim.spawn(run(), name=f"catalog-publish {lfn}")

    def publish_bulk(self, site: str, files: list[dict]) -> Process:
        """Register a whole file set in one envelope carrying N
        registrations.  Returns the list of LFNs."""
        return self.client.sim.spawn(
            self._publish(site, files),
            name=f"catalog-publish-bulk x{len(files)}",
        )

    def add_replicas(self, lfns: list[str], site: str) -> Process:
        """Record a batch of new replicas at one site in one envelope —
        the flush of a transfer set's deferred registrations."""
        return self._spawn_write(
            f"catalog-add-replicas x{len(lfns)}", "add_replica_bulk",
            lfns=list(lfns), site=site,
        )

    def remove_replica(self, lfn: str, site: str) -> Process:
        """Remove a replica record (retiring the LFN when it was the last)."""
        return self._spawn_write(
            f"catalog-remove-replica {lfn}", "remove_replica", lfn=lfn, site=site
        )

    # -- reads (served by read_host; info/locations cached) -----------------------
    def locations(self, lfn: str) -> Event:
        """All physical locations of a logical file (``[]`` for an
        unknown one)."""
        return self._lookup("locations", lfn)

    def info(self, lfn: str) -> Event:
        """Metadata and locations of a logical file."""
        return self._lookup("info", lfn)

    def _lookup(self, kind: str, lfn: str) -> Event:
        """One per-name read: the cached ``kind`` answer, else an
        ``info_bulk`` of one whose answer is cached as that kind."""

        def miss():
            if kind == "locations":
                found = yield from self._fetch_infos([lfn], missing_ok=True)
                # the answer's own tuple is cached, copies go to the caller
                kept = found[lfn].locations if found else ()
                self._cache_put(("locations", lfn), kept)
                return [dict(loc) for loc in kept]
            try:
                found = yield from self._fetch_infos([lfn])
            except RemoteCallError as exc:
                # An application-level "unknown logical file" is a stable
                # answer until someone publishes it: cache the absence.
                self._cache_put(("info", lfn), _NegativeEntry(exc))
                raise
            self._cache_put(("info", lfn), found[lfn])
            return found[lfn]

        return self._cached_read(kind, lfn, f"catalog-{kind}", miss)

    def _fetch_infos(self, lfns: list[str], missing_ok: bool = False):
        """Generator: ``{lfn: info}`` for names the cache could not
        answer, in one envelope; an unknown name raises, or with
        ``missing_ok`` is left out."""
        fetched = yield from self._read(
            "info_bulk", {"lfns": lfns, "missing_ok": missing_ok}
        )
        return {info.lfn: info for info in fetched}

    def info_bulk(self, lfns: list[str]) -> Process:
        """Metadata and locations for a whole file set: cached entries are
        served locally, the misses travel together, and the answers warm
        the cache for the per-file pipeline that follows."""
        lfns = list(lfns)

        def run():
            known = {}
            missing = []
            for lfn in lfns:
                cached = self._cache_get(("info", lfn))
                if cached is not None and not isinstance(cached, _NegativeEntry):
                    known[lfn] = cached
                else:
                    # negative entries re-probe: the bulk contract raises
                    # for unknown LFNs, so let the catalog say so
                    missing.append(lfn)
            if missing:
                fetched = yield from self._fetch_infos(missing)
                for lfn, info in fetched.items():
                    self._cache_put(("info", lfn), info)
                known.update(fetched)
            return [known[lfn] for lfn in lfns]

        return self.client.sim.spawn(run(), name=f"catalog-info-bulk x{len(lfns)}")

    def search(self, filter_text: str) -> Process:
        """Logical files matching an LDAP filter over their metadata."""
        return self.client.sim.spawn(
            self._read("search", {"filter": filter_text}), name="catalog-search"
        )
