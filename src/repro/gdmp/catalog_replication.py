"""Distribution and replication of the replica catalog (§4.2 future work).

"We do not currently distribute or replicate the replica catalog but
instead, for simplicity, use a central replica catalog and a single LDAP
server.  In the future, we will explore both distribution and replication
of the replica catalog."

We implement that future: a *primary* catalog (the existing central
service) plus read-only replicas at chosen sites.  Writes go to the
primary, which asynchronously propagates each applied write to every
replica (single-writer eventual consistency, in-order per replica because
the simulated message channel is FIFO per pair).  Reads are served by the
local replica when one exists — turning the 1-RTT WAN lookup into a local
operation, at the cost of a staleness window of roughly one propagation
delay.

Batched writes propagate as batches: one ``catalog.apply`` envelope per
replica carries the whole transfer set's registrations.  Applying a write
also invalidates the co-located site proxy's location cache for the
affected LFNs, so a site that hosts a replica never serves a cached answer
older than its own replica copy.
"""

from __future__ import annotations

from repro.catalog.gdmp_catalog import GdmpCatalog
from repro.gdmp.replica_service import (
    READ_OPERATIONS,
    CatalogProxy,
    ReplicaCatalogService,
)
from repro.gdmp.request_manager import AuthenticatedRequest, GdmpError

__all__ = ["CatalogReplica", "ReplicatedCatalogProxy", "enable_catalog_replication"]


def _affected_lfns(operation: str, data: dict) -> list[str]:
    """The LFNs a propagated write touches (for cache invalidation)."""
    if operation in ("publish_bulk", "add_replica_bulk", "remove_replica_bulk"):
        return list(data["lfns"])
    return [data["lfn"]]


class CatalogReplica:
    """A read-only catalog copy at one site, fed by the primary's writes."""

    def __init__(self, site) -> None:
        self.site = site
        self.catalog = GdmpCatalog()
        self.applied_writes = 0
        #: called with the list of affected LFNs after each applied write —
        #: wired to the co-located proxy's cache invalidation
        self.apply_listeners: list = []
        # read operations answer from the local copy
        for op in READ_OPERATIONS:
            site.request_server.register(f"catalog.{op}", self._make_read(op))
        # the primary pushes writes here
        site.request_server.register("catalog.apply", self._op_apply)

    def _make_read(self, op: str):
        catalog = self.catalog

        def handler(request: AuthenticatedRequest, op=op):
            payload = request.payload
            if op == "locations":
                return catalog.locations(payload["lfn"])
            if op == "locations_bulk":
                return catalog.locations_bulk(list(payload["lfns"]))
            if op == "info":
                return catalog.info(payload["lfn"])
            if op == "info_bulk":
                return catalog.info_bulk(list(payload["lfns"]))
            if op == "search":
                return catalog.search(payload["filter"])
            if op == "site_files":
                return catalog.site_files(payload["site"])
            if op == "lfn_exists":
                return catalog.lfn_exists(payload["lfn"])
            if op == "list_lfns":
                return catalog.list_lfns()
            raise GdmpError(f"unknown read operation {op!r}")  # pragma: no cover
            yield  # pragma: no cover - generator marker

        return handler

    def _op_apply(self, request: AuthenticatedRequest):
        operation = request.payload["operation"]
        data = request.payload["data"]
        self.apply(operation, data)
        return True
        yield  # pragma: no cover

    def apply(self, operation: str, data: dict) -> None:
        """Apply one propagated write (possibly a whole batch) locally."""
        if operation == "publish":
            self.catalog.publish(
                data["site"],
                size=data["size"],
                modified=data["modified"],
                crc=data["crc"],
                lfn=data["lfn"],
                **data.get("attributes", {}),
            )
        elif operation == "publish_bulk":
            # the primary filled in generated LFNs, so this replays exactly
            self.catalog.publish_bulk(data["site"], data["files"])
        elif operation == "add_replica":
            self.catalog.add_replica(data["lfn"], data["site"])
        elif operation == "add_replica_bulk":
            self.catalog.add_replicas(list(data["lfns"]), data["site"])
        elif operation == "remove_replica":
            self.catalog.remove_replica(data["lfn"], data["site"])
        elif operation == "remove_replica_bulk":
            self.catalog.remove_replicas(list(data["lfns"]), data["site"])
        else:
            raise GdmpError(f"unknown catalog write {operation!r}")
        self.applied_writes += 1
        lfns = _affected_lfns(operation, data)
        for listener in self.apply_listeners:
            listener(lfns)


class ReplicatedCatalogProxy(CatalogProxy):
    """Writes to the primary, reads from the nearest replica.

    All routing lives in :class:`CatalogProxy` (every read goes through
    ``read_host``); this subclass only points ``read_host`` at the replica,
    so the location cache behaves identically in both deployments.
    """

    def __init__(self, client, primary_host: str, read_host: str,
                 cache: bool = True):
        super().__init__(client, primary_host, cache=cache)
        self.read_host = read_host


def enable_catalog_replication(grid, replica_sites: list[str]) -> dict:
    """Upgrade ``grid``'s central catalog to primary + replicas.

    Replica copies are seeded from the primary's current contents, then
    kept up to date by write propagation.  Every site's client is switched
    to a :class:`ReplicatedCatalogProxy` reading from its nearest replica
    (its own site when it hosts one, the primary otherwise).  When a
    replica applies a propagated write, the co-located proxy's cache is
    invalidated for the affected LFNs.

    Returns ``{site: CatalogReplica}``.
    """
    primary_host = grid.catalog_host
    service: ReplicaCatalogService = grid.catalog_service
    replicas: dict[str, CatalogReplica] = {}
    for name in replica_sites:
        if name == primary_host:
            raise ValueError("the primary already holds the catalog")
        site = grid.site(name)
        replica = CatalogReplica(site)
        # seed from the primary's current state
        for lfn in service.catalog.list_lfns():
            info = service.catalog.info(lfn)
            locations = [loc["location"] for loc in info.locations]
            replica.catalog.publish(
                locations[0],
                size=info.size,
                modified=info.modified,
                crc=info.crc,
                lfn=lfn,
                **info.attributes,
            )
            for extra in locations[1:]:
                replica.catalog.add_replica(lfn, extra)
        replicas[name] = replica

    primary_site = grid.site(primary_host)

    def propagate(operation: str, data: dict) -> None:
        for name in replicas:
            primary_site.request_client.call(
                name, "catalog.apply", {"operation": operation, "data": data}
            )

    service.write_listeners.append(propagate)

    for site in grid.sites.values():
        read_host = site.name if site.name in replicas else primary_host
        proxy = ReplicatedCatalogProxy(
            site.request_client, primary_host, read_host
        )
        site.client.catalog = proxy
        if site.name in replicas:
            def invalidate(lfns, proxy=proxy):
                for lfn in lfns:
                    proxy.invalidate(lfn)

            replicas[site.name].apply_listeners.append(invalidate)
    return replicas
