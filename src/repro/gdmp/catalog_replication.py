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
from repro.catalog.operations import OPERATIONS, READ_OPERATIONS
from repro.gdmp.replica_service import CatalogProxy, ReplicaCatalogService
from repro.gdmp.request_manager import GdmpError
from repro.services.bus import ServiceRequest

__all__ = ["CatalogReplica", "enable_catalog_replication"]


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
            site.request_server.register(
                f"catalog.{op}",
                lambda request, read=OPERATIONS[op].apply: read(
                    self.catalog, request.payload
                ),
            )
        # the primary pushes writes here
        site.request_server.register("catalog.apply", self._op_apply)

    def _op_apply(self, request: ServiceRequest):
        self.apply(request.payload["operation"], request.payload["data"])
        return True

    def apply(self, operation: str, data: dict) -> None:
        """Apply one propagated write (possibly a whole batch) locally.
        The primary filled in generated LFNs, so this replays exactly."""
        row = OPERATIONS.get(operation)
        if row is None or row.effect is None:
            raise GdmpError(f"unknown catalog write {operation!r}")
        row.apply(self.catalog, data)
        self.applied_writes += 1
        lfns = row.lfns(data)
        for listener in self.apply_listeners:
            listener(lfns)


def enable_catalog_replication(grid, replica_sites: list[str]) -> dict:
    """Upgrade ``grid``'s central catalog to primary + replicas.

    Replica copies are seeded from the primary's current contents, then
    kept up to date by write propagation.  Every site's client gets a
    fresh :class:`CatalogProxy` whose ``read_host`` is its nearest replica
    (its own site when it hosts one, the primary otherwise) — all routing
    lives in the proxy, so the location cache behaves identically in both
    deployments.  When a replica applies a propagated write, the
    co-located proxy's cache is invalidated for the affected LFNs.

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
        # seed from the primary's current state: the first location
        # adopted creates the entry, the others only add their record
        for info in map(service.catalog.info, service.catalog.list_lfns()):
            for location in info.locations:
                replica.catalog.adopt(
                    info.lfn, location["location"], info.size, info.modified,
                    info.crc, info.attributes,
                )
        replicas[name] = replica

    primary_site = grid.site(primary_host)

    def propagate(operation: str, data: dict) -> None:
        for name in replicas:
            primary_site.request_client.call(
                name, "catalog.apply", {"operation": operation, "data": data}
            )

    service.write_listeners.append(propagate)

    for site in grid.sites.values():
        proxy = CatalogProxy(site.request_client, primary_host)
        site.client.catalog = proxy
        if site.name in replicas:
            proxy.read_host = site.name

            def invalidate(lfns, proxy=proxy):
                for lfn in lfns:
                    proxy.invalidate(lfn)

            replicas[site.name].apply_listeners.append(invalidate)
    return replicas
