"""AMS-style remote object access — the baseline replication replaces.

§2.1: "the (current production versions of the) object persistency layers
in each site do not have the native ability to efficiently access objects
on remote sites [YoMo00], as they were built under the assumption that a
low latency exists when accessing storage."  §5.2: "The use of wide-area
object granularity access and replication protocols is considered
unattractive, as large wide-area overheads have been observed in existing
implementations of such protocols."

This module implements that unattractive alternative faithfully so the
benchmarks can measure it: an Objectivity/AMS-like page server
(:class:`AmsPageServer`) answers page requests over the grid's message
network, and :class:`RemoteObjectReader` is a persistency layer whose
every page miss costs a synchronous WAN round trip — fine on a LAN,
disastrous at 125 ms RTT.
"""

from __future__ import annotations

from repro.netsim.channels import MessageNetwork
from repro.netsim.topology import Host
from repro.objectdb.federation import Federation
from repro.objectdb.objects import PersistentObject
from repro.objectdb.oid import OID
from repro.objectdb.persistency import PAGE_SIZE, ObjectReader
from repro.services.bus import ServiceClient, ServiceEndpoint, ServiceRequest
from repro.simulation.kernel import Process, Simulator

__all__ = ["AmsPageServer", "RemoteObjectReader"]

#: Request message: (db, container, page) triple plus framing.
PAGE_REQUEST_SIZE = 64

#: Server-side time to look up and serve one page (seconds).
PAGE_SERVICE_TIME = 0.001


class AmsPageServer(ServiceEndpoint):
    """A site's page server: serves federation pages to remote readers.

    One ``page`` operation on the service bus, behind no middleware: the
    paper-era AMS is unauthenticated.  Every reply is a full page."""

    SERVICE = "ams"

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        host: Host,
        federation: Federation,
    ):
        super().__init__(
            sim, msgnet, host, self.SERVICE, message_size=PAGE_SIZE
        )
        self.federation = federation
        self.stats["pages_served"] = 0
        self.register("page", self._op_page)

    def _op_page(self, request: ServiceRequest):
        yield self.sim.timeout(PAGE_SERVICE_TIME)
        self.stats["pages_served"] += 1


class RemoteObjectReader:
    """A persistency layer reading objects from a *remote* federation.

    Mirrors :class:`~repro.objectdb.persistency.ObjectReader` (including
    the page cache), but every page miss is a synchronous request/response
    to the AMS server across the network.  All read methods are simulation
    coroutines returning a :class:`Process`.
    """

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        local_host: Host,
        server: AmsPageServer,
    ):
        self.sim = sim
        self.server = server
        self.stats = {"page_fetches": 0, "bytes_fetched": 0, "objects_read": 0}
        self._cached_pages: set[tuple[int, int, int]] = set()
        self._local_layout = ObjectReader(server.federation)
        self.bus = ServiceClient(
            sim, msgnet, local_host, AmsPageServer.SERVICE
        )

    # -- page fetch ----------------------------------------------------------
    def _fetch_page(self, page: tuple[int, int, int]):
        yield from self.bus.invoke(
            self.server.host.name, "page", page, size=PAGE_REQUEST_SIZE
        )
        self._cached_pages.add(page)
        self.stats["page_fetches"] += 1
        self.stats["bytes_fetched"] += PAGE_SIZE

    # -- reading -----------------------------------------------------------------
    def _read(self, oid: OID):
        """Generator: the pages of one object, fetched as needed, in the
        reading process; returns the object."""
        obj = self.server.federation.resolve(oid)
        for page in self._local_layout.pages_of(obj):
            if page not in self._cached_pages:
                yield from self._fetch_page(page)
        self.stats["objects_read"] += 1
        return obj

    def _read_all(self, oids):
        objects = []
        for oid in oids:
            objects.append((yield from self._read(oid)))
        return objects

    def read(self, oid: OID) -> Process:
        """Fetch (the pages of) one object; returns the object."""
        return self.sim.spawn(self._read(oid), name=f"ams-read {oid}")

    def read_many(self, oids) -> Process:
        """Fetch a sequence of objects (pages fetched as needed)."""
        return self.sim.spawn(self._read_all(oids), name="ams-read-many")

    def navigate(self, obj: PersistentObject, role: str) -> Process:
        """Follow an association, fetching target pages remotely."""
        return self.sim.spawn(
            self._read_all(obj.targets(role)), name="ams-navigate"
        )

    @property
    def page_fetches(self) -> int:
        return self.stats["page_fetches"]

    def drop_cache(self) -> None:
        """Forget all cached pages."""
        self._cached_pages.clear()
