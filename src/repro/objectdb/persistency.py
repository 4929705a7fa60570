"""The object persistency read layer with page-I/O accounting.

§2.1: "the object persistency solutions used only work efficiently if there
are many objects per file" — because reads happen in pages.  The reader
charges one page read per distinct (database, container, page) touched,
which makes the §5.1 sparse-selection penalty measurable: selecting 1% of
the objects in a file still touches most of its pages.
"""

from __future__ import annotations

from typing import Iterable

from repro.objectdb.federation import Federation
from repro.objectdb.objects import PersistentObject
from repro.objectdb.oid import OID

__all__ = ["PAGE_SIZE", "ObjectReader"]

PAGE_SIZE = 8 * 1024


class ObjectReader:
    """Reads objects out of a federation, counting page I/O."""

    def __init__(self, federation: Federation):
        self.federation = federation
        self.stats = {"objects_read": 0, "bytes_read": 0.0, "page_reads": 0}
        self._cached_pages: set[tuple[int, int, int]] = set()

    def pages_of(self, obj: PersistentObject) -> list[tuple[int, int, int]]:
        """The (database, container, page index) pages an object's bytes
        occupy.  Pages pack objects in slot order within each container,
        so the first page follows from the cumulative size of the objects
        before it (the container's ``offsets``); a large object spans
        several pages."""
        oid = obj.oid
        offset = self.federation.container_of(oid).offsets[oid.slot]
        page0 = int(offset // PAGE_SIZE)
        spanned = max(1, -(-int(obj.size) // PAGE_SIZE))  # ceil
        return [
            (oid.database, oid.container, page0 + extra)
            for extra in range(spanned)
        ]

    # -- reading ------------------------------------------------------------
    def read(self, oid: OID) -> PersistentObject:
        """Read one object, charging page I/O for uncached pages."""
        obj = self.federation.resolve(oid)
        self._charge(obj)
        return obj

    def read_many(self, oids: Iterable[OID]) -> list[PersistentObject]:
        """Read a sequence of objects in order."""
        return [self.read(oid) for oid in oids]

    def navigate(self, obj: PersistentObject, role: str) -> list[PersistentObject]:
        """Follow an association, charging I/O for the targets."""
        targets = self.federation.navigate(obj, role)
        for target in targets:
            self._charge(target)
        return targets

    # -- accounting -----------------------------------------------------------
    def _charge(self, obj: PersistentObject) -> None:
        self.stats["objects_read"] += 1
        self.stats["bytes_read"] += obj.size
        for page in self.pages_of(obj):
            if page not in self._cached_pages:
                self._cached_pages.add(page)
                self.stats["page_reads"] += 1

    @property
    def page_reads(self) -> int:
        return self.stats["page_reads"]

    @property
    def bytes_read(self) -> float:
        return self.stats["bytes_read"]

    def drop_cache(self) -> None:
        """Forget all cached pages (cold-cache measurements)."""
        self._cached_pages.clear()
