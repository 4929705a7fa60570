"""GDMP's high-level replica catalog service.

§4.2: "The GDMP Replica Catalog service is a higher-level object-oriented
wrapper to the underlying Globus Replica Catalog library.  This wrapper
hides some Globus API details and also introduces additional functionality
such as search filters, sanity checks on input parameters, and automatic
creation of required entries if they do not already exist.  The high-level
API is also easier to use and requires fewer method calls to add, delete,
or search files in the catalog."

It also owns the global namespace guarantee: "The Replica Catalog service
also ensures a global name space by making sure that all logical file names
are unique in the catalog.  GDMP supports both the automatic generation and
user selection of new logical file names."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.catalog.replica_catalog import CatalogError, ReplicaCatalog

__all__ = ["LogicalFileInfo", "GdmpCatalog"]


@dataclass(frozen=True)
class LogicalFileInfo:
    """What a `publish` records and a query returns for one logical file."""

    lfn: str
    size: float
    modified: float
    crc: int
    attributes: dict
    locations: tuple[dict, ...]


class GdmpCatalog:
    """Few-call publish/search/locate interface over :class:`ReplicaCatalog`."""

    def __init__(
        self,
        catalog: Optional[ReplicaCatalog] = None,
        collection: str = "gdmp",
        lfn_stem: str = "file",
    ):
        self.catalog = catalog or ReplicaCatalog()
        self.collection = collection
        #: stem for auto-generated LFNs; sharded deployments give every
        #: Local Replica Catalog a site-unique stem so names generated
        #: independently at different sites can never collide.
        self.lfn_stem = lfn_stem
        #: the counter behind generated LFNs: every candidate drawn, taken
        #: or not, uses up one number
        self._auto_lfn = 1
        # automatic creation of required entries
        if not self.catalog.collection_exists(collection):
            self.catalog.create_collection(collection)

    # -- namespace ------------------------------------------------------------
    def _generated_lfns(self, run: int):
        """Automatic logical file name generation (collision-free): the
        candidates no catalog entry holds, in counter order, checked
        ``run`` at a time with one membership probe.  Read it only while
        the catalog is unchanged."""
        while True:
            first = self._auto_lfn
            candidates = [
                f"{self.lfn_stem}.{n:06d}" for n in range(first, first + run)
            ]
            taken = self.catalog.collection_members(self.collection, candidates)
            for candidate in candidates:
                self._auto_lfn += 1
                if candidate not in taken:
                    yield candidate

    def lfn_exists(self, lfn: str) -> bool:
        """Whether the logical file name is already taken (O(1), via the
        directory's equality index rather than a name-list copy)."""
        return self.catalog.collection_contains(self.collection, lfn)

    # -- publishing ---------------------------------------------------------------
    def register_site(self, site: str, url_prefix: Optional[str] = None) -> None:
        """Idempotently ensure a location object exists for ``site``."""
        if not self.catalog.location_exists(self.collection, site):
            self.catalog.create_location(
                self.collection,
                site,
                hostname=site,
                url_prefix=url_prefix or f"gsiftp://{site}/storage",
            )

    def publish(
        self,
        site: str,
        size: float,
        modified: float,
        crc: int,
        lfn: Optional[str] = None,
        **attributes,
    ) -> str:
        """Register a new logical file and its first replica in one call.

        User-selected LFNs are "verified to be unique before adding them to
        the replica catalog"; pass ``lfn=None`` for automatic generation.
        Returns the LFN.  A name is a batch of one: every check and every
        entry written is :meth:`publish_bulk`'s.
        """
        return self.publish_bulk(
            site,
            [{"size": size, "modified": modified, "crc": crc, "lfn": lfn,
              "attributes": attributes}],
        )[0]

    @staticmethod
    def _checked(item: dict) -> Optional[str]:
        """Sanity checks on one registration; returns its LFN, if any."""
        if item.get("size", 0) < 0:
            raise CatalogError("size must be non-negative")
        lfn = item.get("lfn")
        if lfn is not None and (not lfn or "/" in lfn or "," in lfn):
            raise CatalogError(f"invalid logical file name {lfn!r}")
        return lfn

    def _register(self, specs: list[tuple[str, dict]]) -> None:
        """Attribute entries, then name-list entries, for new logical
        files.  The entries' batch refuses a bad name (reserved
        characters, a spelling that normalizes onto a stored DN) before
        it writes, so a refused batch leaves no name without an entry."""
        self.catalog.bulk_create_logical_file_entries(
            self.collection,
            (
                (
                    lfn,
                    {
                        "size": f"{item.get('size', 0):.0f}",
                        "modified": f"{item.get('modified', 0):.6f}",
                        "crc": item.get("crc", 0),
                        **(item.get("attributes") or {}),
                    },
                )
                for lfn, item in specs
            ),
        )
        self.catalog.bulk_add_filenames_to_collection(
            self.collection, [lfn for lfn, _ in specs]
        )

    def publish_bulk(self, site: str, files: list[dict]) -> list[str]:
        """Register a whole file set and its first replicas in one batch.

        ``files`` is a list of dicts with keys ``size``, ``modified``,
        ``crc``, optional ``lfn`` (None = automatic generation) and
        optional ``attributes``.  The batch is validated up front (sizes,
        name syntax, uniqueness against the catalog *and* within the
        batch), then applied as one bulk directory operation per layer —
        the in-memory half of "one envelope carrying N registrations".
        Returns the LFNs in input order.
        """
        taken = self.catalog.collection_members(
            self.collection, (item.get("lfn") for item in files)
        )
        generated = self._generated_lfns(
            sum(item.get("lfn") is None for item in files)
        )
        specs: list[tuple[str, dict]] = []
        seen: set[str] = set()
        for item in files:
            lfn = self._checked(item)
            if lfn is None:
                lfn = next(generated)
                while lfn in seen:  # named earlier in this batch
                    lfn = next(generated)
            elif lfn in seen or lfn in taken:
                raise CatalogError(f"logical file name {lfn!r} already in use")
            seen.add(lfn)
            specs.append((lfn, item))
        # the location only once the entries are written: a refused
        # batch leaves nothing behind
        self._register(specs)
        self.register_site(site)
        lfns = [lfn for lfn, _ in specs]
        self.catalog.bulk_add_filenames_to_location(self.collection, site, lfns)
        return lfns

    def adopt(
        self,
        lfn: str,
        site: str,
        size: float,
        modified: float,
        crc: int,
        attributes: Optional[dict] = None,
    ) -> None:
        """Register a replica of a logical file this catalog may never
        have seen, carrying the metadata along.

        This is the write path of a sharded deployment: when a file born
        at site A is replicated to site B, B's Local Replica Catalog has
        no entry for the LFN, so a bare :meth:`add_replicas` would fail.
        ``adopt`` creates the logical-file entry on first contact and is
        idempotent throughout (re-adoption updates nothing).
        """
        self.adopt_bulk(
            [{"lfn": lfn, "size": size, "modified": modified, "crc": crc,
              "attributes": attributes}],
            site,
        )

    def adopt_bulk(self, files: list[dict], site: str) -> None:
        """Adopt a whole batch of foreign logical files at one site.

        ``files`` items carry ``lfn``, ``size``, ``modified``, ``crc``
        and optional ``attributes``; already-known LFNs only gain the
        location record (idempotent, like :meth:`adopt`).
        """
        known = self.catalog.collection_members(
            self.collection, (item.get("lfn") for item in files)
        )
        fresh: list[tuple[str, dict]] = []
        seen: set[str] = set()
        for item in files:
            lfn = self._checked(item)
            if lfn is None:  # only a publish may leave the name to us
                raise CatalogError(f"invalid logical file name {lfn!r}")
            if lfn not in seen and lfn not in known:
                fresh.append((lfn, item))
            seen.add(lfn)
        if fresh:
            self._register(fresh)
        self.register_site(site)
        self.catalog.bulk_add_filenames_to_location(
            self.collection, site, [item["lfn"] for item in files]
        )

    def add_replicas(self, lfns: list[str], site: str) -> None:
        """Record that ``site`` now holds every LFN in the batch."""
        known = self.catalog.collection_members(self.collection, lfns)
        for lfn in lfns:
            if lfn not in known:
                raise CatalogError(f"unknown logical file {lfn!r}")
        self.register_site(site)
        self.catalog.bulk_add_filenames_to_location(self.collection, site, lfns)

    def remove_replica(self, lfn: str, site: str) -> None:
        """Remove a replica record; the last removal retires the LFN."""
        self.catalog.remove_filename_from_location(self.collection, site, lfn)
        if not self.locations(lfn):
            # last replica gone: retire the logical file entirely
            self.catalog.delete_logical_file_entry(self.collection, lfn)
            self.catalog.remove_filename_from_collection(self.collection, lfn)

    # -- queries --------------------------------------------------------------------
    def locations(self, lfn: str) -> list[dict]:
        """All physical locations of a logical file."""
        return self.catalog.locations_of(self.collection, lfn)

    def info(self, lfn: str) -> LogicalFileInfo:
        """Metadata plus locations of one logical file."""
        return self.info_bulk([lfn])[0]

    def info_bulk(
        self, lfns: list[str], missing_ok: bool = False
    ) -> list[LogicalFileInfo]:
        """Metadata plus locations for a whole file set, in input order.

        Location membership for the entire batch is resolved in one pass
        over the location entries (see
        :meth:`~repro.catalog.replica_catalog.ReplicaCatalog.bulk_locations_of`).
        With ``missing_ok`` unknown LFNs are silently skipped — the
        speculative-probe mode sharded lookups use, where "not here" is
        an answer rather than an error.  Either way an unknown name is
        settled (skipped, or refused) from its membership/attribute entry
        before the location entries are walked: a miss is the common
        answer of a verify-on-use probe and must stay the cheap one.
        """
        if missing_ok:
            lfns = [lfn for lfn in lfns if self.lfn_exists(lfn)]
        attributes = [
            self.catalog.logical_file_attributes(self.collection, lfn)
            for lfn in lfns
        ]
        if not lfns:
            return []
        by_lfn = self.catalog.bulk_locations_of(self.collection, lfns)
        return [
            LogicalFileInfo(
                lfn=lfn,
                size=float(attrs.pop("size", "0")),
                modified=float(attrs.pop("modified", "0")),
                crc=int(attrs.pop("crc", "0")),
                attributes={k: v for k, v in attrs.items() if k != "lfn"},
                locations=tuple(by_lfn[lfn]),
            )
            for lfn, attrs in zip(lfns, attributes)
        ]

    def search(self, filter_text: str = "(lfn=*)") -> list[LogicalFileInfo]:
        """Filtered metadata search (§4.2: "Users can specify filters to
        obtain the exact information that they require")."""
        lfns = self.catalog.search_logical_files(self.collection, filter_text)
        return [self.info(lfn) for lfn in lfns]

    def list_lfns(self) -> list[str]:
        """Every logical file name in the collection."""
        return self.catalog.collection_filenames(self.collection)
