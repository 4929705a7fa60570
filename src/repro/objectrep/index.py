"""The global object-location view.

§5.2: "A global view of which objects exist where is maintained in a set of
index files.  These files are themselves maintained and replicated on
demand using file-based replication by GDMP and Globus. ... it is possible
to structure most data-intensive HEP applications in such a way that each
application run specifies up front exactly which set of objects are needed.
These objects can then be found in one single collective lookup operation."

Entries map a *logical object key* (``"<event>/<type>"``) to every
(site, file LFN, OID) replica.  The index serializes into index-file
payloads so it can ride GDMP file replication like any other file.

Copies are kept as exact tuples ``(site, file LFN, database, container,
slot)`` — nothing the cyclic collector tracks — and handed out as
:class:`IndexEntry` values when looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.objectdb.database import DatabaseFile
from repro.objectdb.oid import OID

__all__ = ["IndexEntry", "GlobalObjectIndex"]

#: One copy as stored: (site, file LFN, database, container, slot).
Copy = tuple[str, str, int, int, int]


@dataclass(frozen=True)
class IndexEntry:
    """One physical copy of a logical object."""

    logical_key: str
    site: str
    file_lfn: str
    oid: OID


class GlobalObjectIndex:
    """In-memory core of the index-file set."""

    def __init__(self) -> None:
        self._copies: dict[str, tuple[Copy, ...]] = {}
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._copies)

    # -- updates ------------------------------------------------------------
    def record(self, logical_key: str, site: str, file_lfn: str, oid: OID) -> None:
        """Register one physical copy of a logical object."""
        self._add(logical_key,
                  (site, file_lfn, oid.database, oid.container, oid.slot))

    def _add(self, logical_key: str, copy: Copy) -> None:
        copies = self._copies.get(logical_key, ())
        if copy not in copies:
            self._copies[logical_key] = (*copies, copy)

    def record_file(self, site: str, db: DatabaseFile) -> None:
        """Index every object of a database file placed at ``site``, under
        the file's name."""
        for key, container_id, slot in db.keyed_slots():
            self._add(key, (site, db.name, db.db_id, container_id, slot))

    # -- collective lookup ------------------------------------------------------
    def _entries(self, logical_key: str) -> list[IndexEntry]:
        return [
            IndexEntry(logical_key, site, lfn, OID(database, container, slot))
            for site, lfn, database, container, slot in self._copies.get(
                logical_key, ()
            )
        ]

    def locate(self, logical_key: str) -> list[IndexEntry]:
        """All known copies of one logical object."""
        self.lookups += 1
        return self._entries(logical_key)

    def locate_many(self, keys: Iterable[str]) -> dict[str, list[IndexEntry]]:
        """The single collective lookup of §5.2 (counts as one operation)."""
        self.lookups += 1
        return {key: self._entries(key) for key in keys}

    def missing_at(self, site: str, keys: Iterable[str]) -> list[str]:
        """Which of ``keys`` have no replica at ``site`` — step 2 of the
        object replication cycle (one collective lookup)."""
        self.lookups += 1
        return [
            key
            for key in dict.fromkeys(keys)
            if not any(copy[0] == site for copy in self._copies.get(key, ()))
        ]

    # -- index-file (de)serialization ----------------------------------------------
    def to_index_payload(self) -> list[tuple[str, str, str, str]]:
        """Flatten to the payload an index *file* carries through GDMP."""
        return [
            (key, site, lfn, f"{database}-{container}-{slot}")
            for key, copies in self._copies.items()
            for site, lfn, database, container, slot in copies
        ]

    @classmethod
    def from_index_payload(
        cls, payload: list[tuple[str, str, str, str]]
    ) -> "GlobalObjectIndex":
        index = cls()
        for key, site, lfn, oid_text in payload:
            index.record(key, site, lfn, OID.parse(oid_text))
        return index

    def merge(self, other: "GlobalObjectIndex") -> None:
        """Merge a replicated index file into the local view."""
        for key, copies in other._copies.items():
            for copy in copies:
                self._add(key, copy)

    @property
    def estimated_size(self) -> float:
        """Bytes an index file of this content would occupy (~96 B/entry:
        key, site, LFN, OID, framing)."""
        return 96.0 * sum(len(c) for c in self._copies.values())
