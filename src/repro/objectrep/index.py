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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.objectdb.oid import OID

__all__ = ["IndexEntry", "GlobalObjectIndex"]


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
        self._entries: dict[str, list[IndexEntry]] = {}
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- updates ------------------------------------------------------------
    def record(self, logical_key: str, site: str, file_lfn: str, oid: OID) -> None:
        """Register one physical copy of a logical object."""
        entry = IndexEntry(logical_key, site, file_lfn, oid)
        copies = self._entries.setdefault(logical_key, [])
        if entry not in copies:
            copies.append(entry)

    def record_file(self, site: str, file_lfn: str, objects) -> None:
        """Index every object of a file placed at ``site``."""
        for obj in objects:
            self.record(obj.logical_key, site, file_lfn, obj.oid)

    # -- collective lookup ------------------------------------------------------
    def locate(self, logical_key: str) -> list[IndexEntry]:
        """All known copies of one logical object."""
        self.lookups += 1
        return list(self._entries.get(logical_key, []))

    def locate_many(self, keys: Iterable[str]) -> dict[str, list[IndexEntry]]:
        """The single collective lookup of §5.2 (counts as one operation)."""
        self.lookups += 1
        return {key: list(self._entries.get(key, [])) for key in keys}

    def missing_at(self, site: str, keys: Iterable[str]) -> list[str]:
        """Which of ``keys`` have no replica at ``site`` — step 2 of the
        object replication cycle."""
        located = self.locate_many(keys)
        return [
            key
            for key, copies in located.items()
            if not any(e.site == site for e in copies)
        ]

    # -- index-file (de)serialization ----------------------------------------------
    def to_index_payload(self) -> list[tuple[str, str, str, str]]:
        """Flatten to the payload an index *file* carries through GDMP."""
        return [
            (e.logical_key, e.site, e.file_lfn, str(e.oid))
            for copies in self._entries.values()
            for e in copies
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
        for copies in other._entries.values():
            for e in copies:
                self.record(e.logical_key, e.site, e.file_lfn, e.oid)

    @property
    def estimated_size(self) -> float:
        """Bytes an index file of this content would occupy (~96 B/entry:
        key, site, LFN, OID, framing)."""
        return 96.0 * sum(len(c) for c in self._entries.values())
