"""The Globus Replica Catalog object model over the LDAP directory.

§3.1 of the paper: "The catalog contains three types of object.  The
highest-level object is the collection, a group of logical file names.  A
location object contains the information required to map between a logical
filename ... and the (possibly multiple) physical locations of the
associated replicas.  The final object is a logical file entry [which] can
be used to store attribute-value pair information for individual logical
files."

The DN layout mirrors the real catalog::

    rc=<catalog>, o=grid                              (root)
    cn=<collection>, rc=<catalog>, o=grid             (collection)
    loc=<location>, cn=<c>, rc=<catalog>, o=grid      (location)
    lf=<lfn>, cn=<c>, rc=<catalog>, o=grid            (logical file entry)

Membership questions ("is this LFN in the collection?", "does this
location hold it?") go through the directory's equality indexes instead of
copying million-element attribute lists, and the ``bulk_*`` methods batch
whole file sets into one directory operation each — the building blocks
the service layer's batched RPCs sit on.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from repro.catalog.ldapsim import LdapDirectory, LdapError

__all__ = ["CatalogError", "ReplicaCatalog"]

ROOT_SUFFIX = "o=grid"


class CatalogError(Exception):
    """Replica catalog operation failure."""


_RESERVED = re.compile(r"[,=()]").search


def _escape(value: str) -> str:
    if _RESERVED(value):
        raise CatalogError(f"name may not contain ',=()' characters: {value!r}")
    return value


class ReplicaCatalog:
    """Collections, locations, and logical file entries.

    This is the *low-level* Globus API: callers must create collections and
    locations before registering filenames (the GDMP wrapper in
    :mod:`repro.catalog.gdmp_catalog` automates that).
    """

    def __init__(self, directory: Optional[LdapDirectory] = None, name: str = "rc"):
        self.directory = directory or LdapDirectory()
        self.name = _escape(name)
        self.root_dn = f"rc={self.name},{ROOT_SUFFIX}"
        if not self.directory.exists(ROOT_SUFFIX):
            self.directory.add(ROOT_SUFFIX, {"objectClass": ["organization"]})
        if not self.directory.exists(self.root_dn):
            self.directory.add(
                self.root_dn, {"objectClass": ["GlobusReplicaCatalog"]}
            )

    # -- DN helpers ----------------------------------------------------------
    def collection_dn(self, collection: str) -> str:
        """DN of a collection entry."""
        return f"cn={_escape(collection)},{self.root_dn}"

    def location_dn(self, collection: str, location: str) -> str:
        """DN of a location entry within a collection."""
        return f"loc={_escape(location)},{self.collection_dn(collection)}"

    def logical_file_dn(self, collection: str, lfn: str) -> str:
        """DN of a logical file entry within a collection."""
        return f"lf={_escape(lfn)},{self.collection_dn(collection)}"

    # -- collections ---------------------------------------------------------
    def create_collection(self, collection: str) -> None:
        """Create an empty collection."""
        try:
            self.directory.add(
                self.collection_dn(collection),
                {"objectClass": ["GlobusReplicaCollection"], "filename": []},
            )
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    def collection_exists(self, collection: str) -> bool:
        """Whether the collection exists."""
        return self.directory.exists(self.collection_dn(collection))

    def add_filename_to_collection(self, collection: str, lfn: str) -> None:
        """Register a logical file name in the collection's name list."""
        self.bulk_add_filenames_to_collection(collection, [lfn])

    def remove_filename_from_collection(self, collection: str, lfn: str) -> None:
        """Remove a logical file name from the collection's name list."""
        try:
            self.directory.modify_delete(self.collection_dn(collection), "filename", lfn)
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    def collection_filenames(self, collection: str) -> list[str]:
        """All logical file names registered in the collection."""
        self._require_collection(collection)
        return self.directory.get(
            self.collection_dn(collection), ("filename",)
        ).values("filename")

    def collection_contains(self, collection: str, lfn: str) -> bool:
        """Index-backed membership: is ``lfn`` registered in the collection?

        O(1) — unlike :meth:`collection_filenames`, which copies the whole
        name list and is O(collection size).
        """
        try:
            return self.directory.has_value(
                self.collection_dn(collection), "filename", lfn
            )
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    def collection_members(self, collection: str, lfns: Iterable[str]) -> set[str]:
        """The members of ``lfns`` registered in the collection: one
        index probe for the whole batch."""
        try:
            return self.directory.held_values(
                self.collection_dn(collection), "filename", lfns
            )
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    def bulk_add_filenames_to_collection(
        self, collection: str, lfns: Iterable[str]
    ) -> None:
        """Register many logical file names in one directory operation."""
        self._require_collection(collection)
        self.directory.modify_add_many(
            self.collection_dn(collection), "filename", lfns
        )

    # -- locations -------------------------------------------------------------
    def create_location(
        self, collection: str, location: str, hostname: str, url_prefix: str
    ) -> None:
        """Create a location object (a site holding replicas of this collection)."""
        self._require_collection(collection)
        try:
            self.directory.add(
                self.location_dn(collection, location),
                {
                    "objectClass": ["GlobusReplicaLocation"],
                    "hostname": [hostname],
                    "urlPrefix": [url_prefix],
                    "filename": [],
                },
            )
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    def location_exists(self, collection: str, location: str) -> bool:
        """Whether the location exists in the collection."""
        return self.directory.exists(self.location_dn(collection, location))

    def add_filename_to_location(
        self, collection: str, location: str, lfn: str
    ) -> None:
        """Record that the location holds a replica of the logical file."""
        self.bulk_add_filenames_to_location(collection, location, [lfn])

    def bulk_add_filenames_to_location(
        self, collection: str, location: str, lfns: Iterable[str]
    ) -> None:
        """Record many replicas at one location in one directory operation."""
        lfns = list(lfns)
        registered = self.collection_members(collection, lfns)
        for lfn in lfns:
            if lfn not in registered:
                raise CatalogError(
                    f"{lfn!r} is not in collection {collection!r}; "
                    f"register it first"
                )
        dn = self.location_dn(collection, location)
        if not self.directory.exists(dn):
            raise CatalogError(f"no location {location!r} in {collection!r}")
        self.directory.modify_add_many(dn, "filename", lfns)

    def remove_filename_from_location(
        self, collection: str, location: str, lfn: str
    ) -> None:
        """Remove the replica record of a logical file at the location."""
        try:
            self.directory.modify_delete(
                self.location_dn(collection, location), "filename", lfn
            )
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    def location_filenames(self, collection: str, location: str) -> list[str]:
        """Logical file names the location holds replicas of."""
        try:
            return self.directory.get(
                self.location_dn(collection, location), ("filename",)
            ).values("filename")
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    # -- logical file entries -----------------------------------------------------
    def create_logical_file_entry(
        self, collection: str, lfn: str, attributes: dict[str, str]
    ) -> None:
        """Create the optional attribute-value entry for a logical file."""
        self.bulk_create_logical_file_entries(collection, [(lfn, attributes)])

    def logical_file_attributes(self, collection: str, lfn: str) -> dict[str, str]:
        """Attribute-value pairs stored for a logical file."""
        try:
            entry = self.directory.get(self.logical_file_dn(collection, lfn))
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc
        return {
            k: v[0]
            for k, v in entry.attributes.items()
            if k not in ("objectClass",) and v
        }

    def bulk_create_logical_file_entries(
        self, collection: str, entries: Iterable[tuple[str, dict]]
    ) -> None:
        """Create many logical-file attribute entries in one operation.

        ``entries`` yields ``(lfn, attributes)`` pairs.
        """
        self._require_collection(collection)
        parent = self.collection_dn(collection)

        def directory_entries():
            for lfn, attributes in entries:
                # one-value tuples, not lists: the cyclic collector stops
                # tracking a tuple of strings, so the batch add_many holds
                # while it validates promotes fewer objects to the older
                # generations, and triggers fewer full collections
                fields = {"objectClass": ("GlobusReplicaLogicalFile",), "lfn": (lfn,)}
                for name, value in attributes.items():
                    fields[name] = (str(value),)
                yield f"lf={_escape(lfn)},{parent}", fields

        try:
            self.directory.add_many(directory_entries())
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    def delete_logical_file_entry(self, collection: str, lfn: str) -> None:
        """Delete a logical file's attribute entry."""
        self.bulk_delete_logical_file_entries(collection, [lfn])

    def bulk_delete_logical_file_entries(
        self, collection: str, lfns: Iterable[str]
    ) -> None:
        """Delete many logical-file attribute entries in one operation."""
        try:
            self.directory.delete_many(
                self.logical_file_dn(collection, lfn) for lfn in lfns
            )
        except LdapError as exc:
            raise CatalogError(str(exc)) from exc

    def search_logical_files(self, collection: str, filter_text: str) -> list[str]:
        """LFNs in ``collection`` whose entries match the LDAP filter."""
        self._require_collection(collection)
        composed = f"(&(objectClass=GlobusReplicaLogicalFile){filter_text})"
        entries = self.directory.search(
            self.collection_dn(collection), composed, scope="one",
            attributes=("lfn",),
        )
        return [e.first("lfn", "") for e in entries]

    # -- the heart of the system ----------------------------------------------
    def locations_of(self, collection: str, lfn: str) -> list[dict[str, str]]:
        """All physical locations of a logical file (§3.1: "the heart of
        the system").  Each result carries the location name, hostname and
        the physical URL.  Membership is answered by the equality index,
        so the cost is O(locations), independent of the file population."""
        return self.bulk_locations_of(collection, [lfn])[lfn]

    def bulk_locations_of(
        self, collection: str, lfns: Iterable[str]
    ) -> dict[str, list[dict[str, str]]]:
        """Physical locations for a whole set of logical files at once.

        The per-location info entries are read once for the entire batch,
        so an N-file lookup costs O(locations + N) index probes instead of
        N independent scans.
        """
        self._require_collection(collection)
        lfns = list(lfns)
        results: dict[str, list[dict[str, str]]] = {lfn: [] for lfn in lfns}
        for entry in self.directory.search(
            self.collection_dn(collection),
            "(objectClass=GlobusReplicaLocation)",
            scope="one",
            attributes=("hostname", "urlPrefix"),
        ):
            location = entry.dn.split(",", 1)[0].split("=", 1)[1]
            hostname = entry.first("hostname", "")
            prefix = entry.first("urlPrefix", "").rstrip("/")
            for lfn in results:  # each name once, however often it was asked
                if self.directory.has_value(entry.dn, "filename", lfn):
                    results[lfn].append(
                        {
                            "location": location,
                            "hostname": hostname,
                            "url": f"{prefix}/{lfn}",
                        }
                    )
        return results

    # -- internals --------------------------------------------------------------
    def _require_collection(self, collection: str) -> None:
        if not self.collection_exists(collection):
            raise CatalogError(f"no such collection {collection!r}")
