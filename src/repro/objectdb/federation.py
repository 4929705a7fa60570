"""The federation: schema, internal file catalog, attach/detach.

§4.1: "each site is running the Objectivity database management system
locally that has a catalog of database files internally.  However, the
local Objectivity database management system does not know about other
sites" — so navigating to an object in a file that is not attached locally
raises :class:`NavigationError` (§2.1: "the navigation to the associated
object might not be possible since the required file is not available
locally").

GDMP's Objectivity plugin calls :meth:`Federation.attach` as its
post-processing step after a file transfer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.objectdb.database import Container, DatabaseFile
from repro.objectdb.objects import Location, PersistentObject
from repro.objectdb.oid import OID

__all__ = ["FederationError", "NavigationError", "Federation"]


class FederationError(Exception):
    """Federation catalog misuse."""


class NavigationError(FederationError):
    """An OID points into a database file that is not attached locally."""


class Federation:
    """One site's object store: a schema plus attached database files."""

    def __init__(self, name: str, site: str):
        self.name = name
        self.site = site
        self._schema: set[str] = set()
        self._databases: dict[int, DatabaseFile] = {}
        self._by_name: dict[str, int] = {}
        self._next_db_id = 1  # db 0 is the federation's own system database

    # -- schema ---------------------------------------------------------------
    def declare_type(self, type_name: str) -> None:
        """Add an object type to the federation's schema."""
        self._schema.add(type_name)

    def knows_type(self, type_name: str) -> bool:
        """Whether the schema contains the type."""
        return type_name in self._schema

    @property
    def schema(self) -> frozenset[str]:
        return frozenset(self._schema)

    # -- database lifecycle -------------------------------------------------------
    def create_database(self, name: str) -> DatabaseFile:
        """Create a new, locally-owned database file."""
        if name in self._by_name:
            raise FederationError(f"database {name!r} already in federation")
        db = DatabaseFile(self._next_db_id, name)
        self._next_db_id += 1
        self._databases[db.db_id] = db
        self._by_name[name] = db.db_id
        return db

    def attach(self, db: DatabaseFile) -> None:
        """Attach a (replicated) database file to the local catalog.

        The file keeps its original db_id so that OIDs recorded elsewhere
        (indices, associations) stay valid.  Schema for every contained
        object type must already be present (pre-processing's job).
        """
        if db.db_id in self._databases:
            raise FederationError(f"db_id {db.db_id} already attached")
        if db.name in self._by_name:
            raise FederationError(f"database name {db.name!r} already attached")
        unknown = db.type_names - self._schema
        if unknown:
            raise FederationError(
                f"cannot attach {db.name!r}: unknown types {sorted(unknown)} "
                "(run schema pre-processing first)"
            )
        self._next_db_id = max(self._next_db_id, db.db_id + 1)
        self._databases[db.db_id] = db
        self._by_name[db.name] = db.db_id

    def detach(self, name: str) -> DatabaseFile:
        """Detach a database file from the local catalog and return it."""
        try:
            db_id = self._by_name.pop(name)
        except KeyError:
            raise FederationError(f"no database {name!r} attached") from None
        return self._databases.pop(db_id)

    def is_attached(self, name: str) -> bool:
        """Whether a database file of this name is attached."""
        return name in self._by_name

    def database(self, name: str) -> DatabaseFile:
        """Look up an attached database file by name."""
        try:
            return self._databases[self._by_name[name]]
        except KeyError:
            raise FederationError(f"no database {name!r} attached") from None

    def database_by_id(self, db_id: int) -> DatabaseFile:
        """Look up an attached database file by db_id; raises NavigationError when absent."""
        try:
            return self._databases[db_id]
        except KeyError:
            raise NavigationError(
                f"database id {db_id} not attached at {self.site!r}"
            ) from None

    @property
    def database_names(self) -> list[str]:
        return sorted(self._by_name)

    # -- navigation ------------------------------------------------------------------
    def container_of(self, oid: OID) -> Container:
        """The container an OID points into; raises :class:`NavigationError`
        if the owning database file is not attached at this site."""
        try:
            return self._databases[oid.database].containers[oid.container]
        except KeyError:
            # one of the two is missing: let the lookup that names it raise
            return self.database_by_id(oid.database).container(oid.container)

    def resolve(self, oid: OID) -> PersistentObject:
        """Dereference an OID; raises :class:`NavigationError` if the owning
        database file is not attached at this site."""
        return self.container_of(oid).view(oid.slot, oid)

    def sizes_at(self, locations: Iterable[Location]) -> list[float]:
        """The size of the object at each ``(database, container, slot)``,
        in order, read without building the objects.  A selection runs
        through a container's objects before the next container's, so the
        size column of the container read last is kept at hand."""
        databases = self._databases
        sizes = []
        read = sizes.append
        column = at_database = at_container = None
        for database, container, slot in locations:
            try:
                if database != at_database or container != at_container:
                    column = databases[database].containers[container].sizes
                    at_database, at_container = database, container
                if slot < 0:
                    raise IndexError(slot)
                read(column[slot])
            except (KeyError, IndexError):
                # raises the error that names what is missing
                self.resolve(OID(database, container, slot))
        return sizes

    def navigate(self, obj: PersistentObject, role: str) -> list[PersistentObject]:
        """Follow a navigational association."""
        return [self.resolve(target) for target in obj.targets(role)]

    def find_by_key(self, logical_key: str) -> Optional[PersistentObject]:
        """The first object with this logical key: attached files in the
        order they were attached, then (container, slot) order; or None."""
        for db in self._databases.values():
            found = db.find_by_key(logical_key)
            if found is not None:
                return found
        return None

    def iter_objects(self) -> Iterator[PersistentObject]:
        """Iterate every object in every attached database file."""
        for db_id in sorted(self._databases):
            yield from self._databases[db_id].iter_objects()

    @property
    def object_count(self) -> int:
        return sum(db.object_count for db in self._databases.values())

    @property
    def total_bytes(self) -> float:
        return sum(db.size for db in self._databases.values())
