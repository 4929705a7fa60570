"""Containers and database files.

A :class:`DatabaseFile` is the unit GDMP replicates: "a single file will
generally contain many objects" (§2.1).  Objects live in containers; the
page layout (used by the I/O cost model) packs objects into fixed-size
pages in insertion order within each container.

A container keeps its objects as columns, one row per slot, and hands
callers :class:`~repro.objectdb.objects.PersistentObject` views built on
demand: the columns hold only strings, numbers and exact tuples of them,
which CPython's cyclic collector does not track, so a store of a million
objects costs the collector a handful of lists, not a million objects.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import accumulate, islice, repeat
from typing import Any, Iterator, Optional

from repro.objectdb.objects import (
    Links,
    Location,
    ObjectError,
    PersistentObject,
    linked,
)
from repro.objectdb.oid import OID

__all__ = ["Container", "DatabaseFile", "FILE_HEADER_SIZE"]

#: Fixed per-file overhead (catalog pages, schema references).
FILE_HEADER_SIZE = 16 * 1024


class Container:
    """An ordered collection of objects within a database file.

    Row ``slot`` of each column belongs to the object in that slot; slots
    are handed out in order, so the columns are in slot order.  ``data``
    is sparse (slot -> payload), as most objects carry none.  Indexes
    kept as rows are stored: ``bytes``, the running total of ``sizes``
    (added in slot order, as a sum over the objects adds them);
    ``offsets``, each slot's byte offset within the container (the prefix
    sums of ``sizes``, which the page layout reads); and ``type_names``,
    the types stored here (a dict used as a set: the collector does not
    track a dict of strs).  The first slot of each logical key, for
    :meth:`slot_of`, is built at the first lookup and kept up to date by
    writes after that.
    """

    __slots__ = ("db_id", "container_id", "name", "keys", "sizes", "types",
                 "data", "links", "offsets", "bytes", "type_names",
                 "_slot_of_key")

    def __init__(self, db_id: int, container_id: int, name: str):
        self.db_id = db_id
        self.container_id = container_id
        self.name = name
        self.keys: list[str] = []
        self.sizes: list[float] = []
        self.types: list[str] = []
        self.data: dict[int, Any] = {}
        self.links: list[Links] = []
        self.offsets = array("d")
        self.bytes: float = 0
        self.type_names: dict[str, None] = {}
        self._slot_of_key: Optional[dict[str, int]] = None

    def append(self, type_name: str, size: float, logical_key: str,
               data: Any = None, links: Links = ()) -> int:
        """Store one object in the next free slot and return the slot."""
        if size <= 0:
            raise ValueError("object size must be positive")
        slot = len(self.keys)
        self.keys.append(logical_key)
        self.sizes.append(size)
        self.types.append(type_name)
        if data is not None:
            self.data[slot] = data
        self.links.append(links)
        self.offsets.append(self.bytes)
        self.bytes += size
        self.type_names[type_name] = None
        if self._slot_of_key is not None:
            self._slot_of_key.setdefault(logical_key, slot)
        return slot

    def extend(self, type_name: str, size: float, logical_keys) -> int:
        """Store one object of ``type_name`` and ``size`` per key, with no
        payload and no links, in the next free slots; returns the first.
        Each column grows by one run; the running total and the offsets
        still add ``size`` one slot at a time."""
        if size <= 0:
            raise ValueError("object size must be positive")
        first = len(self.keys)
        self.keys.extend(logical_keys)
        count = len(self.keys) - first
        self.sizes.extend(repeat(size, count))
        self.types.extend(repeat(type_name, count))
        self.links.extend(repeat((), count))
        running = accumulate(repeat(size, count), initial=self.bytes)
        self.offsets.extend(islice(running, count))
        self.bytes = next(running)
        if count:
            self.type_names[type_name] = None
        if self._slot_of_key is not None:
            for slot in range(first, first + count):
                self._slot_of_key.setdefault(self.keys[slot], slot)
        return first

    def add(self, obj: PersistentObject) -> None:
        """Store an object built outside the container at its OID's slot,
        which must be the next free one."""
        if obj.oid.slot != len(self.keys):
            raise ObjectError(
                f"slot {obj.oid.slot} is not the next free slot of {self.name!r}"
            )
        self.append(obj.type_name, obj.size, obj.logical_key, obj.data, obj.links)

    def link(self, slot: int, role: str, target: Location) -> Links:
        """Add an association to the object in ``slot``; returns its links."""
        if not 0 <= slot < len(self.keys):
            self.view(slot)  # raises the error that names the slot
        links = self.links[slot] = linked(self.links[slot], role, target)
        return links

    def view(self, slot: int, oid: Optional[OID] = None) -> PersistentObject:
        """The object in ``slot`` (``oid``, when the caller has it, names it)."""
        if oid is None:
            oid = OID(self.db_id, self.container_id, slot)
        if not 0 <= slot < len(self.keys):
            raise ObjectError(f"no object at {oid}")
        return PersistentObject.view(
            oid, self, self.types[slot], self.sizes[slot], self.keys[slot],
            self.data.get(slot), self.links[slot],
        )

    def slot_of(self, logical_key: str) -> Optional[int]:
        """The first slot holding ``logical_key``, or None."""
        if self._slot_of_key is None:
            self._slot_of_key = {}
            for slot, key in enumerate(self.keys):
                self._slot_of_key.setdefault(key, slot)
        return self._slot_of_key.get(logical_key)

    @property
    def objects(self) -> Mapping[int, PersistentObject]:
        """Slot -> object, as views."""
        return _Slots(self)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[PersistentObject]:
        return map(self.view, range(len(self.keys)))


class _Slots(Mapping):
    """A container's objects by slot."""

    def __init__(self, container: Container):
        self._container = container

    def __getitem__(self, slot: int) -> PersistentObject:
        if not isinstance(slot, int) or not 0 <= slot < len(self._container):
            raise KeyError(slot)
        return self._container.view(slot)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._container)))

    def __len__(self) -> int:
        return len(self._container)


class DatabaseFile:
    """One Objectivity database file: a set of containers full of objects."""

    __slots__ = ("db_id", "name", "containers", "_next_container")

    def __init__(self, db_id: int, name: str):
        if db_id < 0:
            raise ValueError("db_id must be non-negative")
        self.db_id = db_id
        self.name = name
        self.containers: dict[int, Container] = {}
        self._next_container = 0

    def create_container(self, name: str = "") -> Container:
        """Create a new container in this file."""
        container_id = self._next_container
        self._next_container += 1
        container = Container(
            self.db_id, container_id, name or f"container-{container_id}"
        )
        self.containers[container_id] = container
        return container

    def container(self, container_id: int) -> Container:
        """Look up a container by id; raises ObjectError when missing."""
        try:
            return self.containers[container_id]
        except KeyError:
            raise ObjectError(
                f"database {self.name!r} has no container {container_id}"
            ) from None

    def new_object(
        self,
        container: Container,
        type_name: str,
        size: float,
        logical_key: str,
        data=None,
    ) -> PersistentObject:
        """Create a persistent object in the container and assign its OID."""
        if self.containers.get(container.container_id) is not container:
            raise ObjectError("container does not belong to this database")
        return container.view(
            container.append(type_name, size, logical_key, data)
        )

    def get(self, oid: OID) -> PersistentObject:
        """Dereference an OID belonging to this file."""
        if oid.database != self.db_id:
            raise ObjectError(f"OID {oid} does not belong to database {self.db_id}")
        return self.container(oid.container).view(oid.slot, oid)

    def find_by_key(self, logical_key: str) -> Optional[PersistentObject]:
        """The first object with this logical key in (container, slot)
        order, or None."""
        for container_id in sorted(self.containers):
            container = self.containers[container_id]
            slot = container.slot_of(logical_key)
            if slot is not None:
                return container.view(slot)
        return None

    def iter_objects(self) -> Iterator[PersistentObject]:
        """Iterate objects in (container, slot) order."""
        for container_id in sorted(self.containers):
            yield from self.containers[container_id]

    def keyed_slots(self) -> Iterator[tuple[str, int, int]]:
        """``(logical key, container id, slot)`` of every object, in
        :meth:`iter_objects` order, without building the objects."""
        for container_id in sorted(self.containers):
            for slot, key in enumerate(self.containers[container_id].keys):
                yield key, container_id, slot

    @property
    def type_names(self) -> set[str]:
        """The object types this file holds."""
        return set().union(*(c.type_names for c in self.containers.values()))

    @property
    def object_count(self) -> int:
        return sum(len(c) for c in self.containers.values())

    @property
    def size(self) -> float:
        """On-disk size: header plus all object payloads."""
        return FILE_HEADER_SIZE + sum(c.bytes for c in self.containers.values())
