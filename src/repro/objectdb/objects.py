"""Persistent objects with navigational associations.

§2.2: "two objects in two separate files can have a navigational
association between each other" — associations are OID references under a
named role.  §2.2 also fixes the consistency model for replication: "we
require that all objects entrusted to the object replication service are
always read-only objects"; objects are frozen at creation time here, which
is the versioning discipline HEP uses.

A stored object lives as one row of its container's columns
(:mod:`~repro.objectdb.database`); a :class:`PersistentObject` is what a
caller is handed for it — a *view* built on demand from the row.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.objectdb.oid import OID

__all__ = ["ObjectError", "PersistentObject"]

#: Where an object is stored: the ``(database, container, slot)`` an OID names.
Location = tuple[int, int, int]

#: A row's association targets, flat: ``(role, database, container, slot,
#: role, ...)``, grouped by role in the order roles were first associated,
#: each role's targets in the order added.  One tuple of strings and ints,
#: which the cyclic collector stops tracking at its first pass.
Links = tuple


class ObjectError(Exception):
    """Persistent-object misuse."""


def linked(links: Links, role: str, target: Location) -> Links:
    """``links`` with ``target`` added after the role's other targets
    (unchanged when the role already holds it)."""
    end = len(links)
    for i in range(0, len(links), 4):
        if links[i] == role:
            if links[i + 1:i + 4] == target:
                return links
            end = i + 4
    return (*links[:end], role, *target, *links[end:])


def grouped(links: Links) -> dict[str, list[OID]]:
    """Role -> target OIDs."""
    roles: dict[str, list[OID]] = {}
    for i in range(0, len(links), 4):
        roles.setdefault(links[i], []).append(OID(*links[i + 1:i + 4]))
    return roles


def location(oid: OID) -> Location:
    """Where an OID points."""
    return (oid.database, oid.container, oid.slot)


class PersistentObject:
    """One object, as a caller sees it.

    ``size`` is the on-disk footprint in bytes (declared, not materialized:
    a 10 MB raw-data object does not allocate 10 MB of host memory).
    ``associations`` maps role names to lists of target OIDs.
    ``logical_key`` identifies the object across replicas — typically
    ``"<event_number>/<type>"`` in the HEP model.

    An object read from a container is a view of its row, made when it
    is asked for: two reads of one slot are equal, not identical, and
    :meth:`associate` on a view writes through to the row.  An object
    built directly (or by :meth:`replicated_to`) belongs to no container
    until :meth:`~repro.objectdb.database.Container.add` stores it.
    """

    __slots__ = ("oid", "type_name", "size", "logical_key", "data",
                 "_links", "_home")

    def __init__(self, oid: OID, type_name: str, size: float,
                 logical_key: str, data: Any = None,
                 associations: Optional[dict[str, list[OID]]] = None):
        if size <= 0:
            raise ValueError("object size must be positive")
        self.oid = oid
        self.type_name = type_name
        self.size = size
        self.logical_key = logical_key
        self.data = data
        self._links: Links = ()
        self._home = None
        for role, targets in (associations or {}).items():
            for target in targets:
                self._links = linked(self._links, role, location(target))

    @classmethod
    def view(cls, oid: OID, home, type_name: str, size: float,
             logical_key: str, data: Any, links: Links) -> "PersistentObject":
        """The view of a stored row (its values were checked when stored)."""
        obj = cls.__new__(cls)
        obj.oid = oid
        obj.type_name = type_name
        obj.size = size
        obj.logical_key = logical_key
        obj.data = data
        obj._links = links
        obj._home = home
        return obj

    @property
    def links(self) -> Links:
        """The association targets in their stored form."""
        return self._links

    @property
    def associations(self) -> dict[str, list[OID]]:
        """Role -> target OIDs (a copy: add with :meth:`associate`)."""
        return grouped(self._links)

    def associate(self, role: str, target: OID) -> None:
        """Add a navigational association (only before the object is read
        back — associations are part of the immutable creation state)."""
        if self._home is None:
            self._links = linked(self._links, role, location(target))
        else:
            self._links = self._home.link(self.oid.slot, role, location(target))

    def targets(self, role: str) -> list[OID]:
        """Association targets under one role."""
        return grouped(self._links).get(role, [])

    def all_targets(self) -> list[OID]:
        """Every association target across all roles."""
        links = self._links
        return [OID(*links[i + 1:i + 4]) for i in range(0, len(links), 4)]

    def replicated_to(self, new_oid: OID,
                      remapped: Optional[dict[OID, OID]] = None) -> "PersistentObject":
        """A copy of this object under a new OID (the object copier's unit
        of work).  ``remapped`` translates association targets that were
        copied alongside; untranslated targets keep their original OIDs and
        will only resolve if the owning database is attached."""
        remapped = remapped or {}
        return PersistentObject(
            oid=new_oid,
            type_name=self.type_name,
            size=self.size,
            logical_key=self.logical_key,
            data=self.data,
            associations={
                role: [remapped.get(t, t) for t in targets]
                for role, targets in self.associations.items()
            },
        )

    def _fields(self) -> tuple:
        return (self.oid, self.type_name, self.size, self.logical_key,
                self.data, self._links)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"PersistentObject(oid={self.oid!r}, type_name={self.type_name!r}, "
            f"size={self.size!r}, logical_key={self.logical_key!r}, "
            f"data={self.data!r}, associations={self.associations!r})"
        )
