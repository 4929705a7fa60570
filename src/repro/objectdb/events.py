"""The HEP event data model and the three catalogs of Figure 1.

§2.1: "The experiment's physics detector makes observations ... Each
observation is called an event and has a unique event number.  For each
event, a number of objects are present" — raw data objects and successively
smaller reconstructed objects.  §5.1 sizes them "100 byte to 10 MB".

:class:`EventStoreBuilder` populates a federation with events whose
per-type objects are clustered into database files, and returns an
:class:`EventCatalog` implementing the Figure 1 mapping chain:

    application metadata (event numbers) -> object property catalog
    -> OIDs -> object-to-file catalog -> file names
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.objectdb.federation import Federation
from repro.objectdb.objects import Location, location
from repro.objectdb.oid import OID

__all__ = ["ObjectTypeSpec", "STANDARD_TYPES", "EventCatalog", "EventStoreBuilder"]


@dataclass(frozen=True)
class ObjectTypeSpec:
    """One object type of the experiment's data model."""

    name: str
    size: float                 # bytes per object
    upstream: str | None = None  # association target type (reconstruction chain)


#: The canonical reconstruction chain, sized per §5.1 ("100 byte to 10 MB");
#: ``aod`` is the 10 KB "type X" of the paper's worked example.
STANDARD_TYPES = (
    ObjectTypeSpec("tag", 100.0, upstream="aod"),
    ObjectTypeSpec("aod", 10_000.0, upstream="esd"),
    ObjectTypeSpec("esd", 100_000.0, upstream="raw"),
    ObjectTypeSpec("raw", 1_000_000.0, upstream=None),
)


class EventCatalog:
    """Application metadata catalog + object-to-file catalog (Figure 1).

    Objects are recorded by location, the ``(database, container, slot)``
    triple an OID names; OIDs are built when asked for.  The per-type count
    of objects in each database is kept as objects are recorded, so
    :meth:`objects_per_file` reads it instead of scanning every object.
    """

    def __init__(self) -> None:
        #: type -> event -> location
        self._locations: dict[str, dict[int, Location]] = {}
        #: type -> db_id -> objects recorded there, in first-record order
        self._per_database: dict[str, dict[int, int]] = {}
        self._file_by_db_id: dict[int, str] = {}
        self._events: list[int] = []

    # -- registration (builder-side) ----------------------------------------
    def record_object(self, event_number: int, type_name: str, oid: OID) -> None:
        """Register the OID of one event's object of a type."""
        self._record(event_number, type_name, location(oid))

    def _record(self, event_number: int, type_name: str, where: Location) -> None:
        by_event = self._locations.setdefault(type_name, {})
        counts = self._per_database.setdefault(type_name, {})
        replaced = by_event.get(event_number)
        if replaced is not None:
            counts[replaced[0]] -= 1
            if not counts[replaced[0]]:
                del counts[replaced[0]]
        by_event[event_number] = where
        counts[where[0]] = counts.get(where[0], 0) + 1

    def _record_run(self, event_numbers, type_name: str, db_id: int,
                    container_id: int, first_slot: int) -> None:
        """Register the objects of one type, in consecutive slots of one
        container from ``first_slot``, of events with none recorded yet."""
        by_event = self._locations.setdefault(type_name, {})
        counts = self._per_database.setdefault(type_name, {})
        before = len(by_event)
        by_event.update(zip(event_numbers, zip(
            repeat(db_id), repeat(container_id),
            range(first_slot, first_slot + len(event_numbers)),
        )))
        counts[db_id] = counts.get(db_id, 0) + len(by_event) - before

    def record_file(self, db_id: int, file_name: str) -> None:
        """Register which file a database id corresponds to."""
        self._file_by_db_id[db_id] = file_name

    def record_event(self, event_number: int) -> None:
        """Register an event number as part of this run."""
        self._events.append(event_number)

    def record_events(self, event_numbers) -> None:
        """Register event numbers as part of this run, in order."""
        self._events.extend(event_numbers)

    # -- the three-step mapping -----------------------------------------------
    @property
    def event_numbers(self) -> list[int]:
        return list(self._events)

    @property
    def event_count(self) -> int:
        return len(self._events)

    def locations_for(self, event_numbers, type_name: str) -> list[Location]:
        """Step 1+2 as recorded: each event's object of the given type as
        the ``(database, container, slot)`` triple its OID names."""
        locations = self._locations.get(type_name, {})
        try:
            return [locations[event] for event in event_numbers]
        except KeyError as missing:
            raise KeyError(
                f"no {type_name!r} object for event {missing.args[0]}"
            ) from None

    def oid_for(self, event_number: int, type_name: str) -> OID:
        """OID of one event's object of the given type."""
        return self.oids_for((event_number,), type_name)[0]

    def oids_for(self, event_numbers, type_name: str) -> list[OID]:
        """Step 1+2: event numbers -> set of OIDs."""
        return [OID(*where) for where in self.locations_for(event_numbers, type_name)]

    def database_file(self, db_id: int) -> str:
        """The file name a database id corresponds to."""
        try:
            return self._file_by_db_id[db_id]
        except KeyError:
            raise KeyError(f"database {db_id} maps to no known file") from None

    def file_of(self, oid: OID) -> str:
        """Step 3: OID -> file name (via the object-to-file catalog)."""
        return self.database_file(oid.database)

    def files_for(self, oids) -> dict[str, list[OID]]:
        """OIDs grouped by the file that holds them."""
        grouped: dict[str, list[OID]] = {}
        for oid in oids:
            grouped.setdefault(self.file_of(oid), []).append(oid)
        return grouped

    def objects_per_file(self, type_name: str) -> dict[str, int]:
        """Per-file object counts for one type."""
        counts: dict[str, int] = {}
        for db_id, count in self._per_database.get(type_name, {}).items():
            file_name = self.database_file(db_id)
            counts[file_name] = counts.get(file_name, 0) + count
        return counts


class EventStoreBuilder:
    """Populates a federation with a production run's event objects."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def build(
        self,
        federation: Federation,
        n_events: int,
        types: tuple[ObjectTypeSpec, ...] = STANDARD_TYPES,
        events_per_file: int = 1000,
        placement: str = "sequential",
        file_prefix: str = "run01",
    ) -> EventCatalog:
        """Create ``n_events`` events in ``federation``.

        ``placement`` controls which file an event's object of a given type
        lands in: ``"sequential"`` clusters consecutive event numbers (the
        "smart initial placement" of §5.1), ``"random"`` scatters them.
        One database file per (type, file index); each file holds the
        objects of ``events_per_file`` events of one type.
        """
        if n_events <= 0 or events_per_file <= 0:
            raise ValueError("n_events and events_per_file must be positive")
        if placement not in ("sequential", "random"):
            raise ValueError(f"unknown placement {placement!r}")
        catalog = EventCatalog()
        for spec in types:
            federation.declare_type(spec.name)

        n_files = -(-n_events // events_per_file)  # ceil
        event_numbers = list(range(n_events))
        assignments: dict[str, list[int]] = {}
        for spec in types:
            if placement == "sequential":
                order = event_numbers
            else:
                order = self.rng.permutation(n_events).tolist()
            assignments[spec.name] = order

        # create files and fill them type by type
        for spec in types:
            order = assignments[spec.name]
            for file_index in range(n_files):
                db_name = f"{file_prefix}.{spec.name}.{file_index:04d}.db"
                db = federation.create_database(db_name)
                container = db.create_container(spec.name)
                catalog.record_file(db.db_id, db_name)
                chunk = order[
                    file_index * events_per_file : (file_index + 1) * events_per_file
                ]
                first = container.extend(
                    spec.name, spec.size,
                    [f"{event}/{spec.name}" for event in chunk],
                )
                catalog._record_run(
                    chunk, spec.name, db.db_id, container.container_id, first
                )

        # wire the reconstruction-chain associations (tag -> aod -> esd -> raw)
        for spec in types:
            if spec.upstream is None:
                continue
            here = catalog._locations.get(spec.name, {})
            there = catalog._locations.get(spec.upstream, {})
            for event in event_numbers:
                if event in here and event in there:
                    db_id, container_id, slot = here[event]
                    federation.database_by_id(db_id).containers[container_id].link(
                        slot, "upstream", there[event]
                    )

        catalog.record_events(event_numbers)
        return catalog
