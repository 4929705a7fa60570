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

import numpy as np

from repro.objectdb.federation import Federation
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
    """Application metadata catalog + object-to-file catalog (Figure 1)."""

    def __init__(self) -> None:
        self._oid_by_event_type: dict[tuple[int, str], OID] = {}
        self._file_by_db_id: dict[int, str] = {}
        self._events: list[int] = []
        self._types: set[str] = set()

    # -- registration (builder-side) ----------------------------------------
    def record_object(self, event_number: int, type_name: str, oid: OID) -> None:
        """Register the OID of one event's object of a type."""
        self._oid_by_event_type[(event_number, type_name)] = oid
        self._types.add(type_name)

    def record_file(self, db_id: int, file_name: str) -> None:
        """Register which file a database id corresponds to."""
        self._file_by_db_id[db_id] = file_name

    def record_event(self, event_number: int) -> None:
        """Register an event number as part of this run."""
        self._events.append(event_number)

    # -- the three-step mapping -----------------------------------------------
    @property
    def event_numbers(self) -> list[int]:
        return list(self._events)

    def oid_for(self, event_number: int, type_name: str) -> OID:
        """OID of one event's object of the given type."""
        try:
            return self._oid_by_event_type[(event_number, type_name)]
        except KeyError:
            raise KeyError(
                f"no {type_name!r} object for event {event_number}"
            ) from None

    def oids_for(self, event_numbers, type_name: str) -> list[OID]:
        """Step 1+2: event numbers -> set of OIDs."""
        return [self.oid_for(event, type_name) for event in event_numbers]

    def file_of(self, oid: OID) -> str:
        """Step 3: OID -> file name (via the object-to-file catalog)."""
        try:
            return self._file_by_db_id[oid.database]
        except KeyError:
            raise KeyError(f"OID {oid} maps to no known file") from None

    def files_for(self, oids) -> dict[str, list[OID]]:
        """OIDs grouped by the file that holds them."""
        grouped: dict[str, list[OID]] = {}
        for oid in oids:
            grouped.setdefault(self.file_of(oid), []).append(oid)
        return grouped

    def objects_per_file(self, type_name: str) -> dict[str, int]:
        """Per-file object counts for one type."""
        counts: dict[str, int] = {}
        for (event, tname), oid in self._oid_by_event_type.items():
            if tname == type_name:
                file_name = self.file_of(oid)
                counts[file_name] = counts.get(file_name, 0) + 1
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
                order = list(self.rng.permutation(n_events))
            assignments[spec.name] = order

        # create files and fill them type by type
        oid_of: dict[tuple[int, str], OID] = {}
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
                for event in chunk:
                    obj = db.new_object(
                        container,
                        spec.name,
                        spec.size,
                        logical_key=f"{event}/{spec.name}",
                    )
                    oid_of[(event, spec.name)] = obj.oid
                    catalog.record_object(event, spec.name, obj.oid)

        # wire the reconstruction-chain associations (tag -> aod -> esd -> raw)
        for spec in types:
            if spec.upstream is None:
                continue
            for event in event_numbers:
                key = (event, spec.name)
                upstream_key = (event, spec.upstream)
                if key in oid_of and upstream_key in oid_of:
                    obj = federation.resolve(oid_of[key])
                    obj.associate("upstream", oid_of[upstream_key])

        for event in event_numbers:
            catalog.record_event(event)
        return catalog
