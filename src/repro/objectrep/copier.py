"""The object copier tool.

§2.1: "on the source site, an object copier tool is used to copy the
objects that need to be replicated into a new file."  §5.3 quantifies its
cost: "it needs to process more file system I/O calls and context switches
per byte sent over the network" — the :class:`CopyCostModel` charges CPU
and double disk I/O (read source pages + write new file) per copied byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.objectdb.database import DatabaseFile
from repro.objectdb.federation import Federation
from repro.objectdb.objects import PersistentObject
from repro.objectdb.oid import OID
from repro.simulation.kernel import Simulator

__all__ = ["CopyCostModel", "CopyResult", "ObjectCopier"]


@dataclass(frozen=True)
class CopyCostModel:
    """Source-server resources burned per copied byte.

    Defaults give the copier roughly 60 MB/s effective local throughput —
    plenty against a 45 Mbps WAN, scarce against the "very high-end network
    card" scenario of §5.3.
    """

    disk_read_rate: float = 200e6    # bytes/s off the source pages
    disk_write_rate: float = 150e6   # bytes/s into the new file
    cpu_rate: float = 300e6          # bytes/s of copy-loop CPU headroom
    per_object_overhead: float = 20e-6  # seconds: lookup + I/O call + switch

    def copy_time(self, nbytes: float, nobjects: int) -> float:
        """Seconds of source-server occupancy to copy the given volume."""
        streaming = nbytes / self.disk_read_rate + nbytes / self.disk_write_rate
        cpu = nbytes / self.cpu_rate
        return streaming + cpu + nobjects * self.per_object_overhead


@dataclass(frozen=True)
class CopyResult:
    """A freshly written database file of copied objects."""

    database: DatabaseFile
    oid_map: dict[OID, OID]          # source OID -> OID in the new file
    bytes_copied: float
    objects_copied: int
    closure_added: int               # objects pulled in by association closure


class ObjectCopier:
    """Copies selected objects out of a federation into new files."""

    def __init__(self, federation: Federation,
                 cost_model: Optional[CopyCostModel] = None):
        self.federation = federation
        self.cost = cost_model or CopyCostModel()
        # db_ids for copier-created files start high so they never collide
        # with production files (a real federation hands these out
        # transactionally).  Timed copies draw from the simulator's serial
        # sequence so repeated simulations allocate identical ids; the
        # untimed path falls back to a per-copier counter.
        self._local_db_ids = itertools.count(100_000)

    def collect(
        self, oids: Iterable[OID], include_closure: bool = False
    ) -> tuple[list[PersistentObject], int]:
        """Resolve the requested objects; with ``include_closure`` also pull
        in every association target (transitively) so navigation keeps
        working at the destination without the original files."""
        seen: dict[OID, PersistentObject] = {}
        frontier = list(dict.fromkeys(oids))
        requested = len(frontier)
        while frontier:
            oid = frontier.pop()
            if oid in seen:
                continue
            obj = self.federation.resolve(oid)
            seen[oid] = obj
            if include_closure:
                for target in obj.all_targets():
                    if target not in seen:
                        frontier.append(target)
        ordered = [seen[oid] for oid in sorted(seen)]
        return ordered, len(ordered) - requested

    def copy(
        self,
        oids: Iterable[OID],
        file_name: str,
        include_closure: bool = False,
        db_id: Optional[int] = None,
    ) -> CopyResult:
        """Copy objects into a new :class:`DatabaseFile` (untimed)."""
        objects, closure_added = self.collect(oids, include_closure)
        if not objects:
            raise ValueError("nothing to copy")
        if db_id is None:
            db_id = next(self._local_db_ids)
        new_db = DatabaseFile(db_id, file_name)
        container = new_db.create_container("copied")
        # first pass: allocate OIDs so cross-references can be remapped
        oid_map = {
            obj.oid: OID(new_db.db_id, container.container_id, slot)
            for slot, obj in enumerate(objects)
        }
        for obj in objects:
            container.add(obj.replicated_to(oid_map[obj.oid], remapped=oid_map))
        return CopyResult(
            database=new_db,
            oid_map=oid_map,
            bytes_copied=container.bytes,
            objects_copied=len(objects),
            closure_added=closure_added,
        )

    def copy_timed(
        self,
        sim: Simulator,
        oids: Iterable[OID],
        file_name: str,
        include_closure: bool = False,
    ):
        """Generator, timed variant: charges the §5.3 CPU/disk cost in the
        caller's process before returning the :class:`CopyResult`."""
        db_id = sim.next_serial("copied-db-id", 100_000)
        result = self.copy(oids, file_name, include_closure, db_id=db_id)
        yield sim.timeout(
            self.cost.copy_time(result.bytes_copied, result.objects_copied)
        )
        return result
