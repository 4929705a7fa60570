"""The complete object replication cycle (§5.2) over GDMP sites.

    "- Objects that are needed by an application on the destination site
       are identified, as a group, before the application starts ...
     - The objects not yet present on the destination site are identified,
       and a source site, or combination of source sites, ... is found.
     - On the source site, the needed objects are copied into a new file or
       files, which are then sent to the destination site.  Object copying
       and file transport operations are pipelined ...
     - After having been transferred, the files are deleted on the source
       site(s).  The new files on the target site are first-class citizens
       in the Data Grid."

``pipelined=True`` overlaps copying chunk *k+1* with the WAN transfer of
chunk *k* (the EXP-OBJ2 ablation switches it off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.gdmp.grid import DataGrid, GdmpSite
from repro.gdmp.request_manager import GdmpError
from repro.objectrep.copier import CopyCostModel, ObjectCopier
from repro.objectrep.index import GlobalObjectIndex
from repro.simulation.kernel import Process

__all__ = ["ObjectReplicationReport", "ObjectReplicator"]


@dataclass(frozen=True)
class ObjectReplicationReport:
    """Accounting for one object replication cycle."""

    keys_requested: int
    keys_already_present: int
    objects_moved: int
    useful_bytes: float
    wire_bytes: float          # useful bytes + per-file headers
    files_created: int
    duration: float
    copy_time: float           # total copier occupancy at the source(s)
    pipelined: bool
    sources: tuple[str, ...]

    @property
    def throughput(self) -> float:
        return self.wire_bytes / self.duration if self.duration > 0 else 0.0


class ObjectReplicator:
    """Runs object replication cycles into one destination site."""

    def __init__(
        self,
        grid: DataGrid,
        destination: str,
        index: GlobalObjectIndex,
        cost_model: Optional[CopyCostModel] = None,
    ):
        self.grid = grid
        self.dst = grid.site(destination)
        self.index = index
        self.cost_model = cost_model or CopyCostModel()
        self.stats = {"cycles": 0, "objects_moved": 0}

    # -- the cycle -----------------------------------------------------------
    def replicate_objects(
        self,
        logical_keys: Sequence[str],
        chunk_objects: int = 1000,
        pipelined: bool = True,
        streams: Optional[int] = None,
        tcp_buffer: Optional[int] = None,
    ) -> Process:
        """Ensure every object named by ``logical_keys`` is present (and
        navigable) at the destination.  Returns an
        :class:`ObjectReplicationReport`."""
        sim = self.grid.sim
        dst = self.dst

        def run():
            started = sim.now
            requested = list(dict.fromkeys(logical_keys))
            # step 1+2: collective lookup, then diff against the destination
            missing = self.index.missing_at(dst.name, requested)
            located = self.index.locate_many(missing)
            unknown = [k for k, copies in located.items() if not copies]
            if unknown:
                raise GdmpError(
                    f"{len(unknown)} objects unknown to the global index, "
                    f"e.g. {unknown[:3]}"
                )
            # group by source site (first holder that is not the destination)
            by_source: dict[str, list] = {}
            for key, copies in located.items():
                entry = next(e for e in copies if e.site != dst.name)
                by_source.setdefault(entry.site, []).append(entry)

            copy_time = 0.0
            useful_bytes = 0.0
            wire_bytes = 0.0
            objects_moved = 0
            files_created = 0
            in_flight: list[Process] = []
            for source_name in sorted(by_source):
                entries = by_source[source_name]
                src = self.grid.site(source_name)
                copier = ObjectCopier(src.federation, self.cost_model)
                for i in range(0, len(entries), chunk_objects):
                    chunk = entries[i : i + chunk_objects]
                    # step 3a: the object copier writes a fresh file (the
                    # single copier at a source is sequential; §5.3)
                    copy_started = sim.now
                    result = yield from copier.copy_timed(
                        sim, [e.oid for e in chunk],
                        f"objcopy.{sim.next_serial('objcopy-file'):06d}.db",
                    )
                    copy_time += sim.now - copy_started
                    useful_bytes += result.bytes_copied
                    wire_bytes += result.database.size
                    objects_moved += result.objects_copied
                    files_created += 1
                    ship = self._ship_and_attach(
                        src, result, streams, tcp_buffer
                    )
                    # step 3b: pipelining — next copy overlaps this transfer
                    if pipelined:
                        in_flight.append(sim.spawn(
                            ship, name=f"object-ship {result.database.name}"
                        ))
                    else:
                        yield from ship
            if in_flight:
                yield sim.all_of(in_flight)
            self.stats["cycles"] += 1
            self.stats["objects_moved"] += objects_moved
            return ObjectReplicationReport(
                keys_requested=len(requested),
                keys_already_present=len(requested) - len(missing),
                objects_moved=objects_moved,
                useful_bytes=useful_bytes,
                wire_bytes=wire_bytes,
                files_created=files_created,
                duration=sim.now - started,
                copy_time=copy_time,
                pipelined=pipelined,
                sources=tuple(sorted(by_source)),
            )

        return sim.spawn(run(), name=f"object-replicate->{dst.name}")

    def _ship_and_attach(self, src: GdmpSite, copy_result,
                         streams: Optional[int] = None,
                         tcp_buffer: Optional[int] = None):
        """Move one freshly written file to the destination, attach it,
        publish it as a first-class grid file, update the index, and delete
        the source temporary."""
        sim = self.grid.sim
        dst = self.dst
        db = copy_result.database
        temp_path = f"/tmp/{db.name}"
        stored = src.fs.create(
            temp_path, db.size, now=sim.now, payload=db,
            content_id=f"{src.name}:objcopy:{db.name}",
        )
        src.pool.pin(temp_path)
        local_path = dst.config.storage_path(db.name)
        reservation = None
        try:
            reservation = dst.storage.prepare_incoming(local_path, stored.size)
            report = yield from dst.mover.fetch(
                src_host=src.name,
                remote_path=temp_path,
                local_path=local_path,
                expected_crc=stored.crc,
                streams=streams or dst.config.parallel_streams,
                tcp_buffer=tcp_buffer or dst.config.tcp_buffer,
            )
            dst.storage.commit_incoming(reservation)
        except BaseException:
            if reservation is not None:
                reservation.release()
            raise
        finally:
            # step 4: delete the temporary at the source
            if src.pool.pin_count(temp_path):  # a source crash drops pins
                src.pool.unpin(temp_path)
            src.fs.delete(temp_path)
        # attach at the destination (schema follows the objects)
        types = sorted(db.type_names)
        for type_name in types:
            dst.federation.declare_type(type_name)
        dst.federation.attach(db)
        # first-class citizenship: register in the GDMP replica catalog ...
        yield dst.client.publish(
            db.name, local_path, filetype="objectivity", schema=";".join(types)
        )
        # ... and in the global object index (a future extraction source)
        self.index.record_file(dst.name, db)
        return report
