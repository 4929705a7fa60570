"""Mass Storage System: the tape archive behind each site's disk pool.

Models an HPSS-class system: a fixed number of tape drives (a
:class:`~repro.simulation.resources.Resource`), a mount+seek latency per
staging request, and a sustained streaming rate.  Staging is a simulation
process; concurrent requests queue for drives — this is why GDMP must
trigger stage requests explicitly and early (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.simulation.kernel import Event, Simulator
from repro.simulation.resources import Resource
from repro.storage.diskpool import DiskPool
from repro.storage.filesystem import StorageError, StoredFile
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["MassStorageSystem", "TapeError"]


class TapeError(StorageError):
    """File not in the archive, or archive misuse."""


@dataclass
class _ArchivedFile:
    path: str
    size: float
    content_id: str
    payload: object = None
    attrs: dict = field(default_factory=dict)


#: tape drives per site
DRIVES = 2
#: seconds from a drive's grant to the first byte (mount + seek)
MOUNT_SEEK_TIME = 45.0
#: sustained tape streaming rate, bytes/s
TAPE_RATE = 15e6


class MassStorageSystem:
    """A site's tape store: :data:`DRIVES` drives, each staging in
    :data:`MOUNT_SEEK_TIME` plus the file at :data:`TAPE_RATE`."""

    def __init__(
        self,
        sim: Simulator,
        site: str,
        metrics: MetricsRegistry = NO_METRICS,
    ):
        self.sim = sim
        self.site = site
        self._drives = Resource(sim, capacity=DRIVES)
        self._archive: dict[str, _ArchivedFile] = {}
        self.stats = {
            "staged_files": 0,
            "migrated_files": 0,
            "stage_faults": 0,
            "stage_stalls": 0,
        }
        #: optional MetricsRegistry: per-site staging latency histograms
        self.metrics = metrics
        #: fault injection (see :mod:`repro.faults`): stagings holding a
        #: drive before this sim-time stall until it passes (a robot arm
        #: wedged, an operator fixing a library)...
        self.fault_stall_until = 0.0
        #: ...and this many upcoming stagings fail outright with
        #: :class:`TapeError` (bad media, drive errors).
        self.fault_error_next = 0

    # -- fault injection -------------------------------------------------------
    def inject_stall(self, until: float) -> None:
        """Stall staging: drives acquired before ``until`` (sim-time) hold
        position until the stall clears, then proceed normally."""
        self.fault_stall_until = max(self.fault_stall_until, until)

    def inject_errors(self, count: int = 1) -> None:
        """Fail the next ``count`` stagings with :class:`TapeError`."""
        self.fault_error_next += int(count)

    # -- archive contents ----------------------------------------------------
    def contains(self, path: str) -> bool:
        """Whether the archive holds the path."""
        return path in self._archive

    def archive_record(self, path: str) -> _ArchivedFile:
        """The archive record of a path; raises TapeError when absent."""
        try:
            return self._archive[path]
        except KeyError:
            raise TapeError(f"{self.site} MSS: {path!r} not archived") from None

    def ingest(self, stored: StoredFile) -> None:
        """Record a disk file into the archive (synchronous bookkeeping;
        use :meth:`migrate` for the timed tape write)."""
        self._archive[stored.path] = _ArchivedFile(
            path=stored.path,
            size=stored.size,
            content_id=stored.content_id,
            payload=stored.payload,
            attrs=dict(stored.attrs),
        )

    def ingest_raw(self, path: str, size: float, content_id: str | None = None,
                   payload=None) -> None:
        """Seed the archive directly (initial experiment state)."""
        self._archive[path] = _ArchivedFile(
            path=path,
            size=size,
            content_id=content_id or f"{self.site}:tape:{path}:{size:.0f}",
            payload=payload,
        )

    # -- staging ---------------------------------------------------------------
    def stage_time(self, size: float) -> float:
        """Drive-occupancy time for one staging (excludes queueing)."""
        return MOUNT_SEEK_TIME + size / TAPE_RATE

    def stage_to_pool(self, pool: DiskPool, path: str) -> Event:
        """Start staging ``path`` from tape into ``pool``; the returned event
        fires with the :class:`StoredFile` once the file is on disk."""
        record = self.archive_record(path)
        done = self.sim.event()

        def staging(sim=self.sim):
            request = self._drives.request()
            queued_at = sim.now
            yield request
            try:
                if self.fault_error_next > 0:
                    self.fault_error_next -= 1
                    self.stats["stage_faults"] += 1
                    raise TapeError(
                        f"{self.site} MSS: injected drive error staging "
                        f"{record.path!r}"
                    )
                extra = self.fault_stall_until - sim.now
                if extra > 0:
                    self.stats["stage_stalls"] += 1
                    yield sim.timeout(extra)
                yield sim.timeout(self.stage_time(record.size))
                if pool.fs.exists(record.path):
                    stored = pool.fs.stat(record.path)
                else:
                    pool.ensure_space(record.size)
                    stored = pool.fs.create(
                        record.path,
                        record.size,
                        content_id=record.content_id,
                        now=sim.now,
                        payload=record.payload,
                        **record.attrs,
                    )
                self.stats["staged_files"] += 1
                # end-to-end staging latency: queue wait + mount/seek
                # + streaming time, observed once per staged file
                self.metrics.histogram(
                    "storage.mss.stage_latency", site=self.site
                ).observe(sim.now - queued_at)
                self.metrics.counter(
                    "storage.mss.staged_bytes", site=self.site
                ).inc(record.size)
            except StorageError as exc:
                self._drives.release(request)
                done.fail(exc)
                return
            self._drives.release(request)
            done.succeed(stored)

        self.sim.spawn(staging(), name=f"stage {path} @ {self.site}")
        return done

    def migrate(self, pool: DiskPool, path: str) -> Event:
        """Write a disk-pool file to tape (the reverse of staging); event
        fires when the tape copy exists."""
        stored = pool.fs.stat(path)
        done = self.sim.event()

        def migration(sim=self.sim):
            request = self._drives.request()
            yield request
            yield sim.timeout(self.stage_time(stored.size))
            self.ingest(stored)
            self.stats["migrated_files"] += 1
            self._drives.release(request)
            done.succeed(self._archive[path])

        self.sim.spawn(migration(), name=f"migrate {path} @ {self.site}")
        return done
