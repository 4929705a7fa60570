"""The Storage Manager Service (§4.4).

"by default a file is first looked for on its disk location and if it is
not there, it is assumed to be available in the Mass Storage System.
Consequently, a file stage request is issued" — the serving site pins the
file in its disk pool for the duration of the transfer; the receiving site
makes room in its pool (evicting cold replicas) before the transfer starts.
The paper's HRM plug-in [Bern00] is this class too: the only caller of the
MSS's ``stage_to_pool`` and ``migrate``.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.gdmp.request_manager import GdmpError
from repro.simulation.kernel import Event, Process, Simulator
from repro.storage.diskpool import DiskPool, Reservation
from repro.storage.filesystem import StorageError
from repro.storage.mss import MassStorageSystem, TapeError

__all__ = ["StageStatus", "StorageManager"]


class StageStatus(enum.Enum):
    """Observable state of a file with respect to the disk pool."""

    ON_DISK = "on_disk"
    ON_TAPE = "on_tape"
    STAGING = "staging"
    UNKNOWN = "unknown"


class StorageManager:
    """One site's storage: its disk pool, its tape (``mss`` None for a
    disk-only site) and the stagings in flight between them.  A staging
    is the MSS's own event; every requester of the file, first or
    joining, yields it, after the callback that drops it from the table."""

    def __init__(
        self,
        sim: Simulator,
        pool: DiskPool,
        mss: Optional[MassStorageSystem] = None,
    ):
        self.sim = sim
        self.pool = pool
        self.fs = pool.fs
        self.mss = mss
        #: path -> the staging bringing it from tape, while it runs
        self.in_flight: dict[str, Event] = {}
        self.stats = {
            "stage_requests": 0,
            "evictions_for_incoming": 0,
            "replicas_received": 0,
            "files_archived": 0,
        }

    def status(self, path: str) -> StageStatus:
        """Where a file currently is (disk / tape / staging / unknown)."""
        if path in self.in_flight:
            return StageStatus.STAGING
        if self.fs.exists(path):
            return StageStatus.ON_DISK
        if self.mss is not None and self.mss.contains(path):
            return StageStatus.ON_TAPE
        return StageStatus.UNKNOWN

    def _staging(self, path: str) -> Event:
        """The event that fires with ``path`` on disk: fired already for a
        disk hit, the staging in flight (joined), a new staging from tape,
        or failed for a file on neither."""
        cached = self.pool.lookup(path, self.sim.now)
        if cached is not None:
            return self.sim.event().succeed(cached)
        staging = self.in_flight.get(path)
        if staging is not None:
            return staging
        if self.mss is None or not self.mss.contains(path):
            return self.sim.event().fail(
                TapeError(f"{self.fs.site}: {path!r} neither on disk nor on tape")
            )
        self.stats["stage_requests"] += 1
        staging = self.mss.stage_to_pool(self.pool, path)
        self.in_flight[path] = staging
        staging.callbacks.append(lambda _: self.in_flight.pop(path))
        return staging

    def ensure_on_disk(self, path: str, pin: bool = True):
        """Generator: stage ``path`` to disk if needed and pin it, inside
        the caller's process; returns the :class:`StoredFile`."""
        try:
            stored = yield self._staging(path)
        except StorageError as exc:
            raise GdmpError(f"staging {path!r} failed: {exc}") from exc
        if pin:
            self.pool.pin(path)
        return stored

    def release(self, path: str) -> None:
        """Drop the transfer pin on a served file."""
        self.pool.unpin(path)

    def prepare_incoming(self, path: str, size: float):
        """Reserve space for an incoming replica (§4.4's
        ``allocate_storage(datasize)``): the transfer may only start if the
        space can be allocated.  Returns the :class:`Reservation`, which
        the caller must ``consume()`` on success or ``release()`` on
        failure."""
        if self.fs.exists(path):
            raise GdmpError(f"{path!r} already present at {self.fs.site}")
        evictions_before = self.pool.evictions
        try:
            reservation = self.pool.reserve(size)
        except StorageError as exc:
            raise GdmpError(f"no space for {path!r}: {exc}") from exc
        self.stats["evictions_for_incoming"] += (
            self.pool.evictions - evictions_before
        )
        return reservation

    def commit_incoming(self, reservation: Reservation) -> None:
        """Bookkeeping after the data mover materialized the replica."""
        self.stats["replicas_received"] += 1
        reservation.consume()

    def archive(self, path: str) -> Process:
        """Migrate a local file to tape (producer-side lifecycle)."""

        def run():
            if self.mss is None:
                raise StorageError(f"{self.fs.site}: no MSS attached")
            record = yield self.mss.migrate(self.pool, path)
            self.stats["files_archived"] += 1
            return record

        return self.sim.spawn(run(), name=f"archive {path}")
