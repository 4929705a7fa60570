"""The Storage Manager Service (§4.4).

"by default a file is first looked for on its disk location and if it is
not there, it is assumed to be available in the Mass Storage System.
Consequently, a file stage request is issued" — the serving site pins the
file in its disk pool for the duration of the transfer; the receiving site
makes room in its pool (evicting cold replicas) before the transfer starts.
"""

from __future__ import annotations

from repro.gdmp.request_manager import GdmpError
from repro.simulation.kernel import Process, Simulator
from repro.storage.filesystem import StorageError, StoredFile
from repro.storage.hrm import HierarchicalResourceManager, StageStatus

__all__ = ["StorageManager"]


class StorageManager:
    """Disk-pool + HRM orchestration for one site."""

    def __init__(self, sim: Simulator, hrm: HierarchicalResourceManager):
        self.sim = sim
        self.hrm = hrm
        self.stats = {
            "stage_requests": 0,
            "evictions_for_incoming": 0,
            "replicas_received": 0,
            "files_archived": 0,
        }

    @property
    def pool(self):
        return self.hrm.pool

    @property
    def fs(self):
        return self.hrm.pool.fs

    def status(self, path: str) -> StageStatus:
        """Stage status of a path (disk / tape / staging / unknown)."""
        return self.hrm.status(path)

    def ensure_on_disk(self, path: str, pin: bool = True):
        """Generator: stage ``path`` to disk if needed and pin it, inside
        the caller's process; returns the :class:`StoredFile`."""
        if self.hrm.status(path) is StageStatus.ON_TAPE:
            self.stats["stage_requests"] += 1
        try:
            stored = yield self.hrm.stage_file(path)
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

    def commit_incoming(self, stored: StoredFile, reservation=None,
                        pin: bool = False) -> None:
        """Bookkeeping after the data mover materialized the replica."""
        self.stats["replicas_received"] += 1
        if reservation is not None:
            reservation.consume()
        if pin:
            self.pool.pin(stored.path)

    def archive(self, path: str) -> Process:
        """Migrate a local file to tape (producer-side lifecycle)."""

        def run():
            record = yield self.hrm.archive_file(path)
            self.stats["files_archived"] += 1
            return record

        return self.sim.spawn(run(), name=f"archive {path}")
