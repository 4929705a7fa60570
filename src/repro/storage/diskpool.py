"""The disk pool: a site's grid transfer cache in front of the MSS.

§4.4: "we assume that each site has a disk pool that can be regarded as a
data transfer cache for the Grid".  Files being served or received are
*pinned*; unpinned files are evictable in LRU order when space is needed
for a stage-in or an incoming replica.
"""

from __future__ import annotations

from repro.storage.filesystem import FileSystem, StorageError, StoredFile

__all__ = ["DiskPool", "PinError", "Reservation"]


class PinError(StorageError):
    """Pin accounting violation."""


class Reservation:
    """A space reservation (§4.4's ``allocate_storage(datasize)``).

    Reserved bytes are excluded from the pool's available space until the
    reservation is either *consumed* (the incoming file materialized) or
    *released* (the transfer failed).  Both are idempotent.
    """

    def __init__(self, pool: "DiskPool", nbytes: float):
        self.pool = pool
        self.nbytes = nbytes
        self.active = True

    def consume(self) -> None:
        """The reserved space is now occupied by the real file."""
        if self.active:
            self.active = False
            self.pool._reserved -= self.nbytes

    def release(self) -> None:
        """Give the space back (transfer failed or was cancelled)."""
        if self.active:
            self.active = False
            self.pool._reserved -= self.nbytes


class DiskPool:
    """Pinning + LRU eviction + space reservation over a :class:`FileSystem`."""

    def __init__(self, filesystem: FileSystem):
        self.fs = filesystem
        self._pins: dict[str, int] = {}
        self._reserved = 0.0
        self.evictions = 0
        self.hits = 0
        self.misses = 0

    @property
    def reserved(self) -> float:
        return self._reserved

    @property
    def available(self) -> float:
        """Free space not spoken for by outstanding reservations."""
        return self.fs.free - self._reserved

    # -- pinning -----------------------------------------------------------
    def pin(self, path: str) -> None:
        """Add one pin to a file, protecting it from eviction."""
        self.fs.stat(path)  # must exist
        self._pins[path] = self._pins.get(path, 0) + 1

    def unpin(self, path: str) -> None:
        """Drop one pin; raises PinError when not pinned."""
        count = self._pins.get(path, 0)
        if count <= 0:
            raise PinError(f"unpin without pin: {path!r}")
        if count == 1:
            del self._pins[path]
        else:
            self._pins[path] = count - 1

    def pin_count(self, path: str) -> int:
        """Current pin count of a path (0 when unpinned)."""
        return self._pins.get(path, 0)

    def drop_pins(self) -> int:
        """Forget every pin (the daemon holding them crashed: pins serve
        in-flight operations, and those died with it).  Returns how many
        were dropped."""
        dropped = sum(self._pins.values())
        self._pins.clear()
        return dropped

    # -- cache behaviour ------------------------------------------------------
    def lookup(self, path: str, now: float) -> StoredFile | None:
        """Cache probe; updates hit/miss statistics and recency."""
        if self.fs.exists(path):
            self.hits += 1
            self.fs.touch_access(path, now)
            return self.fs.stat(path)
        self.misses += 1
        return None

    def evictable(self) -> list[StoredFile]:
        """Unpinned files, least recently used first (ties by path, which
        is unique: one sort orders them)."""
        pins = self._pins
        return sorted(
            (f for f in self.fs.files() if pins.get(f.path, 0) == 0),
            key=lambda f: (f.last_access, f.path),
        )

    def ensure_space(self, nbytes: float) -> list[str]:
        """Evict LRU unpinned files until ``nbytes`` fit; returns evicted
        paths.  Raises :class:`StorageError` if pins make it impossible."""
        if nbytes > self.fs.capacity:
            raise StorageError(
                f"{self.fs.site}: request of {nbytes:.0f} B exceeds pool capacity"
            )
        evicted: list[str] = []
        if self.available >= nbytes:
            return evicted  # fits: no LRU to build
        candidates = iter(self.evictable())
        while self.available < nbytes:
            victim = next(candidates, None)
            if victim is None:
                raise StorageError(
                    f"{self.fs.site}: cannot free {nbytes:.0f} B, "
                    "all remaining files are pinned or reserved"
                )
            self.fs.delete(victim.path)
            self._pins.pop(victim.path, None)
            evicted.append(victim.path)
            self.evictions += 1
        return evicted

    def reserve(self, nbytes: float) -> Reservation:
        """Allocate space for an incoming file before the transfer starts
        (evicting cold files if needed); raises :class:`StorageError` when
        the space cannot be guaranteed."""
        if nbytes < 0:
            raise ValueError("reservation must be non-negative")
        self.ensure_space(nbytes)
        self._reserved += nbytes
        return Reservation(self, nbytes)
