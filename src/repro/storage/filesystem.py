"""A site's simulated disk filesystem.

Files carry a *content identity* token rather than real bytes (the grid
moves multi-GB files; materializing them would be pointless).  The CRC the
data mover checks is derived from that token, so a faithful copy has a
matching CRC and an injected corruption does not — exactly the check GDMP
performs on top of TCP's 16-bit checksums (§4.3).

Small files that need real content (object-database files, index files)
may attach a ``payload`` object; payloads travel with copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

# Re-exported for the many call sites that import it from here; the
# canonical definition (with the corruption/partial/mixed markers it
# pairs with) lives in repro.storage.integrity.
from repro.storage.integrity import corrupt_content_id, file_crc

__all__ = ["StorageError", "StoredFile", "FileSystem", "file_crc"]


class StorageError(Exception):
    """Missing file, exhausted capacity, or invalid operation."""


@dataclass
class StoredFile:
    """One file on a site's disk."""

    path: str
    size: float
    content_id: str
    created_at: float = 0.0
    last_access: float = 0.0
    payload: Any = None
    attrs: dict = field(default_factory=dict)

    @property
    def crc(self) -> int:
        return file_crc(self.content_id)

    def clone(self, path: str, now: float) -> "StoredFile":
        """A faithful copy: same content identity (hence same CRC)."""
        return replace(self, path=path, created_at=now, last_access=now,
                       attrs=dict(self.attrs))


class FileSystem:
    """Disk storage at one site."""

    def __init__(
        self,
        site: str,
        capacity: float = float("inf"),
        read_rate: float = float("inf"),
        write_rate: float = float("inf"),
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.site = site
        self.capacity = capacity
        self.read_rate = read_rate
        self.write_rate = write_rate
        self._files: dict[str, StoredFile] = {}
        self._used = 0.0

    # -- queries -----------------------------------------------------------
    @property
    def used(self) -> float:
        return self._used

    @property
    def free(self) -> float:
        return self.capacity - self._used

    def exists(self, path: str) -> bool:
        """Whether a file exists at the path."""
        return path in self._files

    def stat(self, path: str) -> StoredFile:
        """The StoredFile at a path; raises StorageError when missing."""
        try:
            return self._files[path]
        except KeyError:
            raise StorageError(f"{self.site}: no such file {path!r}") from None

    def files(self) -> list[StoredFile]:
        """Every stored file, in no particular order."""
        return list(self._files.values())

    def listing(self, prefix: str = "") -> list[StoredFile]:
        """Files whose paths start with ``prefix``, sorted by path."""
        return sorted(
            (f for p, f in self._files.items() if p.startswith(prefix)),
            key=lambda f: f.path,
        )

    # -- mutation ----------------------------------------------------------
    def create(
        self,
        path: str,
        size: float,
        content_id: Optional[str] = None,
        now: float = 0.0,
        payload: Any = None,
        **attrs,
    ) -> StoredFile:
        """Create a file, charging its size against free space."""
        if path in self._files:
            raise StorageError(f"{self.site}: file exists {path!r}")
        if size < 0:
            raise ValueError("size must be non-negative")
        if size > self.free:
            raise StorageError(
                f"{self.site}: no space for {path!r} "
                f"({size:.0f} B needed, {self.free:.0f} B free)"
            )
        stored = StoredFile(
            path=path,
            size=size,
            content_id=content_id or f"{self.site}:{path}:{size:.0f}",
            created_at=now,
            last_access=now,
            payload=payload,
            attrs=dict(attrs),
        )
        self._files[path] = stored
        self._used += size
        return stored

    def store(self, stored: StoredFile) -> StoredFile:
        """Place an already-built :class:`StoredFile` (e.g. a clone arriving
        from a transfer)."""
        if stored.path in self._files:
            raise StorageError(f"{self.site}: file exists {stored.path!r}")
        if stored.size > self.free:
            raise StorageError(f"{self.site}: no space for {stored.path!r}")
        self._files[stored.path] = stored
        self._used += stored.size
        return stored

    def delete(self, path: str) -> StoredFile:
        """Delete a file, reclaiming its space; returns the removed record."""
        stored = self.stat(path)
        del self._files[path]
        self._used -= stored.size
        return stored

    def touch_access(self, path: str, now: float) -> None:
        """Update a file's last-access time (cache recency)."""
        self.stat(path).last_access = now

    def corrupt(self, path: str) -> None:
        """Failure injection: silently damage the stored content so the
        CRC no longer matches the original."""
        stored = self.stat(path)
        stored.content_id = corrupt_content_id(stored.content_id)
