"""Gridmap-file authorization: DN -> local account mapping.

After GSI authentication establishes *who* the peer is, the gridmap decides
*whether* (and as which local account) they may use the service — exactly
the authorization step every GDMP client request passes through.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["AuthorizationError", "GridMap"]


class AuthorizationError(Exception):
    """Subject is not authorized for the requested service."""


class GridMap:
    """An in-memory gridmap file."""

    def __init__(self, entries: Optional[dict[str, str]] = None):
        self._entries: dict[str, str] = dict(entries or {})

    def add(self, subject_dn: str, local_user: str) -> None:
        """Map a subject DN to a local account."""
        if not subject_dn.startswith("/"):
            raise ValueError(f"subject DN must start with '/': {subject_dn!r}")
        self._entries[subject_dn] = local_user

    def remove(self, subject_dn: str) -> None:
        """Remove a subject's mapping (no-op when absent)."""
        self._entries.pop(subject_dn, None)

    def authorize(self, identity_dn: str) -> str:
        """Map an authenticated identity to a local account, or raise."""
        try:
            return self._entries[identity_dn]
        except KeyError:
            raise AuthorizationError(
                f"identity {identity_dn!r} not present in gridmap"
            ) from None

    @classmethod
    def parse(cls, text: str) -> "GridMap":
        """Parse classic gridmap syntax: ``"/DN" account`` per line."""
        gridmap = cls()
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if not line.startswith('"'):
                raise ValueError(f"malformed gridmap line: {raw_line!r}")
            closing = line.index('"', 1)
            dn = line[1:closing]
            account = line[closing + 1 :].strip()
            if not account:
                raise ValueError(f"missing account in gridmap line: {raw_line!r}")
            gridmap.add(dn, account)
        return gridmap
