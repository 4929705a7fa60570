"""Restart and performance markers.

GridFTP's "support for reliable and restartable data transfer" works by the
server emitting *restart markers* naming the byte ranges safely on disk at
the receiver; after a failure the client resends ``REST <ranges>`` and only
the complement is retransferred.  *Performance markers* carry
(timestamp, bytes transferred) pairs — the "integrated instrumentation" of
the feature list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["RangeSet", "RestartMarker", "PerfMarker"]


class RangeSet:
    """A set of disjoint, sorted, half-open byte ranges ``[start, end)``."""

    def __init__(self, ranges: Iterable[tuple[float, float]] = ()):
        self._ranges: list[tuple[float, float]] = []
        for start, end in ranges:
            self.add(start, end)

    def add(self, start: float, end: float) -> None:
        """Insert a half-open range, merging overlaps and adjacencies."""
        if end < start:
            raise ValueError(f"invalid range [{start}, {end})")
        if end == start:
            return
        merged: list[tuple[float, float]] = []
        new_start, new_end = start, end
        for s, e in self._ranges:
            if e < new_start or s > new_end:
                merged.append((s, e))
            else:  # overlap or adjacency: absorb
                new_start = min(new_start, s)
                new_end = max(new_end, e)
        merged.append((new_start, new_end))
        merged.sort()
        self._ranges = merged

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RangeSet) and self._ranges == other._ranges

    def __repr__(self) -> str:
        body = ",".join(f"{int(s)}-{int(e)}" for s, e in self._ranges)
        return f"RangeSet({body})"

    @property
    def total(self) -> float:
        return sum(e - s for s, e in self._ranges)

    def contains(self, point: float) -> bool:
        """Whether the point lies inside any range."""
        return any(s <= point < e for s, e in self._ranges)

    def covers(self, start: float, end: float) -> bool:
        """Whether one range fully covers [start, end)."""
        return any(s <= start and end <= e for s, e in self._ranges)

    def complement(self, size: float) -> "RangeSet":
        """Byte ranges of a ``size``-byte file NOT in this set."""
        missing = RangeSet()
        cursor = 0.0
        for s, e in self._ranges:
            if s > cursor:
                missing.add(cursor, min(s, size))
            cursor = max(cursor, e)
            if cursor >= size:
                break
        if cursor < size:
            missing.add(cursor, size)
        return missing

    def to_rest_argument(self) -> str:
        """Serialize as the REST command's range list: ``"0-1000,5000-9000"``."""
        return ",".join(f"{int(s)}-{int(e)}" for s, e in self._ranges)

    @classmethod
    def from_rest_argument(cls, text: str) -> "RangeSet":
        ranges = cls()
        if not text.strip():
            return ranges
        for part in text.split(","):
            try:
                start_s, end_s = part.split("-")
                ranges.add(float(start_s), float(end_s))
            except ValueError:
                raise ValueError(f"malformed REST range {part!r}") from None
        return ranges


@dataclass(frozen=True)
class RestartMarker:
    """``111 Range Marker`` — ranges now safely on the receiver's disk."""

    ranges: RangeSet

    @property
    def bytes_on_disk(self) -> float:
        return self.ranges.total


@dataclass(frozen=True)
class PerfMarker:
    """``112 Perf Marker`` — instantaneous progress of a transfer."""

    timestamp: float
    bytes_transferred: float
    stripe_index: int = 0
    total_stripes: int = 1
