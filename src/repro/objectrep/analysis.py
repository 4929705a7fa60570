"""The §5.1 quantitative analysis: file vs object replication cost.

The paper's worked example: 10⁶ selected objects of 10 KB out of 10⁹
stored — object replication moves 10 GB; file replication would need "a set
of files with all the needed objects while this set is not larger than e.g.
20 GB", which "can very likely not be found at all" because "the a priori
probability that any existing file happens to contain more than 50% of the
selected objects is extremely low".

These functions compute, for a concrete event store and selection: the
bytes each strategy ships, the per-file selected fraction distribution, and
the analytic majority-selected probability.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import Sequence

from repro.objectdb.database import FILE_HEADER_SIZE
from repro.objectdb.events import EventCatalog
from repro.objectdb.federation import Federation
from repro.objectdb.objects import Location, location
from repro.objectdb.oid import OID

__all__ = [
    "file_replication_cost",
    "object_replication_cost",
    "probability_file_majority_selected",
    "ReplicationComparison",
    "compare_replication_strategies",
]


@dataclass(frozen=True)
class StrategyCost:
    """Bytes shipped and what they contain."""

    bytes_moved: float
    useful_bytes: float
    files_moved: int

    @property
    def efficiency(self) -> float:
        """Fraction of shipped bytes the analysis actually wanted."""
        return self.useful_bytes / self.bytes_moved if self.bytes_moved else 1.0


def file_replication_cost(
    federation: Federation,
    catalog: EventCatalog,
    selected_oids: Sequence[OID],
) -> StrategyCost:
    """Ship every *existing* file that holds at least one selected object."""
    selected = [location(oid) for oid in selected_oids]
    return _file_cost(
        federation, catalog, selected, federation.sizes_at(selected)
    )


def _file_cost(
    federation: Federation,
    catalog: EventCatalog,
    selected: Sequence[Location],
    sizes: Sequence[float],
) -> StrategyCost:
    """``sizes`` is the size of each ``selected`` object, in order."""
    by_database: dict[int, list[float]] = {}
    at = None  # a selection reaches a file's objects in runs
    for where, size in zip(selected, sizes):
        if where[0] != at:
            at = where[0]
            located = by_database.setdefault(at, [])
        located.append(size)
    # the files in the order the selection first reaches them
    grouped: dict[str, list[float]] = {}
    for db_id, located in by_database.items():
        grouped.setdefault(catalog.database_file(db_id), []).extend(located)
    total = 0.0
    useful = 0.0
    for file_name, located in grouped.items():
        db = federation.database(file_name)
        total += db.size
        useful += sum(located)
    return StrategyCost(bytes_moved=total, useful_bytes=useful,
                        files_moved=len(grouped))


def object_replication_cost(
    federation: Federation,
    selected_oids: Sequence[OID],
    objects_per_new_file: int = 1000,
) -> StrategyCost:
    """Ship freshly written files holding exactly the selected objects."""
    sizes = federation.sizes_at(location(oid) for oid in selected_oids)
    return _object_cost(sizes, objects_per_new_file)


def _object_cost(sizes: Sequence[float], objects_per_new_file: int) -> StrategyCost:
    """``sizes`` is the size of each selected object, in order."""
    useful = sum(sizes)
    n_files = max(1, math.ceil(len(sizes) / objects_per_new_file))
    return StrategyCost(
        bytes_moved=useful + n_files * FILE_HEADER_SIZE,
        useful_bytes=useful,
        files_moved=n_files,
    )


def probability_file_majority_selected(
    objects_per_file: int,
    selection_fraction: float,
    threshold: float = 0.5,
) -> float:
    """P(an existing file has more than ``threshold`` of its objects
    selected), for an unbiased random selection: the binomial survival
    function P(X > threshold·n) with X ~ Binom(n, f).

    The terms ``C(n, k) f^k (1-f)^(n-k)`` are summed in 40-digit decimal
    arithmetic, whose exponent range holds the 10⁻¹⁰⁰⁰-sized terms of a
    sparse selection.  ``f`` and ``1-f`` enter as exact ratios of the
    float ``f``, so the sum carries ~35 correct digits and its float is
    the exact tail's, rounded."""
    if objects_per_file <= 0:
        raise ValueError("objects_per_file must be positive")
    if not 0 <= selection_fraction <= 1:
        raise ValueError("selection_fraction must be in [0, 1]")
    n = objects_per_file
    first = max(math.floor(threshold * n) + 1, 0)  # smallest k counted
    if first > n:
        return 0.0
    p, d = float(selection_fraction).as_integer_ratio()  # f = p/d, 1-f = q/d
    q = d - p
    if p == 0 or q == 0:  # X is 0, or n, for certain
        return float(q == 0 or first == 0)
    with decimal.localcontext() as context:
        context.prec = 40
        term = (
            (decimal.Decimal(p) / d) ** first
            * (decimal.Decimal(q) / d) ** (n - first)
            * math.comb(n, first)
        )
        total = term
        for k in range(first, n):
            term = term * ((n - k) * p) / ((k + 1) * q)
            total += term
    return float(total)


@dataclass(frozen=True)
class ReplicationComparison:
    """Side-by-side result of the two strategies for one selection."""

    selection_fraction: float
    selected_objects: int
    file_strategy: StrategyCost
    object_strategy: StrategyCost
    majority_probability: float

    @property
    def winner(self) -> str:
        return (
            "object"
            if self.object_strategy.bytes_moved < self.file_strategy.bytes_moved
            else "file"
        )

    @property
    def ratio(self) -> float:
        """file bytes / object bytes — how much object replication saves."""
        if self.object_strategy.bytes_moved == 0:
            return float("inf")
        return self.file_strategy.bytes_moved / self.object_strategy.bytes_moved


def compare_replication_strategies(
    federation: Federation,
    catalog: EventCatalog,
    selected_events: Sequence[int],
    type_name: str,
    objects_per_new_file: int = 1000,
) -> ReplicationComparison:
    """Run the full §5.1 comparison for one selection."""
    selected = catalog.locations_for(selected_events, type_name)
    sizes = federation.sizes_at(selected)
    n_events = catalog.event_count
    fraction = len(selected_events) / n_events if n_events else 0.0
    per_file = catalog.objects_per_file(type_name)
    typical_file_objects = (
        round(sum(per_file.values()) / len(per_file)) if per_file else 1
    )
    return ReplicationComparison(
        selection_fraction=fraction,
        selected_objects=len(selected),
        file_strategy=_file_cost(federation, catalog, selected, sizes),
        object_strategy=_object_cost(sizes, objects_per_new_file),
        majority_probability=probability_file_majority_selected(
            typical_file_objects, fraction
        ),
    )
