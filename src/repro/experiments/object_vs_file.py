"""EXP-OBJ1: the §5.1 analysis — bytes shipped by file vs object
replication as the selection gets sparser, and the probability that an
existing file is majority-selected.

The paper's worked example (scaled): selecting a sparse subset of 10 KB
"type X" objects, file replication must ship nearly the whole store while
object replication ships only the selected bytes; the strategies cross
over only when the selection becomes dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import print_table
from repro.objectdb import EventStoreBuilder, Federation, ObjectTypeSpec
from repro.objectrep import compare_replication_strategies, select_events

__all__ = ["ObjectVsFile", "run", "report"]

SELECTION_FRACTIONS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.3, 0.6, 0.9, 1.0)


@dataclass(frozen=True)
class ObjectVsFile:
    n_events: int
    events_per_file: int
    object_size: float
    comparisons: list  # ReplicationComparison per fraction

    @property
    def crossover_fraction(self) -> float:
        """First swept fraction at which file replication stops losing."""
        for comparison in self.comparisons:
            if comparison.winner == "file":
                return comparison.selection_fraction
        return 1.0


def run(
    n_events: int = 100_000,
    events_per_file: int = 1000,
    object_size: float = 10_000.0,
    fractions=SELECTION_FRACTIONS,
    seed: int = 42,
) -> ObjectVsFile:
    """Sweep selection fractions and compare both strategies' shipped bytes."""
    federation = Federation("cms", site="cern")
    types = (ObjectTypeSpec("aod", object_size),)
    catalog = EventStoreBuilder(seed=seed).build(
        federation, n_events=n_events, types=types,
        events_per_file=events_per_file,
    )
    # Selections are drawn from one shared generator: each draw consumes
    # the stream, so the draw order (and thus every selection) is part of
    # the experiment's determinism contract.
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    events = np.asarray(catalog.event_numbers)
    comparisons = [
        compare_replication_strategies(
            federation, catalog, select_events(events, fraction, rng), "aod",
            objects_per_new_file=events_per_file,
        )
        for fraction in fractions
    ]
    return ObjectVsFile(
        n_events=n_events,
        events_per_file=events_per_file,
        object_size=object_size,
        comparisons=comparisons,
    )


def report(result: ObjectVsFile) -> None:
    """Print the per-fraction comparison table and crossover."""
    rows = []
    for c in result.comparisons:
        rows.append(
            [
                f"{c.selection_fraction:.4f}",
                c.selected_objects,
                c.file_strategy.bytes_moved / 1e6,
                c.object_strategy.bytes_moved / 1e6,
                f"{c.ratio:.1f}x",
                f"{c.majority_probability:.2e}",
                c.winner,
            ]
        )
    print_table(
        [
            "selection",
            "objects",
            "file repl (MB)",
            "object repl (MB)",
            "file/object",
            "P(majority)",
            "winner",
        ],
        rows,
        f"EXP-OBJ1 — §5.1 file vs object replication "
        f"({result.n_events} events x {result.object_size / 1000:.0f} KB "
        f"objects, {result.events_per_file}/file)",
    )
    print(f"crossover: file replication competitive from selection fraction "
          f"~{result.crossover_fraction}")
    print()
