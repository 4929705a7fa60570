"""EXP-OBJ1b: object placement ablation (§5.1).

"A smart initial placement of similar objects together in the same files
can raise the probability, but not by very much.  Furthermore, the
activities of other users are unlikely to create just the right files, as
the physicist just selected objects related to a completely fresh event
set which nobody else has worked on yet."

Four combinations of placement x selection show when clustering helps file
replication and when it cannot: sequential placement rescues a *contiguous*
selection (an old run range), but for a fresh random selection — the
late-analysis regime of §5.1 — placement is irrelevant and object
replication remains the only efficient option.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import print_table
from repro.objectdb import EventStoreBuilder, Federation, ObjectTypeSpec
from repro.objectrep import file_replication_cost, object_replication_cost

__all__ = ["ClusteringAblation", "run", "report"]


@dataclass(frozen=True)
class Case:
    placement: str
    selection: str
    bytes_moved: float
    efficiency: float
    files_moved: int


@dataclass(frozen=True)
class ClusteringAblation:
    n_events: int
    fraction: float
    object_bytes: float          # what object replication ships regardless
    cases: tuple[Case, ...]

    def case(self, placement: str, selection: str) -> Case:
        """The measured case for one (placement, selection) pair."""
        for c in self.cases:
            if c.placement == placement and c.selection == selection:
                return c
        raise KeyError((placement, selection))


def _build(placement: str, n_events: int, events_per_file: int, seed: int):
    federation = Federation("cms", site="cern")
    catalog = EventStoreBuilder(seed=seed).build(
        federation,
        n_events=n_events,
        types=(ObjectTypeSpec("aod", 10_000.0),),
        events_per_file=events_per_file,
        placement=placement,
    )
    return federation, catalog


def run(
    n_events: int = 20_000,
    events_per_file: int = 500,
    fraction: float = 0.02,
    seed: int = 13,
) -> ClusteringAblation:
    """Measure all placement x selection combinations; returns the ablation result."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = max(1, int(n_events * fraction))
    selections = {
        # an old, placement-correlated slice: the first k event numbers
        "contiguous": list(range(k)),
        # a completely fresh event set (§5.1): uniform random
        "random": sorted(rng.choice(n_events, size=k, replace=False).tolist()),
    }
    cases = []
    object_bytes = None
    for placement in ("sequential", "random"):
        federation, catalog = _build(placement, n_events, events_per_file, seed)
        for selection_name, events in selections.items():
            oids = catalog.oids_for(events, "aod")
            cost = file_replication_cost(federation, catalog, oids)
            cases.append(
                Case(
                    placement=placement,
                    selection=selection_name,
                    bytes_moved=cost.bytes_moved,
                    efficiency=cost.efficiency,
                    files_moved=cost.files_moved,
                )
            )
            if object_bytes is None:
                object_bytes = object_replication_cost(
                    federation, oids, events_per_file
                ).bytes_moved
    return ClusteringAblation(
        n_events=n_events,
        fraction=fraction,
        object_bytes=object_bytes,
        cases=tuple(cases),
    )


def report(result: ClusteringAblation) -> None:
    """Print the paper-style table for the ablation."""
    rows = [
        [
            c.placement,
            c.selection,
            c.files_moved,
            c.bytes_moved / 1e6,
            f"{c.efficiency:.1%}",
        ]
        for c in result.cases
    ]
    print_table(
        ["placement", "selection", "files", "file repl (MB)", "useful"],
        rows,
        f"EXP-OBJ1b — placement x selection at {result.fraction:.0%} "
        f"selection of {result.n_events} events",
    )
    print(
        f"object replication ships {result.object_bytes / 1e6:.1f} MB in every "
        "case — placement only rescues file replication when the selection "
        "correlates with it"
    )
    print()
