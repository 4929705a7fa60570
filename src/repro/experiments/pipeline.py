"""EXP-OBJ2: §5.2 — "Object copying and file transport operations are
pipelined to achieve a better response time and greater efficiency."

The experiment runs the same object replication cycle with pipelining on
and off, with a deliberately slow copier so the overlap is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import print_table
from repro.gdmp import DataGrid, GdmpConfig
from repro.objectdb import EventStoreBuilder, ObjectTypeSpec
from repro.objectrep import CopyCostModel, GlobalObjectIndex, ObjectReplicator

__all__ = ["PipelineResult", "run", "report"]


@dataclass(frozen=True)
class PipelineResult:
    objects: int
    chunks: int
    sequential_time: float
    pipelined_time: float

    @property
    def speedup(self) -> float:
        return self.sequential_time / self.pipelined_time


def _cycle(pipelined: bool, n_objects: int, chunk: int, seed: int) -> float:
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")], seed=seed)
    cern = grid.site("cern")
    catalog = EventStoreBuilder(seed=seed).build(
        cern.federation,
        n_events=n_objects,
        types=(ObjectTypeSpec("aod", 10_000.0),),
        events_per_file=chunk,
    )
    index = GlobalObjectIndex()
    for name in cern.federation.database_names:
        index.record_file("cern", cern.federation.database(name))
    # a copier slow enough (~1.2 MB/s) to be comparable to the WAN rate,
    # the §5.3 co-located-server regime where pipelining matters most
    slow_copier = CopyCostModel(
        disk_read_rate=4e6, disk_write_rate=4e6, cpu_rate=4e6,
        per_object_overhead=1e-4,
    )
    replicator = ObjectReplicator(grid, "anl", index, cost_model=slow_copier)
    keys = [f"{e}/aod" for e in catalog.event_numbers]
    report_ = grid.run(
        until=replicator.replicate_objects(
            keys, chunk_objects=chunk, pipelined=pipelined
        )
    )
    return report_.duration


def run(n_objects: int = 2000, chunk: int = 250, seed: int = 7) -> PipelineResult:
    """Time the same cycle with pipelining off and on."""
    return PipelineResult(
        objects=n_objects,
        chunks=-(-n_objects // chunk),
        sequential_time=_cycle(False, n_objects, chunk, seed),
        pipelined_time=_cycle(True, n_objects, chunk, seed),
    )


def report(result: PipelineResult) -> None:
    """Print both completion times and the speedup."""
    print_table(
        ["mode", "completion time (s)"],
        [
            ["sequential (copy, then send, repeat)", result.sequential_time],
            ["pipelined (copy k+1 during send of k)", result.pipelined_time],
        ],
        f"EXP-OBJ2 — §5.2 pipelining, {result.objects} objects in "
        f"{result.chunks} chunks",
    )
    print(f"speedup from pipelining: {result.speedup:.2f}x")
    print()
