"""Analysis workload: a physicist's selection funnel plus object movement.

The §5.1 scenario end-to-end: run an :class:`AnalysisChain` over the event
store, object-replicate the surviving events' objects of the target type to
the physicist's home site, and read them there — reporting what moved, how
long it took, and what file replication would have shipped instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gdmp.grid import DataGrid
from repro.objectdb.events import EventCatalog
from repro.objectdb.persistency import ObjectReader
from repro.objectrep.analysis import compare_replication_strategies
from repro.objectrep.index import GlobalObjectIndex
from repro.objectrep.replicator import ObjectReplicator
from repro.objectrep.selection import AnalysisChain
from repro.simulation.kernel import Process

__all__ = ["AnalysisSessionReport", "AnalysisSession"]


@dataclass(frozen=True)
class AnalysisSessionReport:
    """What one analysis session did and cost."""

    home_site: str
    surviving_events: int
    objects_moved: int
    wire_bytes: float
    file_replication_bytes: float   # the §5.1 counterfactual
    duration: float
    pages_read_locally: int

    @property
    def saving(self) -> float:
        """file-replication bytes / object-replication bytes."""
        return (
            self.file_replication_bytes / self.wire_bytes
            if self.wire_bytes
            else float("inf")
        )


class AnalysisSession:
    """One physicist, one funnel, one object replication cycle."""

    def __init__(
        self,
        grid: DataGrid,
        home_site: str,
        store_site: str,
        catalog: EventCatalog,
        index: GlobalObjectIndex,
        chain: AnalysisChain | None = None,
        target_type: str = "aod",
        tags=None,
        cuts=None,
    ):
        self.grid = grid
        self.home = grid.site(home_site)
        self.store = grid.site(store_site)
        self.catalog = catalog
        self.index = index
        self.chain = chain or AnalysisChain()
        self.target_type = target_type
        #: optional physics selection: a TagDatabase plus cut strings; when
        #: given, the funnel is tag cuts instead of the random chain
        self.tags = tags
        self.cuts = cuts

    def _select(self) -> list[int]:
        events = self.catalog.event_numbers
        if self.tags is not None and self.cuts:
            passing = set(self.tags.select(self.cuts))
            return [e for e in events if e in passing]
        return self.chain.survivors(events)

    def start(self, chunk_objects: int = 500) -> Process:
        """Run the session; returns an AnalysisSessionReport."""
        sim = self.grid.sim

        def run():
            started = sim.now
            survivors = self._select()
            comparison = compare_replication_strategies(
                self.store.federation, self.catalog, survivors, self.target_type
            )
            keys = [f"{event}/{self.target_type}" for event in survivors]
            replicator = ObjectReplicator(self.grid, self.home.name, self.index)
            report = yield replicator.replicate_objects(
                keys, chunk_objects=chunk_objects, pipelined=True
            )
            # the physicist now reads every replicated object locally
            reader = ObjectReader(self.home.federation)
            for key in keys:
                obj = self.home.federation.find_by_key(key)
                reader.read(obj.oid)
            return AnalysisSessionReport(
                home_site=self.home.name,
                surviving_events=len(survivors),
                objects_moved=report.objects_moved,
                wire_bytes=report.wire_bytes,
                file_replication_bytes=comparison.file_strategy.bytes_moved,
                duration=sim.now - started,
                pages_read_locally=reader.page_reads,
            )

        return sim.spawn(run(), name=f"analysis@{self.home.name}")
