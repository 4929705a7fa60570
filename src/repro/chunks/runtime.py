"""Grid-level assembly of the chunked-transfer stack.

:class:`ChunkRuntime` wires, onto an existing
:class:`~repro.gdmp.grid.DataGrid`:

* the :class:`~repro.chunks.directory.ChunkDirectoryService` on the
  directory host (default: the catalog host), with the exactly-once
  manifest-registration hook into the replica catalog when the grid
  runs a central catalog backend;
* one :class:`~repro.chunks.store.ChunkStoreClient` per site (each with
  its own directory proxy and, when the grid weather
  service is up, that site's forecast cache for transfer-time-aware
  chunk ordering);
* a dedicated :class:`~repro.workload.queue.TaskQueueService` for the
  ``scrub``/``repair`` lanes on the directory host — the scrub fleet is
  its own workload, not a tenant of a replication pipeline's queue;
* the :class:`~repro.chunks.scrub.ScrubPlanner` plus one scrubber and
  one repairer per scrub site; and
* the ``chunks.repair_backlog`` / ``chunks.scrub_backlog`` gauges, and
  the scrub/repair section of the health report.

Standing processes are spawned by :meth:`start`, never the constructor,
so fault-free event schedules stay untouched until an experiment opts
in.  :meth:`run_scrub_pass` drives the audit: one planned pass, then
wait for the queue to drain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chunks.directory import (
    ChunkDirectory,
    ChunkDirectoryProxy,
    ChunkDirectoryService,
)
from repro.chunks.manifest import Manifest
from repro.chunks.scrub import Repairer, Scrubber, ScrubPlanner
from repro.chunks.store import ChunkStoreClient
from repro.simulation.kernel import Process
from repro.storage.integrity import file_crc
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry, Section
from repro.telemetry.report import fmt, labels_text, table
from repro.workload.queue import TaskQueueProxy, TaskQueueService

__all__ = ["ChunkConfig", "ChunkRuntime", "SCRUB_SECTION"]

#: the probe outcomes, repair work and backlogs of the scrub fleet
_SCRUB_FAMILIES = ("chunks.scrub", "chunks.repair")


def _scrub_section(registry: MetricsRegistry, top_n: int) -> list[str]:
    """The scrub/repair table: probe outcomes, repair work, and the
    backlog gauges an operator watches for a repair loop falling
    behind its damage rate."""
    rows = []
    for name in registry.families():
        if name.startswith(_SCRUB_FAMILIES):
            for child in registry.children(name):
                rows.append((name, labels_text(child.labels),
                             fmt(child.value)))
    if not rows:
        return []
    lines = ["", "-- scrub/repair --"]
    lines.extend(table(("metric", "labels", "value"), rows))
    backlog = (
        registry.value("chunks.scrub_backlog")
        + registry.value("chunks.repair_backlog")
    )
    if backlog:
        lines.append(
            f"!! scrub/repair backlog: {fmt(backlog)} tasks outstanding"
        )
    return lines


#: the chunk plane's part of the health report
SCRUB_SECTION = Section(_SCRUB_FAMILIES, _scrub_section)


@dataclass
class ChunkConfig:
    """Shape and operation of the chunk stack on one grid."""

    k: int = 4
    m: int = 2
    #: sites eligible to hold chunk replicas (default: every site);
    #: must be at least k+m wide for site-disjoint stripes
    placement_sites: Optional[list[str]] = None
    #: sites running a scrubber + repairer pair (default: directory host)
    scrub_sites: Optional[list[str]] = None
    #: where the directory + scrub queue live (default: catalog host)
    directory_host: Optional[str] = None
    #: a scrub worker's back-off after its queue could not be reached
    #: (an idle one waits at the queue, it does not poll)
    poll: float = 5.0
    lease: float = 120.0


class ChunkRuntime:
    """The chunk subsystem of one grid."""

    def __init__(self, grid, config: Optional[ChunkConfig] = None):
        self.grid = grid
        self.config = config or ChunkConfig()
        config = self.config
        self.directory_host = config.directory_host or grid.catalog_host
        if self.directory_host not in grid.sites:
            raise ValueError(
                f"directory host {self.directory_host!r} is not a site"
            )
        placement = sorted(config.placement_sites or grid.sites)
        for name in placement:
            if name not in grid.sites:
                raise ValueError(f"placement site {name!r} is not a site")
        register = None
        if grid.catalog_backend is not None:
            register = self._register_manifest
        self.directory = ChunkDirectory(
            placement, salt=grid.engine_seed, register=register
        )
        host_site = grid.sites[self.directory_host]
        self.service = ChunkDirectoryService(
            host_site.request_server, self.directory, metrics=grid.metrics
        )
        #: the scrub fleet's own queue (``scrub``/``repair`` lanes)
        self.queue_service = TaskQueueService(
            host_site.request_server,
            metrics=NO_METRICS,  # workload gauges belong to the pipeline queue
            default_lease=config.lease,
        )
        self.stores: dict[str, ChunkStoreClient] = {}
        for name in sorted(grid.sites):
            site = grid.sites[name]
            proxy = ChunkDirectoryProxy(
                site.request_client, self.directory_host
            )
            weather = None
            if grid.weather is not None:
                weather = grid.weather.site_weather.get(name)
            self.stores[name] = ChunkStoreClient(
                site, proxy, grid.topology,
                metrics=grid.metrics, weather=weather,
            )
        scrub_sites = sorted(config.scrub_sites or [self.directory_host])
        for name in scrub_sites:
            if name not in grid.sites:
                raise ValueError(f"scrub site {name!r} is not a site")
        self.scrub_sites = scrub_sites
        self.scrubbers: list[Scrubber] = []
        self.repairers: list[Repairer] = []
        for name in scrub_sites:
            site = grid.sites[name]
            qproxy = TaskQueueProxy(site.request_client, self.directory_host)
            self.scrubbers.append(Scrubber(
                grid.sim, qproxy, site, self.stores[name],
                poll=config.poll, lease=config.lease, metrics=grid.metrics,
            ))
            self.repairers.append(Repairer(
                grid.sim, qproxy, site, self.stores[name],
                poll=config.poll, lease=config.lease, metrics=grid.metrics,
            ))
        planner_site = grid.sites[self.directory_host]
        self.planner = ScrubPlanner(
            ChunkDirectoryProxy(
                planner_site.request_client, self.directory_host
            ),
            TaskQueueProxy(planner_site.request_client, self.directory_host),
            scrub_sites,
            metrics=grid.metrics,
        )
        self.started = False
        grid.metrics.add_collector(self._collect)
        grid.metrics.add_section(SCRUB_SECTION)

    # -- catalog integration -------------------------------------------------
    def _register_manifest(self, manifest: Manifest) -> None:
        """Exactly-once manifest record in the replica catalog.  Rides
        the idempotent ``adopt`` path under the reserved ``manifest:``
        LFN namespace, so a replayed commit can never double-register."""
        self.grid.catalog_backend.adopt(
            f"manifest:{manifest.object}",
            self.directory_host,
            size=manifest.size,
            modified=self.grid.sim.now,
            crc=file_crc(manifest.fingerprint),
            attributes={
                "kind": "chunk-manifest",
                "k": str(manifest.k),
                "m": str(manifest.m),
                "fingerprint": manifest.fingerprint,
                "chunks": str(len(manifest.chunks)),
            },
        )

    # -- telemetry -----------------------------------------------------------
    def _collect(self, registry) -> None:
        backlog = {"scrub": 0, "repair": 0}
        for task, state in self.queue_service.queue.observed_states():
            if task.type in backlog and state in ("pending", "claimed"):
                backlog[task.type] += 1
        registry.gauge("chunks.repair_backlog").set(backlog["repair"])
        registry.gauge("chunks.scrub_backlog").set(backlog["scrub"])

    # -- operation -----------------------------------------------------------
    def store(self, site: str) -> ChunkStoreClient:
        return self.stores[site]

    def start(self) -> None:
        """Opt in: spawn the scrub/repair claim loops."""
        if self.started:
            return
        self.started = True
        for component in [*self.scrubbers, *self.repairers]:
            component.start()

    def run_scrub_pass(self, poll: float = 5.0,
                       timeout: float = 100_000.0) -> Process:
        """One driven audit pass: plan, then wait until the scrub queue
        is fully drained (every scrub and repair task terminal)."""
        if not self.started:
            self.start()

        def run():
            submitted = yield from self.planner.run_pass()
            started = self.grid.sim.now
            while not self.queue_service.queue.terminal():
                if self.grid.sim.now - started > timeout:
                    raise RuntimeError("scrub pass did not drain")
                yield self.grid.sim.timeout(poll)
            return submitted

        return self.grid.sim.spawn(run(), name="chunk-scrub-drive")

    def fingerprint(self) -> str:
        """Directory + scrub-queue state, canonical text."""
        return (
            self.directory.fingerprint()
            + "\n"
            + self.queue_service.queue.fingerprint()
        )
