"""Assembly of the Replica Location Service inside a `DataGrid`.

:class:`RlsConfig` is the opt-in knob (``DataGrid(..., rls=RlsConfig())``)
and :class:`RlsRuntime` is the plane the grid builds from it: one Local
Replica Catalog per site (an indexed `GdmpCatalog` behind the site's own
``catalog.*`` endpoint), the `RliService` on the index host, one
soft-state digest pusher per site, the per-site
:class:`~repro.rls.router.RlsCatalogProxy` routers the clients use, and
the plane's own gauges.

The runtime also carries the *ground truth* helpers experiments verify
against — with no central catalog, "what does the grid hold?" is the
union over the per-site LRC backends, read directly in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List

from ..catalog.gdmp_catalog import GdmpCatalog
from ..gdmp.replica_service import ReplicaCatalogService
from ..services.softstate import PushNames, PushPlane, SoftStatePusher
from .digest import (
    DigestConfig,
    DigestSource,
    ReplicaLocationIndex,
    digest_wire_size,
)
from .rli import RliService
from .router import RlsCatalogProxy

__all__ = ["RlsConfig", "RlsRuntime"]

_PUSH_NAMES = PushNames(
    process="rls-digest-pusher",
    shutdown="rls-shutdown",
    pushes="rls.digest.pushes",
    label="kind",
    bytes="rls.digest.bytes",
)


@dataclass(frozen=True)
class RlsConfig:
    """Opt-in configuration for the two-tier replica location service."""

    #: digest cadence and bloom sizing (shared by every site)
    digest: DigestConfig = field(default_factory=DigestConfig)
    #: deadline on RLI lookups and LRC probes — a black-holed endpoint
    #: costs a timeout and a fallback, never a hung lookup
    lookup_timeout: float = 30.0


class RlsRuntime(PushPlane):
    """The RLS plane of one grid: built from the grid's sites, started
    and stopped by the experiment that opts in.  Each digest pusher
    acknowledges its :class:`DigestSource` only when the index replied,
    so a lost digest is folded into the next one.
    """

    def __init__(self, grid, config: RlsConfig) -> None:
        super().__init__()
        self.config = config
        self.sim = grid.sim
        #: the index lives where the central catalog would: on the
        #: grid's catalog host
        self.rli_host = grid.catalog_host
        self.metrics = grid.metrics
        self.rli_service = RliService(
            grid.sites[self.rli_host].request_server,
            ReplicaLocationIndex(grid.sites),
            metrics=grid.metrics,
        )
        #: site name -> host of that site's LRC (site == host in DataGrid)
        self.lrc_hosts = {name: name for name in grid.sites}
        #: site name -> that site's LRC backend (GdmpCatalog)
        self.backends: Dict[str, GdmpCatalog] = {}
        #: site name -> that site's ReplicaCatalogService
        self.services: Dict[str, ReplicaCatalogService] = {}
        self.sources: Dict[str, DigestSource] = {}
        period = config.digest.period
        for i, (name, site) in enumerate(grid.sites.items()):
            backend = GdmpCatalog(lfn_stem=f"{name}.file")
            service = ReplicaCatalogService(
                site.request_server, backend, metrics=grid.metrics
            )
            source = DigestSource(name, backend.list_lfns, config.digest)
            service.write_listeners.append(source.on_write)
            self.backends[name] = backend
            self.services[name] = service
            self.sources[name] = source
            self.pushers[name] = SoftStatePusher(
                site.request_client,
                _PUSH_NAMES,
                site=name,
                target_host=self.rli_host,
                operation="rli.push_digest",
                period=period,
                build=source.next_digest,
                wire_size=digest_wire_size,
                on_ack=source.ack,
                kinds=("full", "delta"),
                kind_of=itemgetter("kind"),
                phase=self.stagger(i, len(grid.sites), period),
                metrics=grid.metrics,
            )
        grid.metrics.add_collector(self._collect)

    @property
    def index(self) -> ReplicaLocationIndex:
        return self.rli_service.index

    def catalog_proxy(self, site) -> RlsCatalogProxy:
        """The two-tier router one site's client uses as its catalog."""
        return RlsCatalogProxy(
            site.request_client,
            site.name,
            self.rli_host,
            self.lrc_hosts,
            lookup_timeout=self.config.lookup_timeout,
            metrics=self.metrics,
        )

    # -- telemetry ---------------------------------------------------------

    def _collect(self, registry) -> None:
        """Scrape LRC, index and pusher state into gauges at export time."""
        for name, backend in self.backends.items():
            directory = backend.catalog.directory
            for key, value in sorted(directory.stats.items()):
                registry.gauge("catalog.ldap." + key, site=name).set(value)
        index = self.index
        for key, value in sorted(index.stats.items()):
            registry.gauge("rls.rli." + key).set(value)
        for site, state in index.states.items():
            registry.gauge("rls.rli.generation", site=site).set(
                state.generation
            )
            registry.gauge("rls.rli.entry_count", site=site).set(
                state.entry_count
            )
            if state.bloom is not None:
                registry.gauge("rls.rli.bloom_bytes", site=site).set(
                    state.bloom.size_bytes
                )
        for site, staleness in index.staleness(self.sim.now).items():
            registry.gauge("rls.rli.staleness_seconds", site=site).set(
                staleness
            )
        for site, pusher in self.pushers.items():
            for key, value in sorted(pusher.stats.items()):
                registry.gauge(f"rls.pusher.{key}", site=site).set(value)

    # -- ground truth (direct memory reads for experiment verification) ----

    def holders(self, lfn: str) -> List[str]:
        """Sites whose LRC records a replica of ``lfn`` (the union the
        index approximates)."""
        return [
            site
            for site, backend in self.backends.items()
            if backend.lfn_exists(lfn)
        ]

    def all_lfns(self) -> List[str]:
        names: set[str] = set()
        for backend in self.backends.values():
            names.update(backend.list_lfns())
        return sorted(names)

    def fingerprint(self) -> str:
        """Deterministic digest of index state + push accounting."""
        return self.index.fingerprint() + "##" + self.push_fingerprint()
