"""Grid assembly: sites, security fabric, services, wiring.

:class:`DataGrid` builds the Figure 3 picture — N sites, each running a
GDMP server with its client commands, a GridFTP daemon, a disk pool
(optionally backed by an MSS), and an Objectivity federation — over one
simulated WAN (full mesh of identical links with the §6 testbed's
characteristics) with a single central replica catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.catalog.gdmp_catalog import GdmpCatalog, LogicalFileInfo
from repro.gdmp.client import GdmpClient
from repro.gdmp.config import GdmpConfig
from repro.gdmp.data_mover import DataMover
from repro.gdmp.plugins import PluginRegistry
from repro.gdmp.replica_service import CatalogProxy, ReplicaCatalogService
from repro.gdmp.request_manager import RequestClient, RequestServer
from repro.gdmp.server import GdmpServer
from repro.gdmp.storage_manager import StorageManager
from repro.gridftp.client import GridFTPClient
from repro.gridftp.server import GridFTPServer
from repro.netsim.calibration import TestbedParams
from repro.netsim.channels import MessageNetwork
from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import mbps
from repro.objectdb.federation import Federation
from repro.observatory.service import WeatherRuntime
from repro.observatory.station import WeatherConfig
from repro.rls.runtime import RlsConfig, RlsRuntime
from repro.security.ca import CertificateAuthority
from repro.security.credentials import new_user_credential
from repro.security.gridmap import GridMap
from repro.services.resilience import (
    IDLE_TIMEOUT,
    CircuitBreakerMiddleware,
    ResilienceConfig,
    RetryMiddleware,
)
from repro.services.tracelog import TraceLog
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import RandomStreams
from repro.storage.diskpool import DiskPool
from repro.storage.filesystem import FileSystem, StoredFile
from repro.storage.mss import MassStorageSystem
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["GdmpSite", "DataGrid", "ReplicaCheck"]

#: every site's disk bandwidth, each way
DISK_RATE = mbps(400)


class ReplicaCheck(NamedTuple):
    """Whether a site holds a replica, against the catalog's record."""

    #: the site's bytes for the name; None when it holds none
    stored: Optional[StoredFile]
    #: their size and CRC equal the record's
    intact: bool
    #: how many of the record's locations name the site
    entries: int


@dataclass
class GdmpSite:
    """Everything GDMP runs at one site."""

    name: str
    sim: Simulator
    config: GdmpConfig
    host: Host
    fs: FileSystem
    pool: DiskPool
    mss: Optional[MassStorageSystem]
    federation: Federation
    credential: object
    gridftp_server: GridFTPServer
    gridftp_client: GridFTPClient
    request_server: RequestServer
    request_client: RequestClient
    storage: StorageManager
    mover: DataMover
    server: GdmpServer
    client: GdmpClient = field(default=None)

    # Convenience pass-throughs used by plugins and workloads.
    def storage_path(self, lfn: str) -> str:
        """The site-local path an LFN is stored under."""
        return self.config.storage_path(lfn)

    def check_replica(
        self, lfn: str, info: Optional[LogicalFileInfo]
    ) -> ReplicaCheck:
        """Whether this site holds ``lfn``: its bytes on disk, checked
        against ``info``, the catalog's record (None when the catalog
        does not know the name)."""
        path = self.server.held.get(lfn)
        if path is None or not self.fs.exists(path):
            return ReplicaCheck(None, False, 0)
        stored = self.fs.stat(path)
        if info is None:
            return ReplicaCheck(stored, False, 0)
        return ReplicaCheck(
            stored,
            stored.crc == info.crc and stored.size == info.size,
            sum(loc.get("location") == self.name for loc in info.locations),
        )


class DataGrid:
    """A complete simulated data grid."""

    def __init__(
        self,
        site_configs: Optional[list[GdmpConfig]] = None,
        catalog_host: Optional[str] = None,
        params: Optional[TestbedParams] = None,
        seed: int = 2001,
        metrics: bool = True,
        rls: Optional[RlsConfig] = None,
        weather: Optional[WeatherConfig] = None,
        wan_links: Optional[list] = None,
    ):
        if site_configs is None:
            site_configs = [GdmpConfig("cern"), GdmpConfig("anl")]
        if len(site_configs) < 2:
            raise ValueError("a data grid needs at least two sites")
        names = [c.site for c in site_configs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate site names")
        self.params = params or TestbedParams(seed=seed)
        self.catalog_host = catalog_host or names[0]
        if self.catalog_host not in names:
            raise ValueError(f"catalog host {self.catalog_host!r} is not a site")

        self.sim = Simulator()
        self.tracelog = TraceLog(self.sim)
        #: the grid-wide labelled-metrics registry (one that records
        #: nothing when disabled).  Instrumentation throughout the stack
        #: is purely observational — it draws no random numbers and
        #: schedules no events — so the simulated outcome is bit-identical
        #: whether or not it records.
        self.metrics = (
            MetricsRegistry(self.sim) if metrics
            else MetricsRegistry.off(self.sim)
        )
        self.topology = Topology()
        self.engine_seed = seed
        self.ca = CertificateAuthority()
        self.gridmap = GridMap()
        self.sites: dict[str, GdmpSite] = {}

        for name in names:
            self.topology.add_host(Host(name))
        if wan_links is None:
            # full mesh of identical WAN links (§6 testbed characteristics)
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    self.topology.connect(
                        a,
                        b,
                        Link(
                            name=f"wan-{a}-{b}",
                            capacity=mbps(self.params.capacity_mbps),
                            delay=self.params.rtt / 2.0,
                            queue_capacity=self.params.queue_capacity,
                            cross_traffic=mbps(self.params.cross_traffic_mbps),
                            loss_rate=self.params.loss_rate,
                        ),
                    )
        else:
            # explicit topology (tiered T0/T1/T2 trees, asymmetric paths):
            # (site_a, site_b, link) or (site_a, site_b, link, reverse)
            for spec in wan_links:
                a, b, link, *rest = spec
                self.topology.connect(
                    a, b, link, reverse=rest[0] if rest else None
                )
        self.engine = NetworkEngine(
            self.sim, self.topology, seed=seed, metrics=self.metrics
        )
        self.msgnet = MessageNetwork(self.sim, self.topology)

        for config in site_configs:
            self._build_site(config)
        if rls is None:
            # the central catalog lives at catalog_host's request server
            self.catalog_backend = GdmpCatalog()
            self.catalog_service = ReplicaCatalogService(
                self.sites[self.catalog_host].request_server,
                self.catalog_backend,
                metrics=self.metrics,
            )
            #: the assembled RlsRuntime in sharded mode, else None
            self.rls: Optional[RlsRuntime] = None
        else:
            # sharded mode: no central catalog — one LRC per site plus
            # the RLI at (by default) the old catalog host
            self.catalog_backend = None
            self.catalog_service = None
            self.rls = RlsRuntime(self, rls)
        #: the assembled WeatherRuntime when the observatory is on, else None
        self.weather: Optional[WeatherRuntime] = (
            WeatherRuntime(self, weather) if weather is not None else None
        )
        for site in self.sites.values():
            self._finish_site(site)
        #: the active ResilienceConfig once enable_resilience() has run
        self.resilience: Optional[ResilienceConfig] = None
        self.metrics.add_collector(self._collect_passive_state)

    # -- construction ------------------------------------------------------------
    def _build_site(self, config: GdmpConfig) -> None:
        name = config.site
        host = self.topology.host(name)
        credential = new_user_credential(
            self.ca, f"/O=Grid/OU={name}/CN=gdmp/host={name}"
        )
        self.gridmap.add(credential.subject, f"gdmp-{name}")
        fs = FileSystem(
            name,
            capacity=config.disk_capacity,
            read_rate=DISK_RATE,
            write_rate=DISK_RATE,
        )
        pool = DiskPool(fs)
        mss = None
        if config.has_mss:
            mss = MassStorageSystem(self.sim, name, metrics=self.metrics)
        federation = Federation(f"fed-{name}", site=name)
        gridftp_server = GridFTPServer(
            self.sim,
            self.msgnet,
            self.engine,
            host,
            fs,
            credential,
            [self.ca],
            self.gridmap,
            tracelog=self.tracelog,
            metrics=self.metrics,
        )
        gridftp_client = GridFTPClient(
            self.sim, self.msgnet, host, credential, filesystem=fs,
            tracelog=self.tracelog,
        )
        request_server = RequestServer(
            self.sim, self.msgnet, host, credential, [self.ca], self.gridmap,
            tracelog=self.tracelog, metrics=self.metrics,
        )
        request_client = RequestClient(
            self.sim, self.msgnet, host, credential, tracelog=self.tracelog
        )
        storage = StorageManager(self.sim, pool, mss)
        mover = DataMover(
            self.sim,
            gridftp_client,
            fs,
            metrics=self.metrics,
            site=name,
        )
        server = GdmpServer(self.sim, name, request_server, storage)
        self.sites[name] = GdmpSite(
            name=name,
            sim=self.sim,
            config=config,
            host=host,
            fs=fs,
            pool=pool,
            mss=mss,
            federation=federation,
            credential=credential,
            gridftp_server=gridftp_server,
            gridftp_client=gridftp_client,
            request_server=request_server,
            request_client=request_client,
            storage=storage,
            mover=mover,
            server=server,
        )

    def _finish_site(self, site: GdmpSite) -> None:
        if self.rls is not None:
            catalog_proxy = self.rls.catalog_proxy(site)
        else:
            catalog_proxy = CatalogProxy(site.request_client, self.catalog_host)
        site.client = GdmpClient(
            self.sim,
            site.name,
            site.config,
            self.topology,
            site.request_client,
            catalog_proxy,
            site.storage,
            site.mover,
            site.server,
            plugins=PluginRegistry(),
            site_runtime=site,
            tracelog=self.tracelog,
        )
        if self.weather is not None:
            site.client.weather = self.weather.site_weather[site.name]

    # -- recovery policies ---------------------------------------------------------
    def enable_resilience(
        self, config: Optional[ResilienceConfig] = None
    ) -> ResilienceConfig:
        """Arm the grid's recovery policies (off by default, so a plain
        grid observes failures exactly as an unhardened deployment would
        and baseline outputs stay bit-identical).

        Per site: the request-manager client gets a seeded-jitter
        :class:`RetryMiddleware` over a per-server
        :class:`CircuitBreakerMiddleware`, a default RPC timeout, and
        fail-fast refusal of calls to known-down hosts; the GridFTP client
        gets the same timeout/fail-fast treatment plus an idle timeout on
        transfers — but deliberately *no* retry middleware, because a
        blindly re-issued RETR would bypass restart-marker recovery (the
        data mover owns transfer retries).
        """
        config = config if config is not None else ResilienceConfig()
        self.resilience = config
        streams = RandomStreams(self.engine_seed)
        for name in sorted(self.sites):
            site = self.sites[name]
            rpc = site.request_client
            rpc.default_timeout = config.rpc_timeout
            rpc.fail_fast_when_down = True
            rpc.use_middlewares((
                RetryMiddleware(
                    streams[f"resilience.retry.{name}"], metrics=self.metrics,
                ),
                CircuitBreakerMiddleware(
                    metrics=self.metrics, service=rpc.service,
                ),
            ))
            ftp_bus = site.gridftp_client.bus
            ftp_bus.default_timeout = config.rpc_timeout
            ftp_bus.fail_fast_when_down = True
            site.gridftp_client.idle_timeout = IDLE_TIMEOUT
        return config

    # -- telemetry ---------------------------------------------------------------
    def _collect_passive_state(self, registry: MetricsRegistry) -> None:
        """Scrape passive state into gauges at snapshot/export time.

        The collector pattern keeps the scraped subsystems' hot paths
        uninstrumented: pool occupancy, cache hit counts, and the LDAP
        search-machinery counters are plain attributes read on demand.
        The RLS, weather and chunk planes scrape their own state.
        """
        for name, site in self.sites.items():
            fs = site.fs
            registry.gauge("storage.pool.used_bytes", site=name).set(fs.used)
            registry.gauge(
                "storage.pool.occupancy", site=name
            ).set(fs.used / fs.capacity if fs.capacity else 0.0)
            pool = site.pool
            registry.gauge("storage.pool.hits", site=name).set(pool.hits)
            registry.gauge("storage.pool.misses", site=name).set(pool.misses)
            registry.gauge(
                "storage.pool.evictions", site=name
            ).set(pool.evictions)
            if site.client is not None:
                stats = site.client.catalog.stats
                for key, value in sorted(stats.items()):
                    registry.gauge(
                        f"catalog.proxy.{key}", site=name
                    ).set(value)
        if self.catalog_backend is not None:
            directory = self.catalog_backend.catalog.directory
            for key, value in sorted(directory.stats.items()):
                registry.gauge("catalog.ldap." + key).set(value)

    def health_report(self, top_n: int = 10) -> str:
        """The rendered grid health report (metrics + trace summary)."""
        from repro.telemetry.report import render_health_report

        return render_health_report(
            self.metrics, self.tracelog, top_n=top_n
        )

    def leaks(self) -> list[str]:
        """What a drained grid still holds that nothing will hand back:
        transfer pins, GridFTP sessions (with their parked data channels),
        stagings in flight, reserved pool space.  A worker parked at its
        queue is waiting, not leaking."""
        found: list[str] = []
        for site in self.sites.values():
            found.extend(
                f"{stored.path}: still pinned at {site.name}"
                for stored in site.fs.listing()
                if site.pool.pin_count(stored.path)
            )
            if site.gridftp_server.open_sessions:
                found.append(
                    f"{site.gridftp_server.open_sessions} GridFTP "
                    f"session(s) still open at {site.name}"
                )
            found.extend(
                f"{path}: still staging at {site.name}"
                for path in site.storage.in_flight
            )
            if site.pool.reserved:
                found.append(
                    f"{site.pool.reserved:.0f} bytes still reserved at "
                    f"{site.name}"
                )
        return found

    # -- access --------------------------------------------------------------------
    def site(self, name: str) -> GdmpSite:
        """Look up a site by name."""
        try:
            return self.sites[name]
        except KeyError:
            raise KeyError(f"no site {name!r} in this grid") from None

    def run(self, until=None):
        """Advance the grid's simulator (see Simulator.run)."""
        return self.sim.run(until=until)
