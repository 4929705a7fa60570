"""The five benchmark workloads, built from public constructors only.

Every workload follows one life cycle, driven by ``run.py``:

``setup()``   build the grid and pre-populate it (host time: ``setup_s``);
``run()``     the timed section (host time: ``wall_s``);
``finish()``  check the outputs and read the simulated statistics.

Inputs are drawn from ``RandomStreams(seed)``; nothing below reads the
workload's name, the wall clock or any state outside its own grid, so a
seed fixes every simulated number (``sim_*`` metrics, counts and the
``sim_fingerprint``) exactly.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.chunks import ChunkConfig, ChunkRuntime
from repro.experiments import EXPERIMENTS
from repro.faults import (
    FaultCampaign,
    FaultInjector,
    component_crash_campaign,
    link_flap_campaign,
    rli_blackhole_campaign,
    site_wipe_campaign,
)
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.calibration import TestbedParams
from repro.netsim.link import Link
from repro.netsim.tiered import TieredSpec, tiered_grid_spec
from repro.netsim.units import KiB, MB, mbps
from repro.observatory.station import WeatherConfig
from repro.rls import DigestConfig, RlsConfig
from repro.services.bus import ServiceError
from repro.services.resilience import ResilienceConfig
from repro.simulation.kernel import SimulationError
from repro.simulation.randomness import RandomStreams
from repro.workload import ArrivalProfile, WorkloadEngine
from repro.workload.components import verify_key, xfer_key

__all__ = ["WORKLOADS", "Outcome", "Workload"]

REPO_ROOT = Path(__file__).resolve().parents[2]
RECORDED_FIGURES = REPO_ROOT / "tests/experiments/data/figures_seed2001.json"

#: the eight sites of the two full-mesh catalog workloads
CATALOG_SITES = (
    "cern", "anl", "caltech", "slac", "fnal", "bnl", "ral", "in2p3",
)


@dataclass
class Outcome:
    """What one unit of a workload produced, read after the run."""

    ops: int                          # operations attempted
    latencies: list[float]            # sim-seconds, one per timed op
    makespan: float                   # sim-seconds, first op -> last check
    #: one line per op that failed, was refused, never converged or
    #: whose output check failed
    errors: list[str] = field(default_factory=list)
    #: ``(lfn, destination)`` of each latency, for replicating workloads
    op_keys: list[tuple[str, str]] = field(default_factory=list)
    #: beside each latency of a pipeline-driven op: the sim-seconds the
    #: queue's records show it waiting in lanes and under audit
    queued: list[float] = field(default_factory=list)
    payload_bytes: float = 0.0        # landed on destination disks
    #: simulated statistics only this workload can produce
    extra: dict[str, float] = field(default_factory=dict)
    #: canonical state texts folded into the sim fingerprint
    fingerprints: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.errors)


class Workload:
    """Base life cycle; ``grid`` stays None for workloads without one."""

    name = ""
    loop = ""       # "open" or "closed", with its rate or client count
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.size = self.SIZES["smoke" if smoke else "full"]
        self.streams = RandomStreams(seed)
        self.grid: DataGrid | None = None
        self.engine: WorkloadEngine | None = None   # the task pipeline
        #: orphaned processes that failed with nobody waiting (see drive)
        self.orphan_failures = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def finish(self) -> Outcome:
        raise NotImplementedError

    def drive(self, until):
        """``grid.run(until=...)`` that survives orphaned failures.

        A component crashed by the campaign abandons the stage it was
        waiting on; when that orphan later fails (a partitioned link, a
        black-holed index) nobody observes it and the kernel raises
        ``SimulationError``.  The stage is re-run under a fresh lease, so
        this is not an operation failure: count it and keep going.
        """
        while True:
            try:
                return self.grid.sim.run(until=until)
            except SimulationError as exc:
                if not isinstance(exc.__cause__, ServiceError):
                    raise
                self.orphan_failures += 1

    def create_files(self, site_name: str, lfns, size: float) -> list[dict]:
        """Materialise ``lfns`` on one site's disk; publish_set specs."""
        site = self.grid.site(site_name)
        specs = []
        for lfn in lfns:
            path = site.config.storage_path(lfn)
            site.storage.pool.ensure_space(size)
            site.fs.create(path, size, now=self.grid.sim.now)
            specs.append({"path": path, "lfn": lfn})
        return specs


# ---------------------------------------------------------------------------
class PaperSuite(Workload):
    name = "paper_suite"
    loop = "closed, serial (1 client)"
    SIZES = {
        "full": {"passes": 2, "experiments": (
            "figure5", "figure6", "tuning", "buffer", "objects", "pipeline",
            "server", "catalog", "gdmp", "staging", "legacy", "clustering",
            "catalog-replication", "remote-access",
        )},
        "smoke": {"passes": 1, "experiments": (
            "figure5", "figure6", "pipeline", "server", "catalog", "gdmp",
            "staging", "legacy", "catalog-replication",
        )},
    }

    def setup(self) -> None:
        with open(RECORDED_FIGURES, encoding="utf-8") as fh:
            self.recorded = json.load(fh)
        # one untimed pass of the two figures, so lazy imports and caches
        # are paid here and not by whichever experiment happens to run first
        for name in ("figure5", "figure6"):
            EXPERIMENTS[name].run(seed=self.seed)
        self.passes: list[dict[str, str]] = []
        self.results: dict[str, object] = {}

    def run(self) -> None:
        for _ in range(self.size["passes"]):
            reports: dict[str, str] = {}
            for name in self.size["experiments"]:
                module = EXPERIMENTS[name]
                captured = io.StringIO()
                with contextlib.redirect_stdout(captured):
                    if "seed" in inspect.signature(module.run).parameters:
                        result = module.run(seed=self.seed)
                    else:
                        result = module.run()
                    module.report(result)
                reports[name] = captured.getvalue()
                self.results[name] = result
            self.passes.append(reports)

    def finish(self) -> Outcome:
        reports = self.passes[0]
        errors = [
            f"{name}: printed no report"
            for name, text in reports.items() if not text.strip()
        ]
        errors.extend(
            f"{name}: report differs between passes"
            for later in self.passes[1:]
            for name, text in later.items() if text != reports[name]
        )
        figures = {n: self.results[n] for n in ("figure5", "figure6")}
        if self.seed == 2001:
            for name, series in figures.items():
                ours = {
                    str(size): {str(s): rate for s, rate in points.items()}
                    for size, points in series.items()
                }
                if ours != self.recorded[name]:
                    errors.append(f"{name}: differs from the recorded values")
        peaks = [max(series[100].values()) for series in figures.values()]
        tuned = figures["figure6"][100]
        plateau = min(
            s for s, rate in tuned.items() if rate >= 0.9 * max(tuned.values())
        )
        error_pct = 100.0 * max(
            *(abs(peak - 23.0) / 23.0 for peak in peaks),
            abs(plateau - 3) / 3.0,
        )
        if error_pct > 50.0:
            errors.append(f"figures {error_pct:.1f}% off the paper's values")
        # a timed op is one simulated transfer whose size (MB) and rate
        # (Mbit/s) the suite publishes, hence its length: every point of
        # Fig. 5 and Fig. 6, and the tuning claims' two 100 MB sweeps
        sweeps = [*figures.values()]
        timed = len(figures)
        if "tuning" in self.results:
            tuning = self.results["tuning"]
            sweeps += [{100: tuning.untuned}, {100: tuning.tuned}]
            timed += 1
        latencies = [
            size_mb * 8.0 / rate
            for series in sweeps
            for size_mb, points in series.items()
            for rate in points.values()
        ]
        return Outcome(
            # the other experiments are one op each, without a latency
            ops=len(latencies) + len(reports) - timed,
            latencies=latencies,
            makespan=sum(latencies),
            errors=errors,
            extra={"experiments.paper_fig_error_pct": error_pct},
            fingerprints=[reports[n] for n in sorted(reports)],
        )


# ---------------------------------------------------------------------------
class DataChallenge(Workload):
    name = "data_challenge"
    loop = "open, 2000 requests/sim-s"
    SIZES = {
        "full": {"files": 125, "requests": 62_500, "objects": 4},
        "smoke": {"files": 6, "requests": 1_500, "objects": 2},
    }
    FILE_SIZE = 2 * MB
    OBJECT_SIZE = float(24 * MB)
    K, M = 4, 2
    DIRECTORY = "t1-0"      # the T0 already hosts the pipeline's task.*
    READER = "t1-1"
    CLEAN_PASSES = 2
    MAX_PASSES = 8
    RATE, TICK = 2000.0, 30.0
    #: a black-holed index costs a lookup this long, not a large share of
    #: the whole run.  The task lease stays at the engine's 60 s: a stage
    #: orphaned by a component crash must finish before its bundle is
    #: re-claimed, or the re-run trips over it until the task is dead.
    LOOKUP_TIMEOUT = 5.0
    #: the four overlapping fault kinds of the one merged campaign; the
    #: seed draws targets, times and lengths within these narrow ranges
    FAULTS = {
        "site_wipe": dict(start=20.0, spread=20.0),
        "rli_blackhole": dict(
            windows=1, digest_loss_windows=1,
            start=10.0, spread=10.0, min_down=8.0, max_down=10.0,
        ),
        "component_crash": dict(
            crashes=4, start=5.0, spread=30.0, min_down=5.0, max_down=8.0,
        ),
        "link_flap": dict(
            flaps=4, start=5.0, spread=30.0, min_down=2.0, max_down=3.0,
        ),
    }

    def setup(self) -> None:
        self.tiers = tiers = tiered_grid_spec(
            TieredSpec(t1_count=2, t2_per_t1=3)
        )
        grid = self.grid = DataGrid(
            [GdmpConfig(name, tcp_buffer=1 << 20) for name in tiers.sites],
            catalog_host=tiers.t0,
            seed=self.seed,
            rls=RlsConfig(
                digest=DigestConfig(period=20.0, full_every=4),
                lookup_timeout=self.LOOKUP_TIMEOUT,
            ),
            weather=WeatherConfig(
                weather_host=tiers.t0, push_period=5.0,
                staleness_horizon=20.0,
            ),
            wan_links=list(tiers.wan_links),
        )
        grid.enable_resilience(ResilienceConfig(rpc_timeout=30.0))
        self.lfns = [f"dc-{i:04d}.db" for i in range(self.size["files"])]
        specs = self.create_files(tiers.t0, self.lfns, self.FILE_SIZE)
        t0 = grid.site(tiers.t0)
        for i in range(0, len(specs), 50):
            grid.run(until=t0.client.publish_set(specs[i:i + 50]))

        self.runtime = ChunkRuntime(grid, ChunkConfig(
            k=self.K, m=self.M,
            placement_sites=list(tiers.t2_sites),
            scrub_sites=[self.DIRECTORY],
            directory_host=self.DIRECTORY,
            poll=2.0, lease=600.0,
        ))
        self.objects = [f"obj-{i:02d}" for i in range(self.size["objects"])]
        hub_fs = grid.site(self.DIRECTORY).fs
        hub = self.runtime.store(self.DIRECTORY)
        self.puts = []
        for name in self.objects:
            key = f"content-{self.seed}-{name}"
            hub_fs.create(
                f"data/{name}", self.OBJECT_SIZE, content_id=key,
                now=grid.sim.now,
            )
            self.puts.append(grid.run(until=hub.put_object(
                name, self.OBJECT_SIZE, key, self.K, self.M
            )))

        rate, tick = self.RATE, self.TICK
        self.engine = WorkloadEngine(
            grid,
            ArrivalProfile(
                rate=rate, tick=tick, diurnal_amplitude=0.3,
                admit_rate=rate * 1.5, admit_burst=rate * tick * 2,
            ),
            lfns=self.lfns, total=self.size["requests"],
            rng=self.streams["workload.arrivals"],
        )
        # flaps hit the T1->T2 tails: one site each, where a backbone flap
        # stalls a whole subtree and makes the tail a coin toss per seed
        links = sorted(
            link.name for _, site, *pair in tiers.wan_links
            if site in tiers.t2_sites for link in pair
        )
        faults = self.FAULTS
        parts = [
            site_wipe_campaign(
                self.streams, list(tiers.t2_sites), wipes=self.M,
                **faults["site_wipe"],
            ),
            rli_blackhole_campaign(
                self.streams, tiers.t0, **faults["rli_blackhole"]
            ),
            component_crash_campaign(
                self.streams, sorted(self.engine.components),
                **faults["component_crash"],
            ),
            link_flap_campaign(self.streams, links, **faults["link_flap"]),
        ]
        self.campaign = FaultCampaign(
            "data-challenge",
            tuple(event for part in parts for event in part.events),
        )
        self.injector = FaultInjector(grid, self.campaign)

    def _fetch_all(self, site: str, prefix: str) -> list:
        store = self.runtime.store(site)
        reports = []
        for name in self.objects:
            try:
                reports.append(self.drive(
                    store.fetch_object(name, f"{prefix}/{name}")
                ))
            except ServiceError as exc:
                self.fetch_errors.append(f"fetch {name}@{site}: {exc}")
        return reports

    def run(self) -> None:
        grid, engine, runtime = self.grid, self.engine, self.runtime
        self.started = grid.sim.now
        self.fetch_errors: list[str] = []
        grid.rls.start()
        grid.weather.start()
        engine.start()
        runtime.start()
        campaign = self.injector.start()
        self.drive(engine.done)
        self.drive(campaign)
        self.drive(grid.sim.timeout(engine.supervise_interval * 2))
        # read path before repair: any k of k+m survive the wipes
        self.degraded_fetches = self._fetch_all(self.READER, "degraded")
        clean = self.passes = 0
        while clean < self.CLEAN_PASSES and self.passes < self.MAX_PASSES:
            self.drive(runtime.run_scrub_pass(poll=2.0))
            self.passes += 1
            cycle = runtime.planner.cycle
            repairs = sum(
                1 for task in runtime.queue_service.queue.tasks.values()
                if task.type == "repair"
                and task.payload.get("cycle") == cycle
            )
            clean = clean + 1 if repairs == 0 else 0
        self.clean = clean
        self.repaired_fetches = self._fetch_all(self.DIRECTORY, "repaired")
        self.makespan = grid.sim.now - self.started

    def finish(self) -> Outcome:
        grid, queue = self.grid, self.engine.queue
        errors = list(self.fetch_errors)
        latencies: list[float] = []
        op_keys: list[tuple[str, str]] = []
        payload = 0.0
        queued: list[float] = []
        by_key = {
            task.key: task for task in queue.tasks.values() if task.key
        }
        obligations = sorted(
            (task.site, task.payload["lfn"])
            for task in queue.tasks.values() if task.type == "xfer"
        )
        for dest_name, lfn in obligations:
            dest = grid.site(dest_name)
            problem = ""
            path = dest.server.held.get(lfn)
            xfer = by_key[xfer_key(lfn, dest_name)]
            audit = by_key.get(verify_key(lfn, dest_name))
            if path is None or not dest.fs.exists(path):
                problem = "not on disk"
            elif audit is None or audit.state != "done":
                problem = "no completed verify task"
            else:
                record = grid.rls.backends[dest_name].info(lfn)
                stored = dest.fs.stat(path)
                here = [
                    loc for loc in record.locations
                    if loc.get("location") == dest_name
                ]
                if stored.crc != record.crc or stored.size != record.size:
                    problem = "bytes disagree with the LRC record"
                elif len(here) != 1:
                    problem = f"{len(here)} location records (want 1)"
            if problem:
                errors.append(f"{lfn}@{dest_name}: {problem}")
                continue
            payload += stored.size
            op_keys.append((lfn, dest_name))
            latencies.append(audit.finished_at - xfer.submitted_at)
            # the op's stages, from the queue's own records: the bundler
            # names the bundle it packed the xfer into in the xfer's result
            serial = (xfer.result or {}).get("bundle")
            stages = [xfer, by_key.get(f"bundle:{dest_name}:{serial}"), audit]
            queued.append(
                sum(
                    task.first_claimed_at - task.submitted_at
                    for task in stages if task is not None
                )
                + audit.finished_at - audit.first_claimed_at
            )
        counts = queue.counts()
        if counts["dead"]:
            errors.append(f"{counts['dead']} pipeline tasks dead")
        if queue.leaked_claims():
            errors.append(f"leaked claims: {queue.leaked_claims()}")
        if self.injector.active_faults():
            errors.append(
                f"fault windows still open: {self.injector.active_faults()}"
            )
        if self.clean < self.CLEAN_PASSES:
            errors.append(f"scrub not clean after {self.passes} passes")
        scrub_queue = self.runtime.queue_service.queue
        if scrub_queue.counts()["dead"] or not scrub_queue.terminal():
            errors.append(f"scrub queue not clean: {scrub_queue.counts()}")
        fetches = self.degraded_fetches + self.repaired_fetches
        wanted = {put.object: put.fingerprint for put in self.puts}
        for fetched in fetches:
            if fetched.fingerprint != wanted[fetched.object]:
                errors.append(f"{fetched.object}: wrong manifest fingerprint")
        injected = {
            child.labels[0][1]
            for child in grid.metrics.children("faults.injected")
        }
        kinds = len(injected & {
            "site_wipe", "rli_blackhole", "component_crash", "link_down",
        })
        if kinds < len(self.FAULTS):
            errors.append(f"only {kinds} of the four fault kinds injected")
        return Outcome(
            ops=len(obligations) + 2 * len(self.objects),
            latencies=latencies,
            op_keys=op_keys,
            queued=queued,
            makespan=self.makespan,
            errors=errors,
            payload_bytes=payload,
            extra={
                "chunks.uploaded": sum(p.chunks_uploaded for p in self.puts),
                "chunks.decodes": sum(1 for f in fetches if f.decoded),
                "faults.kinds_injected": kinds,
                "workload.generator_lateness_s": 0.0,
            },
            fingerprints=[
                self.campaign.schedule_repr(),
                self.engine.fingerprint(),
                grid.rls.fingerprint(),
                grid.weather.fingerprint(),
                self.runtime.fingerprint(),
                " ".join(f.fingerprint for f in fetches),
            ],
        )


# ---------------------------------------------------------------------------
class BulkTransfer(Workload):
    name = "bulk_transfer"
    loop = "closed, 15 concurrent pullers (one per site)"
    SIZES = {
        "full": {"files": 18, "size_mb": 400},
        "smoke": {"files": 2, "size_mb": 40},
    }
    STREAMS = 16
    BUFFER = 256 * KiB

    def setup(self) -> None:
        self.tiers = tiers = tiered_grid_spec(TieredSpec(
            t1_count=3, t2_per_t1=4, loss_rate=2e-5,
            backbone_mbps=622.0, backbone_cross_mbps=60.0,
        ))
        grid = self.grid = DataGrid(
            [GdmpConfig(name) for name in tiers.sites],
            catalog_host=tiers.t0,
            seed=self.seed,
            wan_links=list(tiers.wan_links),
        )
        self.file_size = float(self.size["size_mb"] * MB)
        self.lfns = [f"bulk-{i:03d}.db" for i in range(self.size["files"])]
        specs = self.create_files(tiers.t0, self.lfns, self.file_size)
        grid.run(until=grid.site(tiers.t0).client.publish_set(specs))

    def _wave(self, sites) -> None:
        grid = self.grid
        pulls = [
            grid.site(name).client.replicate_set(
                self.lfns, streams=self.STREAMS, tcp_buffer=self.BUFFER
            )
            for name in sites
        ]
        for reports in grid.run(until=grid.sim.all_of(pulls)):
            self.reports.extend(reports)

    def run(self) -> None:
        self.started = self.grid.sim.now
        self.reports: list = []
        self._wave(self.tiers.t1_sites)
        self._wave(self.tiers.t2_sites)
        self.makespan = self.grid.sim.now - self.started

    def finish(self) -> Outcome:
        grid, tiers = self.grid, self.tiers
        errors = []
        source = grid.site(tiers.t0)
        landed = 0.0
        for lfn in self.lfns:
            original = source.fs.stat(source.config.storage_path(lfn))
            record = grid.catalog_backend.info(lfn)
            registered = {loc.get("location") for loc in record.locations}
            for name in tiers.sites[1:]:
                site = grid.site(name)
                path = site.server.held.get(lfn)
                if path is None or not site.fs.exists(path):
                    errors.append(f"{lfn}@{name}: not on disk")
                    continue
                stored = site.fs.stat(path)
                if stored.crc != original.crc or stored.size != original.size:
                    errors.append(f"{lfn}@{name}: CRC differs from the T0's")
                elif name not in registered:
                    errors.append(f"{lfn}@{name}: not in the catalog")
                else:
                    landed += stored.size
        ops = len(self.lfns) * (len(tiers.sites) - 1)
        return Outcome(
            ops=ops,
            latencies=[report.total_duration for report in self.reports],
            op_keys=[(r.lfn, r.destination) for r in self.reports],
            makespan=self.makespan,
            errors=errors,
            payload_bytes=landed,
            fingerprints=[
                ",".join(
                    f"{r.lfn}@{r.destination}<{r.source}:{r.total_duration!r}"
                    for r in self.reports
                ),
            ],
        )


# ---------------------------------------------------------------------------
class CatalogWorkload(Workload):
    """Shared shape of the two catalog workloads: an 8-site full-mesh
    RLS grid with its digest pushers running and no data plane."""

    PERIOD = 20.0
    FULL_EVERY = 4

    def build_grid(self) -> DataGrid:
        # the paper's testbed link between every pair of sites, each
        # pair's one-way delay within 10% of the testbed's (drawn from
        # the seed), so no two sites see quite the same catalog latency
        params = TestbedParams(seed=self.seed)
        rng = self.streams["bench.mesh_delays"]
        links = [
            (a, b, Link(
                name=f"wan-{a}-{b}",
                capacity=mbps(params.capacity_mbps),
                delay=params.rtt / 2.0 * float(rng.uniform(0.9, 1.1)),
                queue_capacity=params.queue_capacity,
                cross_traffic=mbps(params.cross_traffic_mbps),
                loss_rate=params.loss_rate,
            ))
            for i, a in enumerate(CATALOG_SITES)
            for b in CATALOG_SITES[i + 1:]
        ]
        grid = self.grid = DataGrid(
            [GdmpConfig(name) for name in CATALOG_SITES],
            catalog_host=CATALOG_SITES[0],
            seed=self.seed,
            wan_links=links,
            rls=RlsConfig(
                digest=DigestConfig(
                    period=self.PERIOD, full_every=self.FULL_EVERY
                ),
                lookup_timeout=10.0,
            ),
        )
        grid.enable_resilience(ResilienceConfig(rpc_timeout=10.0))
        return grid

    def covered(self, lfns) -> bool:
        """Ground truth: every holder is an index candidate."""
        rls = self.grid.rls
        states = rls.index.states
        return all(
            states[site].might_hold(lfn)
            for lfn in lfns for site in rls.holders(lfn)
        )

    def run_clients(self, client_body) -> None:
        """One closed-loop client process per site, run to completion."""
        grid = self.grid
        clients = [
            grid.sim.spawn(client_body(name), name=f"bench-client@{name}")
            for name in CATALOG_SITES
        ]
        grid.run(until=grid.sim.all_of(clients))


class CatalogPublish(CatalogWorkload):
    name = "catalog_publish"
    loop = "closed, 8 publishers (one per site)"
    SIZES = {
        "full": {"files_per_site": 280, "set_size": 10},
        "smoke": {"files_per_site": 10, "set_size": 5},
    }
    COVERAGE_DEADLINE = 300.0

    def setup(self) -> None:
        grid = self.build_grid()
        rng = self.streams["bench.catalog_publish"]
        self.sets: dict[str, list[list[dict]]] = {}
        for name in CATALOG_SITES:
            lfns = [
                f"pub-{name}-{i:04d}.dat"
                for i in range(self.size["files_per_site"])
            ]
            sizes = rng.integers(1, 64, size=len(lfns))
            specs = []
            for lfn, kib in zip(lfns, sizes):
                (spec,) = self.create_files(name, [lfn], float(kib * KiB))
                spec["attributes"] = {
                    "run": int(rng.integers(0, 50)),
                    "kind": ("aod", "esd", "raw")[int(rng.integers(0, 3))],
                }
                specs.append(spec)
            step = self.size["set_size"]
            self.sets[name] = [
                specs[i:i + step] for i in range(0, len(specs), step)
            ]
        grid.rls.start()
        grid.run(until=grid.sim.timeout(self.PERIOD))

    def run(self) -> None:
        grid = self.grid
        self.started = grid.sim.now
        self.latencies: list[float] = []
        self.errors: list[str] = []

        def publisher(name):
            client = grid.site(name).client
            for specs in self.sets[name]:
                began = grid.sim.now
                try:
                    yield client.publish_set(specs)
                except ServiceError as exc:
                    self.errors.append(f"publish_set@{name}: {exc}")
                    continue
                self.latencies.append(grid.sim.now - began)

        self.run_clients(publisher)
        self.lfns = [
            spec["lfn"]
            for sets in self.sets.values() for specs in sets for spec in specs
        ]
        deadline = grid.sim.now + self.COVERAGE_DEADLINE
        while not self.covered(self.lfns) and grid.sim.now < deadline:
            grid.run(until=grid.sim.timeout(self.PERIOD / 8.0))
        self.makespan = grid.sim.now - self.started

    def finish(self) -> Outcome:
        grid = self.grid
        errors = list(self.errors)
        if not self.covered(self.lfns):
            errors.append("index never covered every published LFN")
        for name, sets in self.sets.items():
            backend = grid.rls.backends[name]
            for specs in sets:
                for spec in specs:
                    lfn = spec["lfn"]
                    if grid.rls.holders(lfn) != [name]:
                        errors.append(
                            f"{lfn}: held by {grid.rls.holders(lfn)}"
                        )
                        continue
                    record = backend.info(lfn)
                    stored = grid.site(name).fs.stat(spec["path"])
                    wanted = {
                        k: str(v) for k, v in spec["attributes"].items()
                    }
                    if (record.crc != stored.crc
                            or record.size != stored.size
                            or record.attributes != wanted):
                        errors.append(f"{lfn}: LRC record differs")
        ops = sum(len(sets) for sets in self.sets.values())
        return Outcome(
            ops=ops,
            latencies=self.latencies,
            makespan=self.makespan,
            errors=errors,
            fingerprints=[grid.rls.fingerprint()],
        )


class CatalogLookup(CatalogWorkload):
    name = "catalog_lookup"
    loop = "closed, 8 readers (one per site)"
    SIZES = {
        "full": {"entries_per_site": 3000, "lookups": 1200, "searches": 5},
        "smoke": {"entries_per_site": 300, "lookups": 40, "searches": 1},
    }
    RUNS = 400
    KINDS = ("aod", "esd", "raw")

    def setup(self) -> None:
        grid = self.build_grid()
        rng = self.streams["bench.catalog_lookup"]
        entries = self.size["entries_per_site"]
        self.lfns: list[str] = []
        self.attributes: dict[str, dict] = {}
        for name in CATALOG_SITES:
            runs = rng.integers(0, self.RUNS, size=entries)
            kinds = rng.integers(0, len(self.KINDS), size=entries)
            files = []
            for i in range(entries):
                lfn = f"cl-{name}-{i:06d}.dat"
                attributes = {
                    "run": int(runs[i]), "kind": self.KINDS[int(kinds[i])],
                }
                files.append({
                    "lfn": lfn, "size": 1000.0 + i, "modified": 0.0,
                    "crc": i, "attributes": attributes,
                })
                self.attributes[lfn] = attributes
            self.lfns.extend(grid.rls.backends[name].publish_bulk(name, files))
        grid.rls.start()
        # one full period plus stagger: every site's digest has landed
        grid.run(until=grid.sim.timeout(self.PERIOD * 1.5))
        hot = max(1, len(self.lfns) // 20)
        order = rng.permutation(len(self.lfns))
        self.hot = [self.lfns[i] for i in order[:hot]]
        # per reader: the op sequence, drawn up front from the seed
        lookups, searches = self.size["lookups"], self.size["searches"]
        every = lookups // searches
        self.plans: dict[str, list[tuple[str, object]]] = {}
        for name in CATALOG_SITES:
            plan: list[tuple[str, object]] = []
            from_hot = rng.random(lookups) < 0.8
            picks = rng.integers(0, 1 << 30, size=lookups)
            for i in range(lookups):
                pool = self.hot if from_hot[i] else self.lfns
                plan.append(("info", pool[int(picks[i]) % len(pool)]))
                if (i + 1) % every == 0:
                    plan.append(("search", int(rng.integers(0, self.RUNS))))
            self.plans[name] = plan

    def run(self) -> None:
        grid = self.grid
        self.started = grid.sim.now
        self.latencies: list[float] = []
        self.answers: list[tuple[str, str, object, object]] = []
        self.errors: list[str] = []

        def reader(name):
            catalog = grid.site(name).client.catalog
            for kind, what in self.plans[name]:
                began = grid.sim.now
                try:
                    if kind == "info":
                        answer = yield catalog.info(what)
                    else:
                        answer = yield catalog.search(
                            f"(&(run={what})(kind=aod))"
                        )
                except ServiceError as exc:
                    self.errors.append(f"{kind} {what}@{name}: {exc}")
                    continue
                self.latencies.append(grid.sim.now - began)
                self.answers.append((name, kind, what, answer))

        self.run_clients(reader)
        self.makespan = grid.sim.now - self.started

    def finish(self) -> Outcome:
        rls = self.grid.rls
        errors = list(self.errors)
        phantoms = 0
        holders: dict[str, set] = {}
        aod: dict[int, list[str]] = {}
        for lfn, attrs in sorted(self.attributes.items()):
            if attrs["kind"] == "aod":
                aod.setdefault(attrs["run"], []).append(lfn)
        for reader, kind, what, answer in self.answers:
            if kind == "info":
                seen = {loc["location"] for loc in answer.locations}
                if what not in holders:
                    holders[what] = set(rls.holders(what))
                truth = holders[what]
                phantoms += len(seen - truth)
                if seen != truth:
                    errors.append(
                        f"info {what}@{reader}: {sorted(seen)} != "
                        f"{sorted(truth)}"
                    )
            elif [info.lfn for info in answer] != aod.get(what, []):
                errors.append(f"search run={what}@{reader}: wrong set")
        ops = sum(len(plan) for plan in self.plans.values())
        return Outcome(
            ops=ops,
            latencies=self.latencies,
            makespan=self.makespan,
            errors=errors,
            extra={"rls.phantom_locations": phantoms},
            fingerprints=[rls.fingerprint()],
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        PaperSuite, DataChallenge, BulkTransfer, CatalogPublish, CatalogLookup
    )
}
