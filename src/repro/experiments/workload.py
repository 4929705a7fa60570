"""EXP-WORKLOAD — the claim-based pipeline at production request volume.

The ROADMAP's north star is a grid serving *millions* of user requests,
not a scripted handful of ``replicate_set`` calls.  This experiment runs
the :mod:`repro.workload` engine end to end: an open-loop, fair-share
admitted arrival stream (default one hundred thousand requests; the
acceptance gate runs a million) flows through picker → bundler →
replicator → verifier components claiming leased tasks from the queue
service, and the run converges when every task is terminal.

Claims checked:

* **determinism** — same seed ⇒ byte-identical queue-state + admission +
  Prometheus fingerprint, arrival stream included;
* **exactly-once convergence** — every transfer obligation the stream
  created is satisfied exactly once per destination: bytes on disk, CRC
  equal to the catalog's, exactly one location record, every verify
  audit passed, zero dead tasks, zero leaked claims — including under a
  fault campaign (component crashes, host crash/restart, catalog
  black-holes) aimed at the *standing pipeline* rather than a one-shot
  transfer.

``python -m repro.experiments workload --requests=1000000 --seed=7``
runs the full-scale stream; ``--campaign=component_crash`` arms chaos.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

from repro.experiments.common import export_telemetry
from repro.experiments.scaffold import (
    ArmedFaults,
    ReplicaAudit,
    Verdict,
    fingerprint,
    print_verdict,
)
from repro.faults import (
    catalog_blackhole_campaign,
    component_crash_campaign,
    crash_restart_campaign,
    link_flap_campaign,
)
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.services.resilience import ResilienceConfig
from repro.simulation.randomness import RandomStreams
from repro.workload import ArrivalProfile, WorkloadEngine

__all__ = ["CAMPAIGNS", "WorkloadResult", "build", "run", "report"]

@dataclass(frozen=True)
class WorkloadResult(Verdict):
    """Outcome + invariant checks for one workload run."""

    requests: int            # generated arrivals
    admitted: int
    shed: int                # dropped at the per-VO backlog cap
    tasks: int               # queue tasks across all stages
    coalesced: int           # keyed submissions that merged
    expired_leases: int
    duration: float          # sim-time from start to convergence
    wall_seconds: float      # host wall-clock for the whole run
    component_crashes: int
    obligations: int         # distinct (lfn, dest) transfer obligations
    all_held: bool
    crc_ok: bool
    catalog_exact: bool
    verified: bool           # every verify task completed (none dead)
    no_dead_tasks: bool
    no_leaked_claims: bool

    CHECKS: ClassVar = (
        "all_held", "crc_ok", "catalog_exact", "verified",
        "no_dead_tasks", "no_leaked_claims",
    )

    @property
    def requests_per_second(self) -> float:
        """Sustained generated requests per wall-clock second."""
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0


#: fault classes the workload gate can aim at the standing pipeline
CAMPAIGNS = {
    "component_crash": lambda streams, grid, engine: component_crash_campaign(
        streams, sorted(engine.components), start=5.0, spread=60.0,
        min_down=10.0, max_down=30.0,
    ),
    # crash the origin (the only initial replica source); the
    # destinations' standing components ride out the window
    "crash_restart": lambda streams, grid, engine: crash_restart_campaign(
        streams, [engine.origin], start=5.0, spread=40.0,
        min_down=8.0, max_down=20.0,
    ),
    "catalog_blackhole": lambda streams, grid, engine: (
        catalog_blackhole_campaign(
            streams, grid.catalog_host, start=5.0, spread=40.0,
        )
    ),
    "link_flap": lambda streams, grid, engine: link_flap_campaign(
        streams, sorted(link.name for link in grid.topology.links),
        start=5.0, spread=50.0,
    ),
}


def _audit(grid: DataGrid, engine: WorkloadEngine, errors: list[str]):
    """Ground truth over every transfer obligation the stream created,
    taken from the queue's own record; returns (count, replica audit,
    whether every obligation's verify task completed)."""
    owed: dict[str, set] = {}
    for task in engine.queue.tasks.values():
        if task.type == "xfer":
            owed.setdefault(task.site, set()).add(task.payload["lfn"])
    audit = ReplicaAudit(errors)
    obligations = 0
    verified = True
    for dest_name in sorted(owed):
        dest = grid.site(dest_name)
        for lfn in sorted(owed[dest_name]):
            obligations += 1
            audit.check(dest, lfn, grid.catalog_backend)
            # the verifier's independent audit must have passed too
            vt = engine.queue._by_key.get(f"verify:{lfn}@{dest_name}")
            if vt is None or engine.queue.tasks[vt].state != "done":
                verified = False
                errors.append(f"{lfn}: no completed audit at {dest_name}")
    return obligations, audit, verified


def build(
    requests: int,
    seed: int,
    files: int = 48,
    size_mb: int = 2,
    rate: float = 2000.0,
    tick: float = 30.0,
    diurnal_amplitude: float = 0.3,
) -> tuple[DataGrid, WorkloadEngine]:
    """The experiment's 3-site grid with its files published at cern and
    the engine over it, nothing started yet."""
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")],
        catalog_host="cern",
        seed=seed,
    )
    grid.enable_resilience(ResilienceConfig(rpc_timeout=30.0))
    cern = grid.site("cern")
    lfns = [f"wl-{i:03d}.db" for i in range(files)]
    specs = []
    for lfn in lfns:
        path = cern.config.storage_path(lfn)
        cern.storage.pool.ensure_space(size_mb * MB)
        cern.fs.create(path, size_mb * MB, now=grid.sim.now)
        specs.append({"path": path, "lfn": lfn})
    grid.run(until=cern.client.publish_set(specs))

    profile = ArrivalProfile(
        rate=rate,
        tick=tick,
        diurnal_amplitude=diurnal_amplitude,
        admit_rate=rate * 1.5,
        admit_burst=rate * tick * 2,
    )
    engine = WorkloadEngine(
        grid, profile, lfns=lfns, total=requests,
        rng=RandomStreams(seed)["workload.arrivals"],
    )
    return grid, engine


def run(
    requests: int = 100_000,
    seed: int = 2001,
    campaign: str = "",
    files: int = 48,
    size_mb: int = 2,
    rate: float = 2000.0,
    tick: float = 30.0,
    diurnal_amplitude: float = 0.3,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> WorkloadResult:
    """Run the standing pipeline over a 3-site grid until convergence."""
    wall_started = time.perf_counter()
    grid, engine = build(
        requests, seed, files, size_mb, rate, tick, diurnal_amplitude
    )

    started = grid.sim.now
    engine.start()
    faults = ArmedFaults(grid, CAMPAIGNS, campaign, seed, engine)
    grid.run(until=engine.done)
    duration = grid.sim.now - started
    if faults.drain():
        # every window has closed; let the re-claims settle too before
        # the invariants are checked
        grid.run(until=grid.sim.timeout(engine.supervise_interval * 2))

    errors: list[str] = []
    obligations, audit, verified = _audit(grid, engine, errors)
    counts = engine.queue.counts()
    leaked = engine.queue.leaked_claims()
    if counts["dead"]:
        errors.append(f"{counts['dead']} tasks dead (want 0)")
    if leaked:
        errors.append(f"leaked claims: {leaked}")
    errors.extend(grid.leaks())
    no_active = faults.windows_closed(errors)

    export_telemetry(
        grid.metrics, grid.tracelog,
        metrics_json=metrics_json, trace_chrome=trace_chrome,
        show_report=show_report,
    )
    summary = engine.summary()
    return WorkloadResult(
        seed=seed,
        campaign=campaign,
        requests=summary["generated"],
        admitted=summary["admitted"],
        shed=summary["shed"],
        tasks=summary["tasks"],
        coalesced=summary["coalesced"],
        expired_leases=summary["expired_leases"],
        duration=duration,
        wall_seconds=time.perf_counter() - wall_started,
        faults_injected=faults.injected,
        component_crashes=sum(
            c.crashes for c in engine.components.values()
        ),
        obligations=obligations,
        all_held=audit.all_held,
        crc_ok=audit.crc_ok,
        catalog_exact=audit.catalog_exact,
        verified=verified,
        no_dead_tasks=counts["dead"] == 0,
        no_leaked_claims=not leaked,
        no_active_faults=no_active,
        fingerprint=fingerprint(grid, faults.schedule, engine.fingerprint()),
        errors=tuple(errors),
    )


def report(result: WorkloadResult) -> None:
    """Print the convergence/scale verdict."""
    print_verdict(
        result,
        f"EXP-WORKLOAD — seed {result.seed}, {result.requests:,} requests"
        f"{result.under}",
        [
            ["requests generated", f"{result.requests:,}"],
            ["requests admitted", f"{result.admitted:,}"],
            ["requests shed", f"{result.shed:,}"],
            ["queue tasks", result.tasks],
            ["keyed coalesces", result.coalesced],
            ["expired leases", result.expired_leases],
            ["faults injected", result.faults_injected],
            ["component crashes", result.component_crashes],
            ["transfer obligations", result.obligations],
            ["sim-time to converge (s)", f"{result.duration:.1f}"],
            ["sustained requests/s (wall)",
             f"{result.requests_per_second:,.0f}"],
            ["all replicas held", result.all_held],
            ["CRCs intact", result.crc_ok],
            ["catalog exactly-once", result.catalog_exact],
            ["audits complete", result.verified],
            ["no dead tasks", result.no_dead_tasks],
            ["no leaked claims", result.no_leaked_claims],
        ],
    )
