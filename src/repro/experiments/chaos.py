"""EXP-CHAOS — deterministic fault injection with end-to-end recovery.

§4.3: "Error recovery plays an important role in Data Grids ... The
error recovery mechanism is based on the principle that a failed
operation is retried, and if it fails repeatedly, an alternative
replica location is used."  This experiment turns that principle into a
falsifiable claim: under a seeded campaign of injected faults — link
flaps, host crash/restart cycles, tape-system stalls and errors,
catalog black-holes — an interrupted ``replicate_set`` still
*converges*: every file ends up replicated exactly once, CRC-intact,
with no duplicate or dangling catalog registrations, and the whole run
(fault schedule included) replays bit-identically from the seed.

``python -m repro.experiments chaos --seed=7 --campaign=crash_restart``
runs one fault class; without ``--campaign`` all four run in sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.experiments.common import export_telemetry
from repro.experiments.scaffold import (
    ArmedFaults,
    ReplicaAudit,
    Verdict,
    counter_total,
    fingerprint,
    print_verdict,
)
from repro.faults import (
    catalog_blackhole_campaign,
    crash_restart_campaign,
    link_flap_campaign,
    mss_stall_campaign,
)
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.request_manager import GdmpError
from repro.services.bus import ServiceError
from repro.netsim.units import MB
from repro.services.resilience import ResilienceConfig

__all__ = ["CAMPAIGNS", "ChaosResult", "run", "report"]


@dataclass(frozen=True)
class ChaosResult(Verdict):
    """Outcome + invariant checks for one chaos run."""

    files: int
    rounds: int              # driver passes until replicate_set succeeded
    duration: float          # sim-time from driver start to convergence
    pools_cancelled: int
    retries: float           # rpc.retries total
    failovers: float         # gdmp.mover.failovers total
    restarts: float          # gdmp.mover.restarts total (marker resumes)
    stalls: float            # gdmp.mover.stalls total (no-progress reissues)
    all_held: bool           # every file on the destination's disk
    crc_ok: bool             # every local replica matches the catalog CRC
    catalog_exact: bool      # destination registered exactly once per file
    schedule: str            # canonical campaign fingerprint

    CHECKS: ClassVar = ("all_held", "crc_ok", "catalog_exact")


#: the four fault classes the chaos gate exercises.  Windows are
#: compressed relative to the builders' defaults so the faults land while
#: the driver's transfer set is actually in flight
CAMPAIGNS = {
    "link_flap": lambda streams, grid: link_flap_campaign(
        streams, sorted(link.name for link in grid.topology.links),
        start=2.0, spread=30.0,
    ),
    # crash the source sites; the destination driver stays up, as a
    # client orchestrating its own recovery would
    "crash_restart": lambda streams, grid: crash_restart_campaign(
        streams, ["cern", "caltech"], start=3.0, spread=40.0
    ),
    "mss_stall": lambda streams, grid: mss_stall_campaign(
        streams, "cern", start=5.0, spread=150.0
    ),
    "catalog_blackhole": lambda streams, grid: catalog_blackhole_campaign(
        streams, grid.catalog_host, start=2.0, spread=40.0
    ),
}


def _holdings(grid: DataGrid, dest, lfns) -> list[str]:
    """Fingerprint lines: the destination's final holdings (size + CRC)
    and the catalog's location sets."""
    lines = []
    for lfn in lfns:
        path = dest.server.held.get(lfn)
        if path is not None and dest.fs.exists(path):
            stored = dest.fs.stat(path)
            lines.append(f"{lfn} {stored.size:.0f} {stored.crc}")
        else:
            lines.append(f"{lfn} MISSING")
        locations = ",".join(sorted(
            str(loc.get("location"))
            for loc in grid.catalog_backend.info(lfn).locations
        ))
        lines.append(f"{lfn} @ {locations}")
    return lines


def run(
    campaign: str,
    seed: int = 2001,
    files: int = 6,
    size_mb: int = 12,
    chunk: int = 2,
    max_rounds: int = 20,
    retry_pause: float = 5.0,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> ChaosResult:
    """Run one fault campaign against a 3-site grid and verify that the
    destination's ``replicate_set`` converges despite it."""
    has_mss = campaign == "mss_stall"
    grid = DataGrid(
        [
            GdmpConfig("cern", has_mss=has_mss),
            GdmpConfig("anl"),
            GdmpConfig("caltech"),
        ],
        catalog_host="cern",
        seed=seed,
    )
    # generous RPC timeout only where healthy tape stagings need it
    grid.enable_resilience(
        ResilienceConfig(rpc_timeout=120.0 if has_mss else 30.0)
    )
    cern, anl, caltech = (
        grid.site("cern"), grid.site("anl"), grid.site("caltech")
    )
    lfns = [f"chaos-{i:02d}.db" for i in range(files)]
    for lfn in lfns:
        grid.run(until=cern.client.produce_and_publish(lfn, size_mb * MB))
    if has_mss:
        # force every transfer through the (faulty) tape system: archive
        # the files and purge the disk copies at the only source
        for lfn in lfns:
            path = cern.config.storage_path(lfn)
            grid.run(until=cern.storage.archive(path))
            cern.fs.delete(path)
    else:
        # a second replica at caltech gives crash/flap runs somewhere to
        # fail over to while cern is gone
        grid.run(until=caltech.client.replicate_set(lfns))

    def driver():
        # the set travels in chunks, as an operator scripting gdmp_get
        # over a large dataset would: each chunk is its own catalog
        # envelope pair, so fault windows intersect live catalog traffic
        # and live transfers rather than one burst at either end
        rounds = 0
        last_error = None
        while rounds < max_rounds:
            rounds += 1
            try:
                for i in range(0, len(lfns), chunk):
                    yield anl.client.replicate_set(
                        lfns[i:i + chunk], skip_held=True
                    )
                return rounds
            except (GdmpError, ServiceError) as exc:
                # GdmpError covers the pipeline (all-sources-failed,
                # remote faults, request timeouts); ServiceError covers
                # transport-level losses that outlive the retry budget
                # (connection resets, open breakers)
                last_error = exc
                yield grid.sim.timeout(retry_pause)
        raise GdmpError(
            f"chaos({campaign}): no convergence within {max_rounds} "
            f"rounds; last error: {last_error}"
        )

    started = grid.sim.now
    faults = ArmedFaults(grid, CAMPAIGNS, campaign, seed)
    rounds = grid.run(
        until=grid.sim.spawn(driver(), name=f"chaos-driver {campaign}")
    )
    duration = grid.sim.now - started
    faults.drain()

    errors: list[str] = []
    audit = ReplicaAudit(errors)
    for lfn in lfns:
        audit.check(anl, lfn, grid.catalog_backend)
    errors.extend(grid.leaks())
    no_active = faults.windows_closed(errors)
    export_telemetry(
        grid.metrics,
        grid.tracelog,
        metrics_json=metrics_json,
        trace_chrome=trace_chrome,
        show_report=show_report,
    )
    return ChaosResult(
        campaign=campaign,
        seed=seed,
        files=files,
        rounds=rounds,
        duration=duration,
        faults_injected=faults.injected,
        pools_cancelled=faults.injector.stats["pools_cancelled"],
        retries=counter_total(grid, "rpc.retries"),
        failovers=counter_total(grid, "gdmp.mover.failovers"),
        restarts=counter_total(grid, "gdmp.mover.restarts"),
        stalls=counter_total(grid, "gdmp.mover.stalls"),
        all_held=audit.all_held,
        crc_ok=audit.crc_ok,
        catalog_exact=audit.catalog_exact,
        no_active_faults=no_active,
        schedule=faults.schedule,
        fingerprint=fingerprint(
            grid, faults.schedule, *_holdings(grid, anl, lfns)
        ),
        errors=tuple(errors),
    )


def report(result: ChaosResult) -> None:
    """Print the per-campaign convergence verdict."""
    print_verdict(
        result,
        f"EXP-CHAOS — {result.campaign} campaign, seed {result.seed}, "
        f"{result.files} files",
        [
            ["faults injected", result.faults_injected],
            ["data pools torn down", result.pools_cancelled],
            ["rpc retries", int(result.retries)],
            ["source failovers", int(result.failovers)],
            ["marker restarts", int(result.restarts)],
            ["no-progress reissues", int(result.stalls)],
            ["driver rounds", result.rounds],
            ["sim-time to converge (s)", f"{result.duration:.1f}"],
            ["all files held", result.all_held],
            ["CRCs intact", result.crc_ok],
            ["catalog exactly-once", result.catalog_exact],
        ],
    )
