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

from repro.experiments.common import export_telemetry, print_table
from repro.faults import (
    FaultInjector,
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
from repro.simulation.randomness import RandomStreams

__all__ = ["CAMPAIGNS", "ChaosResult", "run", "report"]

#: the four fault classes the chaos gate exercises
CAMPAIGNS = ("link_flap", "crash_restart", "mss_stall", "catalog_blackhole")


@dataclass(frozen=True)
class ChaosResult:
    """Outcome + invariant checks for one chaos run."""

    campaign: str
    seed: int
    files: int
    rounds: int              # driver passes until replicate_set succeeded
    duration: float          # sim-time from driver start to convergence
    faults_injected: int
    pools_cancelled: int
    retries: float           # rpc.retries total
    failovers: float         # gdmp.mover.failovers total
    restarts: float          # gdmp.mover.restarts total (marker resumes)
    stalls: float            # gdmp.mover.stalls total (no-progress reissues)
    all_held: bool           # every file on the destination's disk
    crc_ok: bool             # every local replica matches the catalog CRC
    catalog_exact: bool      # destination registered exactly once per file
    no_active_faults: bool   # every fault window closed by campaign end
    schedule: str            # canonical campaign fingerprint
    fingerprint: str         # schedule + final state + telemetry, canonical
    errors: tuple[str, ...]  # human-readable invariant violations

    @property
    def converged(self) -> bool:
        return (self.all_held and self.crc_ok and self.catalog_exact
                and self.no_active_faults and not self.errors)


def _build_campaign(name: str, seed: int, grid: DataGrid):
    # windows are compressed relative to the builders' defaults so the
    # faults land while the driver's transfer set is actually in flight
    streams = RandomStreams(seed)
    if name == "link_flap":
        links = sorted(link.name for link in grid.topology.links)
        return link_flap_campaign(streams, links, start=2.0, spread=30.0)
    if name == "crash_restart":
        # crash the source sites; the destination driver stays up, as a
        # client orchestrating its own recovery would
        return crash_restart_campaign(
            streams, ["cern", "caltech"], start=3.0, spread=40.0
        )
    if name == "mss_stall":
        return mss_stall_campaign(streams, "cern", start=5.0, spread=150.0)
    if name == "catalog_blackhole":
        return catalog_blackhole_campaign(
            streams, grid.catalog_host, start=2.0, spread=40.0
        )
    raise ValueError(
        f"unknown campaign {name!r} (one of: {', '.join(CAMPAIGNS)})"
    )


def _sum_counter(grid: DataGrid, name: str) -> float:
    if grid.metrics is None or grid.metrics.kind(name) is None:
        return 0.0
    return sum(child.value for child in grid.metrics.children(name))


def _fingerprint(grid: DataGrid, dest, lfns, schedule: str) -> str:
    """Canonical run fingerprint: the fault schedule, the destination's
    final holdings (size + CRC), the catalog's location sets, and the
    full Prometheus export.  Two runs of the same seed must produce
    byte-identical strings — this is what the chaos smoke gate diffs."""
    from repro.telemetry import to_prometheus_text

    parts = [schedule]
    for lfn in lfns:
        path = dest.server.held.get(lfn)
        if path is not None and dest.fs.exists(path):
            stored = dest.fs.stat(path)
            parts.append(f"{lfn} {stored.size:.0f} {stored.crc}")
        else:
            parts.append(f"{lfn} MISSING")
        locations = ",".join(sorted(
            str(loc.get("location"))
            for loc in grid.catalog_backend.info(lfn).locations
        ))
        parts.append(f"{lfn} @ {locations}")
    parts.append(to_prometheus_text(grid.metrics))
    return "\n".join(parts)


def _verify(grid: DataGrid, dest, lfns) -> tuple[bool, bool, bool, list]:
    """The convergence invariants, checked against ground truth."""
    errors: list[str] = []
    all_held = True
    crc_ok = True
    catalog_exact = True
    for lfn in lfns:
        path = dest.server.held.get(lfn)
        if path is None or not dest.fs.exists(path):
            all_held = False
            errors.append(f"{lfn}: not on disk at {dest.name}")
            continue
        info = grid.catalog_backend.info(lfn)
        stored = dest.fs.stat(path)
        if stored.crc != info.crc or stored.size != info.size:
            crc_ok = False
            errors.append(f"{lfn}: local bytes disagree with the catalog")
        here = [
            loc for loc in info.locations
            if loc.get("location") == dest.name
        ]
        if len(here) != 1:
            catalog_exact = False
            errors.append(
                f"{lfn}: {len(here)} catalog entries for {dest.name} "
                "(want exactly 1)"
            )
    return all_held, crc_ok, catalog_exact, errors


def run(
    campaign: str = "link_flap",
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

    fault_campaign = _build_campaign(campaign, seed, grid)
    injector = FaultInjector(grid, fault_campaign)

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
    campaign_proc = injector.start()
    rounds = grid.run(
        until=grid.sim.spawn(driver(), name=f"chaos-driver {campaign}")
    )
    duration = grid.sim.now - started
    # drain the remainder of the schedule so every down window closes
    # before the invariants are checked (a converged state must also
    # survive faults that land after the last transfer)
    grid.run(until=campaign_proc)

    all_held, crc_ok, catalog_exact, errors = _verify(grid, anl, lfns)
    for site in grid.sites.values():
        # every transfer is over: a pin still held will never be released
        errors.extend(
            f"{stored.path}: still pinned at {site.name}"
            for stored in site.fs.listing()
            if site.pool.pin_count(stored.path)
        )
        # ... and a GridFTP session still open (with whatever data
        # channels it has parked) belongs to a set that never hung up
        if site.gridftp_server.open_sessions:
            errors.append(
                f"{site.gridftp_server.open_sessions} GridFTP session(s) "
                f"still open at {site.name}"
            )
    no_active = not injector.active_faults()
    if not no_active:
        errors.append(f"fault windows still open: {injector.active_faults()}")
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
        faults_injected=injector.injected,
        pools_cancelled=injector.pools_cancelled,
        retries=_sum_counter(grid, "rpc.retries"),
        failovers=_sum_counter(grid, "gdmp.mover.failovers"),
        restarts=_sum_counter(grid, "gdmp.mover.restarts"),
        stalls=_sum_counter(grid, "gdmp.mover.stalls"),
        all_held=all_held,
        crc_ok=crc_ok,
        catalog_exact=catalog_exact,
        no_active_faults=no_active,
        schedule=fault_campaign.schedule_repr(),
        fingerprint=_fingerprint(
            grid, anl, lfns, fault_campaign.schedule_repr()
        ),
        errors=tuple(errors),
    )


def report(result: ChaosResult) -> None:
    """Print the per-campaign convergence verdict."""
    verdict = "CONVERGED" if result.converged else "FAILED"
    print_table(
        ["check", "value"],
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
        f"EXP-CHAOS — {result.campaign} campaign, seed {result.seed}, "
        f"{result.files} files: {verdict}",
    )
    for line in result.errors:
        print(f"  !! {line}")
    print()


def main(
    campaign: str | None = None,
    seed: int = 2001,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> None:
    """Run one named campaign, or all four in sequence."""
    if campaign and campaign not in CAMPAIGNS:
        raise SystemExit(
            f"unknown campaign {campaign!r} (one of: {', '.join(CAMPAIGNS)})"
        )
    names = [campaign] if campaign else list(CAMPAIGNS)
    for name in names:
        report(run(
            campaign=name,
            seed=seed,
            metrics_json=metrics_json,
            trace_chrome=trace_chrome,
            show_report=show_report,
        ))
