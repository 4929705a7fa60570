"""EXP-RLS — the two-tier replica location service, end to end.

A ``sites``-site grid (default ten) runs in sharded mode: every site
publishes its own files into its Local Replica Catalog, digest pushers
feed the Replica Location Index, and cross-site lookups route
index-first with verify-on-use at the LRCs.  The experiment drives the
full soft-state life cycle and checks the staleness/consistency
contract from DESIGN.md:

* **coverage/convergence** — after the digest cadence settles, the
  index covers ground truth: every site that holds an LFN is among the
  index's candidates for it, and routed lookups return exactly the
  ground-truth location set;
* **bounded staleness** — files published mid-run become visible to the
  index within the digest period (or, when digest pushes are being
  dropped by a fault window, within the window plus a full-refresh
  cycle), measured by polling index coverage;
* **degradation, not failure** — under the ``rli_blackhole`` campaign
  lookups fall back to verify-on-use broadcasts over the LRCs and still
  answer correctly; under ``digest_loss`` the index keeps answering
  (stale) and verify-on-use absorbs the drift; after the window closes
  the re-pushed digests converge the index;
* **no phantoms, ever** — every location in every answer was confirmed
  by the owning LRC, so answers are correct even when incomplete;
* **writes stay local + adoption** — a replication wave registers new
  replicas at the destination LRCs (metadata-carrying adoption), and
  cross-site knowledge arrives by digest, not per-file RPC (the
  compression ratio against naive per-write fan-out is recorded).

``python -m repro.experiments rls --sites=10 --seed=7`` runs it;
``--campaign=rli_blackhole`` or ``--campaign=digest_loss`` arms chaos.
The 10M-entry wall-clock throughput leg lives in
``benchmarks/bench_rls.py`` (recorded in BENCH_rls.json).
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
from repro.faults import rli_blackhole_campaign
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.request_manager import REQUEST_MESSAGE_SIZE
from repro.netsim.units import MB
from repro.rls import DigestConfig, RlsConfig
from repro.services.resilience import ResilienceConfig
from repro.simulation.randomness import RandomStreams

__all__ = ["CAMPAIGNS", "RlsResult", "run", "report"]

#: site names for grids up to ten sites (beyond that: site-NN)
_SITE_NAMES = (
    "cern", "anl", "caltech", "slac", "fnal",
    "bnl", "ral", "in2p3", "desy", "kek",
)


@dataclass(frozen=True)
class RlsResult(Verdict):
    """Outcome + invariant checks for one EXP-RLS run."""

    sites: int
    files: int                 # total files published (both waves)
    lookups: int               # routed cross-site lookups performed
    exact_lookups: int         # final-wave lookups matching ground truth
    degraded_lookups: int      # mid-fault lookups that still answered
    phantom_answers: int       # locations ground truth disowns, any wave
    fallback_broadcasts: int
    verify_misses: int         # bloom false positives + stale hits
    rli_unavailable: int
    negative_hits: int
    staleness_window: float    # publish -> index coverage (sim seconds)
    staleness_bound: float     # contract bound for this run
    digest_bytes: int          # cross-site digest traffic
    naive_bytes: int           # what per-write fan-out would have cost
    digests_full: int
    digests_delta: int
    pushes_lost: int
    replicas_made: int         # replication wave: replicas registered
    coverage_ok: bool          # index covers ground truth at the end
    lookups_ok: bool           # all answered, no phantom, final wave exact
    staleness_ok: bool
    replication_ok: bool
    duration: float            # sim-time for the whole experiment
    wall_seconds: float

    CHECKS: ClassVar = (
        "coverage_ok", "lookups_ok", "staleness_ok", "replication_ok",
    )

    @property
    def digest_compression(self) -> float:
        """Naive per-write fan-out bytes per digest byte."""
        return self.naive_bytes / self.digest_bytes if self.digest_bytes else 0.0


def _index_fault(**windows):
    """Builder for black-hole and/or digest-loss windows at the RLI."""
    return lambda streams, grid: rli_blackhole_campaign(
        streams, grid.rls.rli_host, **windows,
        start=5.0, spread=40.0, min_down=25.0, max_down=50.0,
    )


#: fault classes the RLS gate can aim at the index
CAMPAIGNS = {
    "rli_blackhole": _index_fault(windows=2, digest_loss_windows=0),
    "digest_loss": _index_fault(windows=0, digest_loss_windows=2),
}


def _site_names(sites: int) -> list[str]:
    if sites <= len(_SITE_NAMES):
        return list(_SITE_NAMES[:sites])
    return list(_SITE_NAMES) + [
        f"site-{i:02d}" for i in range(len(_SITE_NAMES), sites)
    ]


def _publish_wave(grid: DataGrid, prefix: str, per_site: int,
                  size_mb: float) -> dict[str, list[str]]:
    """Publish ``per_site`` files at every site; site -> its new LFNs."""
    published: dict[str, list[str]] = {}
    for name in grid.sites:
        site = grid.site(name)
        specs = []
        for i in range(per_site):
            lfn = f"{prefix}-{name}-{i:04d}.dat"
            path = site.config.storage_path(lfn)
            site.storage.pool.ensure_space(int(size_mb * MB))
            site.fs.create(path, int(size_mb * MB), now=grid.sim.now)
            specs.append({"path": path, "lfn": lfn})
        grid.run(until=site.client.publish_set(specs))
        published[name] = [spec["lfn"] for spec in specs]
    return published


def _covered(grid: DataGrid, lfn: str) -> bool:
    """Ground-truth index coverage: every holder is a candidate (direct
    memory reads; does not perturb index lookup counters)."""
    states = grid.rls.index.states
    return all(
        states[site].might_hold(lfn) for site in grid.rls.holders(lfn)
    )


def _await_coverage(grid: DataGrid, lfns: list[str], deadline: float,
                    interval: float):
    """Sim process: poll until the index covers every LFN (returns the
    wait) or the deadline passes (returns None)."""

    def poll():
        started = grid.sim.now
        while True:
            if all(_covered(grid, lfn) for lfn in lfns):
                return grid.sim.now - started
            if grid.sim.now >= deadline:
                return None
            yield grid.sim.timeout(interval)

    return grid.sim.spawn(poll(), name="rls-coverage-poll")


def _lookup_wave(grid: DataGrid, samples: list[tuple[str, str]],
                 require_exact: bool, errors: list[str],
                 label: str) -> tuple[int, int, int]:
    """Run routed ``info`` lookups; (performed, exact, phantoms).

    ``samples`` is (reader site, lfn).  Exactness compares the answer's
    location set with ground truth; phantoms are locations ground truth
    disowns — the contract violation that must never happen."""
    performed = exact = phantoms = 0
    for reader, lfn in samples:
        client = grid.site(reader).client
        holders = set(grid.rls.holders(lfn))
        try:
            info = grid.run(until=client.catalog.info(lfn))
        except Exception as exc:
            errors.append(f"{label}: {reader} lookup {lfn} failed: {exc}")
            continue
        performed += 1
        seen = {loc["location"] for loc in info.locations}
        ghost = seen - set(grid.rls.holders(lfn))
        if ghost:
            phantoms += len(ghost)
            errors.append(
                f"{label}: {reader} saw phantom locations {sorted(ghost)} "
                f"for {lfn}"
            )
        if seen == holders:
            exact += 1
        elif require_exact:
            errors.append(
                f"{label}: {reader} saw {sorted(seen)} for {lfn}, "
                f"ground truth {sorted(holders)}"
            )
    return performed, exact, phantoms


def run(
    sites: int = 10,
    files: int = 30,
    seed: int = 2001,
    campaign: str = "",
    lookups_per_site: int = 20,
    replicas_per_site: int = 5,
    period: float = 20.0,
    full_every: int = 4,
    size_mb: float = 1.0,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> RlsResult:
    """Run the two-tier location service through its full life cycle
    (``files`` is per site, in the first publish wave)."""
    wall_started = time.perf_counter()
    names = _site_names(sites)
    digest = DigestConfig(period=period, full_every=full_every)
    grid = DataGrid(
        [GdmpConfig(name) for name in names],
        catalog_host=names[0],
        seed=seed,
        rls=RlsConfig(digest=digest, lookup_timeout=10.0),
    )
    grid.enable_resilience(ResilienceConfig(rpc_timeout=10.0))
    streams = RandomStreams(seed)
    errors: list[str] = []
    started = grid.sim.now

    # -- wave 1: every site publishes its own files (writes stay local)
    wave1 = _publish_wave(grid, "rls1", files, size_mb)

    # -- arm the digest cadence (and, optionally, the fault campaign)
    grid.rls.start()
    faults = ArmedFaults(grid, CAMPAIGNS, campaign, seed)

    # -- mid-fault degradation probe: lookups must answer while the
    #    index is black-holed or starving (verify-on-use carries them)
    degraded = phantoms = 0
    degraded_ok = True
    if campaign:
        grid.run(until=grid.sim.timeout(20.0))  # inside the first window
        rng = streams["rls.lookups.degraded"]
        all_lfns = sorted(lfn for lfns in wave1.values() for lfn in lfns)
        samples = [
            (
                names[int(rng.integers(0, len(names)))],
                all_lfns[int(rng.integers(0, len(all_lfns)))],
            )
            for _ in range(sites * 2)
        ]
        degraded, _, phantoms = _lookup_wave(
            grid, samples, require_exact=False, errors=errors,
            label="degraded",
        )
        degraded_ok = degraded == len(samples)
        if not degraded_ok:
            errors.append(
                f"degraded: only {degraded}/{len(samples)} lookups "
                "answered under faults"
            )

    # -- wait out the campaign, then require full index coverage
    faults.drain()
    wave1_lfns = sorted(lfn for lfns in wave1.values() for lfn in lfns)
    deadline = grid.sim.now + (full_every + 1) * period + 30.0
    settled = grid.run(
        until=_await_coverage(grid, wave1_lfns, deadline, period / 4.0)
    )
    coverage_ok = settled is not None
    if not coverage_ok:
        errors.append("index never covered wave-1 ground truth")

    # -- wave 2: publish into a (now converged) index and time the
    #    staleness window until the index covers the new files
    wave2 = _publish_wave(grid, "rls2", max(2, files // 10), size_mb)
    wave2_lfns = sorted(lfn for lfns in wave2.values() for lfn in lfns)
    staleness_bound = (full_every + 1) * period + 30.0
    staleness = grid.run(
        until=_await_coverage(
            grid, wave2_lfns, grid.sim.now + staleness_bound, period / 8.0
        )
    )
    staleness_ok = staleness is not None
    staleness_window = staleness if staleness is not None else -1.0
    if not staleness_ok:
        errors.append(
            f"wave-2 files not covered within {staleness_bound:.0f}s"
        )

    # -- final exact lookup wave: cold caches, index-routed, must match
    #    ground truth exactly (the fault windows are all closed)
    for name in names:
        grid.site(name).client.catalog.invalidate()
    rng = streams["rls.lookups.final"]
    all_lfns = wave1_lfns + wave2_lfns
    samples = []
    for reader in names:
        for _ in range(lookups_per_site):
            samples.append(
                (reader, all_lfns[int(rng.integers(0, len(all_lfns)))])
            )
    performed, exact, final_phantoms = _lookup_wave(
        grid, samples, require_exact=True, errors=errors, label="final"
    )
    phantoms += final_phantoms
    lookups_ok = (
        degraded_ok
        and performed == len(samples)
        and exact == performed
        and phantoms == 0
    )

    # -- replication wave: replicate_set across sites exercises the
    #    RLI-routed source resolution and metadata-carrying adoption
    rng = streams["rls.replication"]
    replicas_made = 0
    replication_ok = True
    adoption = ReplicaAudit(errors)
    for i, reader in enumerate(names):
        donor = names[(i + 1) % len(names)]
        picks = list(wave1[donor])
        take = [
            picks[int(rng.integers(0, len(picks)))]
            for _ in range(min(replicas_per_site, len(picks)))
        ]
        take = sorted(set(take))
        try:
            grid.run(until=grid.site(reader).client.replicate_set(take))
        except Exception as exc:
            replication_ok = False
            errors.append(f"replication: {reader} <- {donor} failed: {exc}")
            continue
        # adopted: held at the reader, and in the reader's own LRC
        replicas_made += sum(
            adoption.check(grid.site(reader), lfn, grid.rls.backends[reader])
            for lfn in take
        )
    replication_ok = replication_ok and adoption.ok
    no_active = faults.windows_closed(errors)
    errors.extend(grid.leaks())

    # -- accounting: digest bandwidth vs naive per-write fan-out
    index_stats = grid.rls.index.stats
    push_stats = grid.rls.push_stats()
    writes = len(wave1_lfns) + len(wave2_lfns) + replicas_made
    naive_bytes = writes * (sites - 1) * REQUEST_MESSAGE_SIZE
    proxy_stats = {
        key: sum(
            grid.site(name).client.catalog.stats.get(key, 0)
            for name in names
        )
        for key in (
            "fallback_broadcasts", "verify_misses", "rli_unavailable",
            "negative_hits",
        )
    }

    export_telemetry(
        grid.metrics, grid.tracelog,
        metrics_json=metrics_json, trace_chrome=trace_chrome,
        show_report=show_report,
    )
    return RlsResult(
        seed=seed,
        campaign=campaign,
        sites=sites,
        files=len(wave1_lfns) + len(wave2_lfns),
        lookups=performed + degraded,
        exact_lookups=exact,
        degraded_lookups=degraded,
        phantom_answers=phantoms,
        fallback_broadcasts=proxy_stats["fallback_broadcasts"],
        verify_misses=proxy_stats["verify_misses"],
        rli_unavailable=proxy_stats["rli_unavailable"],
        negative_hits=proxy_stats["negative_hits"],
        staleness_window=staleness_window,
        staleness_bound=staleness_bound,
        digest_bytes=index_stats["digest_bytes"],
        naive_bytes=naive_bytes,
        digests_full=index_stats["digests_full"],
        digests_delta=index_stats["digests_delta"],
        pushes_lost=push_stats["pushes_lost"],
        replicas_made=replicas_made,
        coverage_ok=coverage_ok,
        lookups_ok=lookups_ok,
        staleness_ok=staleness_ok,
        replication_ok=replication_ok,
        faults_injected=faults.injected,
        no_active_faults=no_active,
        duration=grid.sim.now - started,
        wall_seconds=time.perf_counter() - wall_started,
        fingerprint=fingerprint(
            grid,
            faults.schedule,
            grid.rls.fingerprint(),
            ",".join(f"{k}={v}" for k, v in sorted(proxy_stats.items())),
        ),
        errors=tuple(errors),
    )


def report(result: RlsResult) -> None:
    """Print the convergence/contract verdict."""
    print_verdict(
        result,
        f"EXP-RLS — seed {result.seed}, {result.sites} sites, "
        f"{result.files} files{result.under}",
        [
            ["files published", result.files],
            ["routed lookups", result.lookups],
            ["exact final lookups", result.exact_lookups],
            ["degraded-mode lookups", result.degraded_lookups],
            ["phantom answers", result.phantom_answers],
            ["fallback broadcasts", result.fallback_broadcasts],
            ["verify-on-use misses", result.verify_misses],
            ["RLI unavailable", result.rli_unavailable],
            ["staleness window (s)",
             f"{result.staleness_window:.1f} (bound {result.staleness_bound:.0f})"],
            ["digest bytes", f"{result.digest_bytes:,}"],
            ["naive fan-out bytes", f"{result.naive_bytes:,}"],
            ["digest compression", f"{result.digest_compression:.1f}x"],
            ["digests full/delta",
             f"{result.digests_full}/{result.digests_delta}"],
            ["pushes lost", result.pushes_lost],
            ["replicas adopted", result.replicas_made],
            ["faults injected", result.faults_injected],
            ["index covers ground truth", result.coverage_ok],
            ["lookups exact", result.lookups_ok],
            ["staleness bounded", result.staleness_ok],
            ["replication adopted", result.replication_ok],
            ["sim-time (s)", f"{result.duration:.1f}"],
            ["wall time (s)", f"{result.wall_seconds:.1f}"],
        ],
    )
