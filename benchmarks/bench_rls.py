"""BENCH-RLS — two-tier replica location at the 10M-entry / 10-site scale.

Measures the headline claim of the sharded RLS against the single-host
catalog it replaces, on real data structures at full population:

* **central leg** — one ``GdmpCatalog`` holding every entry (10M in
  full mode); measures bulk-ingest rate and single-stream ``info`` /
  ``lfn_exists`` lookup rates, then frees it;
* **sharded leg** — one *real* LRC shard at 1/site of the population
  plus a fully-populated ``ReplicaLocationIndex`` (every site's bloom
  built and applied through the actual digest wire path); measures the
  end-to-end two-tier lookup: RLI candidates, then a verify-on-use
  probe per candidate at the LRC;
* **aggregate throughput** — LRC shards are independent hosts serving
  disjoint populations, so aggregate capacity is the measured two-tier
  single-stream rate times the site count.  The recorded
  ``aggregate_speedup`` (vs the central single-stream rate at *equal
  total entry count*) must stay >= 8x at 10 sites — the acceptance
  floor, gated by ``tools/perf_report.py --suite rls``;
* **index quality** — measured bloom false-positive rate over LFNs the
  probed site does not hold (each one costs a wasted verify RPC), and
  the digest compression ratio against shipping exact LFN deltas;
* **convergence leg** — EXP-RLS (sim) under the ``rli_blackhole``
  campaign must converge with lookups degrading to verify-on-use, so
  the recorded rate is never bought by dropping the soft-state
  machinery.

Print the record with ``tools/perf_report.py --suite rls [--smoke]
--output -``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.catalog.gdmp_catalog import GdmpCatalog
from repro.experiments import rls as rls_experiment
from repro.rls import DigestConfig, DigestSource, ReplicaLocationIndex
from repro.rls.digest import DELTA_ITEM_SIZE, digest_wire_size

__all__ = ["run_bench"]

SEED = 2001
FULL_SITES = 10
FULL_ENTRIES = 10_000_000
SMOKE_SITES = 4
SMOKE_ENTRIES = 200_000
#: sampled lookups per measured rate (enough to swamp timer noise)
FULL_SAMPLES = 200_000
SMOKE_SAMPLES = 20_000
#: ingest batch size (one publish_bulk envelope's worth)
BATCH = 10_000


def _lfn(site_idx: int, file_idx: int) -> str:
    return f"s{site_idx:02d}-{file_idx:08d}.dat"


def _site(idx: int) -> str:
    return f"site{idx:02d}"


def _file_spec(site_idx: int, file_idx: int) -> dict:
    return {
        "lfn": _lfn(site_idx, file_idx),
        "size": 1_000_000 + file_idx % 997,
        "modified": float(file_idx % 86_400),
        "crc": (site_idx * 2_654_435_761 + file_idx) & 0xFFFFFFFF,
    }


def _ingest(catalog: GdmpCatalog, site_idx: int, count: int,
            site: str | None = None) -> float:
    """Bulk-publish ``count`` files for one site; returns wall seconds."""
    site = site or _site(site_idx)
    started = time.perf_counter()
    for base in range(0, count, BATCH):
        batch = [
            _file_spec(site_idx, i)
            for i in range(base, min(base + BATCH, count))
        ]
        catalog.publish_bulk(site, batch)
    return time.perf_counter() - started


def _sample_lookups(rng, site_indices, per_site: int, samples: int):
    """Deterministic (site_idx, file_idx) lookup sample."""
    sites = rng.integers(0, len(site_indices), size=samples)
    files = rng.integers(0, per_site, size=samples)
    return [
        (site_indices[int(s)], int(f)) for s, f in zip(sites, files)
    ]


def run_bench(smoke: bool = False) -> dict:
    """Measure both legs; raise if the convergence leg fails."""
    sites = SMOKE_SITES if smoke else FULL_SITES
    entries = SMOKE_ENTRIES if smoke else FULL_ENTRIES
    samples = SMOKE_SAMPLES if smoke else FULL_SAMPLES
    per_site = entries // sites
    rng = np.random.default_rng(SEED)

    # ---- central leg: one catalog holding everything -----------------
    central = GdmpCatalog()
    central_ingest_s = 0.0
    for site_idx in range(sites):
        central_ingest_s += _ingest(central, site_idx, per_site)
    lookups = _sample_lookups(rng, list(range(sites)), per_site, samples)

    started = time.perf_counter()
    for site_idx, file_idx in lookups:
        central.info(_lfn(site_idx, file_idx))
    central_info_s = time.perf_counter() - started
    central_info_per_s = samples / central_info_s

    started = time.perf_counter()
    for site_idx, file_idx in lookups:
        central.lfn_exists(_lfn(site_idx, file_idx))
    central_exists_per_s = samples / (time.perf_counter() - started)

    del central  # free ~2 GB/M entries before building the sharded leg

    # ---- sharded leg: one real LRC + a fully-populated RLI -----------
    shard_site = _site(0)
    shard = GdmpCatalog()
    shard_ingest_s = _ingest(shard, 0, per_site)

    digest_config = DigestConfig()
    index = ReplicaLocationIndex(_site(i) for i in range(sites))
    digest_bytes = 0
    digest_build_s = 0.0
    for site_idx in range(sites):
        lfns = [_lfn(site_idx, i) for i in range(per_site)]
        source = DigestSource(_site(site_idx), lambda l=lfns: l,
                              digest_config)
        started = time.perf_counter()
        payload = source.next_digest()  # first push is always a full bloom
        applied = index.apply(payload, now=0.0)
        digest_build_s += time.perf_counter() - started
        assert applied and payload["kind"] == "full"
        digest_bytes += digest_wire_size(payload)
    # shipping the same knowledge as exact per-LFN delta items instead
    naive_delta_bytes = entries * DELTA_ITEM_SIZE

    # RLI-only candidate rate (the index tier in isolation)
    started = time.perf_counter()
    candidates_total = 0
    for site_idx, file_idx in lookups:
        candidates_total += len(
            index.candidate_sites(_lfn(site_idx, file_idx))
        )
    candidate_per_s = samples / (time.perf_counter() - started)
    # beyond the one true owner, every candidate is a false positive
    fp_rate = (candidates_total - samples) / (samples * (sites - 1))

    # End-to-end two-tier lookup: RLI candidates, then one verify probe
    # per candidate.  Every LRC is the same structure at the same
    # population, so the one real shard is the honest cost stand-in for
    # all of them: a true-owner probe pays a full ``info`` on a
    # shard-sized catalog (for foreign owners, on an equivalent resident
    # entry), a false-positive probe pays the O(1) miss path.
    started = time.perf_counter()
    verify_probes = 0
    for site_idx, file_idx in lookups:
        lfn = _lfn(site_idx, file_idx)
        owner = _site(site_idx)
        for candidate in index.candidate_sites(lfn):
            verify_probes += 1
            if candidate == owner:
                shard.info(lfn if site_idx == 0 else _lfn(0, file_idx))
            else:
                shard.lfn_exists(lfn)
    two_tier_s = time.perf_counter() - started
    two_tier_per_s = samples / two_tier_s

    # shards are independent hosts over disjoint populations: aggregate
    # capacity is per-stream rate x sites, vs the central host's single
    # stream at equal total entry count
    aggregate_per_s = two_tier_per_s * sites
    aggregate_speedup = aggregate_per_s / central_info_per_s

    del shard

    # ---- convergence leg: the soft-state machinery under fire --------
    chaos = rls_experiment.run(
        sites=sites,
        files=10 if smoke else 30,
        lookups_per_site=5 if smoke else 10,
        replicas_per_site=2 if smoke else 5,
        seed=SEED,
        campaign="rli_blackhole",
    )
    if not chaos.converged:
        raise AssertionError(
            "rli_blackhole leg did not converge: " + "; ".join(chaos.errors)
        )
    if chaos.faults_injected == 0:
        raise AssertionError("rli_blackhole leg injected no faults")
    if chaos.rli_unavailable == 0 and chaos.fallback_broadcasts == 0:
        raise AssertionError(
            "rli_blackhole leg never degraded to verify-on-use fallback"
        )

    return {
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "sites": sites,
        "entries": entries,
        "entries_per_site": per_site,
        "lookup_samples": samples,
        "central": {
            "ingest_s": central_ingest_s,
            "ingest_files_per_s": entries / central_ingest_s,
            "info_per_s": central_info_per_s,
            "exists_per_s": central_exists_per_s,
        },
        "shard": {
            "ingest_s": shard_ingest_s,
            "ingest_files_per_s": per_site / shard_ingest_s,
        },
        "rli": {
            "digest_build_s": digest_build_s,
            "digest_bytes": digest_bytes,
            "naive_delta_bytes": naive_delta_bytes,
            "digest_compression": naive_delta_bytes / digest_bytes,
            "candidate_per_s": candidate_per_s,
            "false_positive_rate": fp_rate,
            "verify_probes": verify_probes,
            "probes_per_lookup": verify_probes / samples,
        },
        "two_tier_per_s": two_tier_per_s,
        "aggregate_per_s": aggregate_per_s,
        "aggregate_speedup": aggregate_speedup,
        "chaos": {
            "campaign": "rli_blackhole",
            "faults_injected": chaos.faults_injected,
            "degraded_lookups": chaos.degraded_lookups,
            "rli_unavailable": chaos.rli_unavailable,
            "fallback_broadcasts": chaos.fallback_broadcasts,
            "pushes_lost": chaos.pushes_lost,
            "staleness_window_s": chaos.staleness_window,
            "converged": chaos.converged,
        },
    }
