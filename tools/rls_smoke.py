#!/usr/bin/env python
"""RLS smoke gate: the two-tier replica location service converges,
deterministically, with and without faults.

Runs EXP-RLS at a fixed seed and smoke-sized grid and checks:

* **convergence** — the bloom-digest index covers ground truth (every
  holding site is a candidate for every LFN), routed cross-site lookups
  match the per-site LRCs exactly with zero phantom locations, files
  published mid-run become visible within the bounded staleness window,
  and the replication wave's adoptions land in the destination LRCs;
* **determinism** — two back-to-back runs in the same process produce
  byte-identical fingerprints (fault schedule + per-site digest state +
  bloom fingerprints + router stats + full Prometheus export);
* **degradation coverage** — every campaign in ``rls.CAMPAIGNS``
  converges: a black-holed index forces lookups down the verify-on-use
  fallback (still answering correctly), dropped digest pushes widen
  staleness without wrong answers, and the index reconverges once the
  windows close;
* **publish path** — on an 8-site grid with every site publishing
  10-name sets back to back across several digest pushes, one
  ``publish_set`` stays within ``sites + 3`` bus requests (a regression
  to per-name uniqueness probing is ten times that), and the index
  covers every name within ``period + max phase`` of the last publish
  (a digest ack that drops the writes landing while its push is in
  flight leaves them uncovered until the next full refresh).

Usage:  PYTHONPATH=src python tools/rls_smoke.py
"""

from __future__ import annotations

import sys

from repro.experiments import rls
from repro.gdmp import DataGrid, GdmpConfig
from repro.rls import DigestConfig, RlsConfig

SEED = 2001
#: smoke-sized grid: enough sites for routing/fan-out to matter, small
#: enough file counts to stay fast
PARAMS = dict(
    sites=4, files_per_site=10, lookups_per_site=5, replicas_per_site=2,
    seed=SEED,
)


def check(campaign: str) -> list[str]:
    label = campaign or "fault-free"
    problems: list[str] = []
    first = rls.run(campaign=campaign, **PARAMS)
    second = rls.run(campaign=campaign, **PARAMS)
    for run_label, result in (("run1", first), ("run2", second)):
        if not result.converged:
            problems.append(
                f"{label}/{run_label}: did not converge: "
                + "; ".join(result.errors)
            )
    if campaign and first.faults_injected == 0:
        problems.append(f"{label}: no faults were injected")
    if campaign == "rli_blackhole" and (
        first.rli_unavailable == 0 and first.fallback_broadcasts == 0
    ):
        problems.append(
            f"{label}: lookups never degraded to verify-on-use fallback"
        )
    if campaign == "digest_loss" and first.pushes_lost == 0:
        problems.append(f"{label}: no digest pushes were dropped")
    if first.phantom_answers or second.phantom_answers:
        problems.append(
            f"{label}: lookups returned phantom locations (the one thing "
            "staleness must never cause)"
        )
    if first.fingerprint != second.fingerprint:
        problems.append(
            f"{label}: run fingerprints differ (digest state/routing/"
            "telemetry are not deterministic)"
        )
    if not problems:
        extra = (
            f"{first.faults_injected} faults, " if campaign else ""
        )
        print(
            f"  {label}: converged twice, {first.lookups} lookups "
            f"({first.verify_misses} verify misses, "
            f"{first.fallback_broadcasts} fallbacks), "
            f"staleness {first.staleness_window:.1f}s, "
            f"{extra}fingerprints identical "
            f"({len(first.fingerprint)} bytes)"
        )
    return problems


def check_publish_path() -> list[str]:
    """Envelope budget of one ``publish_set`` and the coverage delay
    after closed-loop publishing that overlaps the digest pushes."""
    sites, set_size, period = 8, 10, 5.0
    names = [f"s{i}" for i in range(sites)]
    grid = DataGrid(
        [GdmpConfig(name) for name in names],
        catalog_host=names[0],
        seed=SEED,
        # the next full refresh is far away: only deltas can cover
        rls=RlsConfig(digest=DigestConfig(period=period, full_every=50)),
    )
    grid.rls.start()
    grid.run(until=grid.sim.timeout(period))
    published: list[tuple[str, str]] = []  # (holding site, lfn)

    def bus_requests() -> float:
        return sum(
            child.value for child in grid.metrics.children("rpc.requests")
        )

    def publish_set(name: str, batch: int):
        site = grid.site(name)
        specs = []
        for i in range(set_size):
            lfn = f"smoke-{name}-{batch:03d}-{i}.dat"
            path = site.config.storage_path(lfn)
            site.fs.create(path, 1000, now=grid.sim.now)
            specs.append({"path": path, "lfn": lfn})
            published.append((name, lfn))
        return site.client.publish_set(specs)

    before = bus_requests()
    grid.run(until=publish_set(names[-1], 0))
    set_cost = bus_requests() - before

    stop_at = grid.sim.now + 2.0 * period

    def publisher(name: str):
        batch = 1
        while grid.sim.now < stop_at:
            yield publish_set(name, batch)
            batch += 1

    grid.run(until=grid.sim.all_of(
        [grid.sim.spawn(publisher(name)) for name in names]
    ))
    last_publish = grid.sim.now
    states = grid.rls.index.states
    bound = period + period * (sites - 1) / sites
    while grid.sim.now - last_publish <= bound and not all(
        states[site].might_hold(lfn) for site, lfn in published
    ):
        grid.run(until=grid.sim.timeout(period / 16.0))
    waited = grid.sim.now - last_publish

    problems: list[str] = []
    if set_cost > sites + 3:
        problems.append(
            f"publish path: one publish_set of {set_size} names cost "
            f"{set_cost:.0f} bus requests (budget {sites + 3})"
        )
    if waited > bound:
        problems.append(
            f"publish path: index did not cover {len(published)} names "
            f"within {bound:.1f}s of the last publish"
        )
    if not problems:
        print(
            f"  publish path: {set_cost:.0f} requests per {set_size}-name "
            f"set on {sites} sites, {len(published)} names covered "
            f"{waited:.1f}s after the last publish (bound {bound:.1f}s)"
        )
    return problems


def main() -> int:
    failures: list[str] = []
    for campaign in ("", *rls.CAMPAIGNS):
        print(f"rls_smoke: {campaign or 'fault-free'}")
        failures.extend(check(campaign))
    print("rls_smoke: publish path")
    failures.extend(check_publish_path())
    if failures:
        print("rls_smoke: FAILED")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"rls_smoke: fault-free + {len(rls.CAMPAIGNS)} campaigns "
        "converged deterministically"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
