#!/usr/bin/env python
"""Workload smoke gate: the claim-based standing pipeline converges,
deterministically, with and without faults.

Runs EXP-WORKLOAD at a fixed seed and smoke-sized request count and
checks:

* **convergence** — every generated request is admitted or shed, every
  queue task reaches a terminal state with no dead tasks and no leaked
  claims, every transfer obligation is held at its destination with the
  catalog's CRC, and the catalog registers each destination exactly once;
* **determinism** — two back-to-back runs in the same process produce
  byte-identical fingerprints (fault schedule + queue state + admission
  counters + component counters + full Prometheus export);
* **chaos coverage** — every fault campaign in ``workload.CAMPAIGNS``
  converges against the *standing* pipeline: component crashes expire
  leases that are silently re-claimed, and the keyed task queue keeps
  re-delivery exactly-once.

* **transfer-set path** — what the replicator drives for every bundle:
  a set costs its sources, not its files.  On a three-site grid, bus
  requests per replicated file stay at or below 3 (per-file dialling
  costs 8) and no set opens more GridFTP sessions than it has sources.

* **warm channels** — every file of a set after the first from its
  source opens its data channels from the windows the file before it
  left: at least (files − sets) × streams channels reused, fewer netsim
  flow-ticks per file than the same files pulled one conversation each,
  and no control session — so no parked channel — left at any server.

Usage:  PYTHONPATH=src python tools/workload_smoke.py
"""

from __future__ import annotations

import sys

from repro.experiments import workload
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB

SEED = 2001
#: smoke-sized arrival stream: enough ticks for the diurnal profile,
#: admission, and coalescing to all engage, small enough to stay fast
PARAMS = dict(requests=20_000, seed=SEED)


def check(campaign: str) -> list[str]:
    label = campaign or "fault-free"
    problems: list[str] = []
    first = workload.run(campaign=campaign, **PARAMS)
    second = workload.run(campaign=campaign, **PARAMS)
    for run_label, result in (("run1", first), ("run2", second)):
        if not result.converged:
            problems.append(
                f"{label}/{run_label}: did not converge: "
                + "; ".join(result.errors)
            )
    if campaign and first.faults_injected == 0:
        problems.append(f"{label}: no faults were injected")
    if first.fingerprint != second.fingerprint:
        problems.append(
            f"{label}: run fingerprints differ (queue state/admission/"
            "telemetry are not deterministic)"
        )
    if not problems:
        extra = (
            f"{first.faults_injected} faults, " if campaign else ""
        )
        print(
            f"  {label}: converged twice, {first.tasks} queue tasks, "
            f"{extra}fingerprints identical "
            f"({len(first.fingerprint)} bytes)"
        )
    return problems


#: files per transfer set on the smoke grid (a bundle's worth)
FILES = 8


def smoke_grid():
    """Three sites, ``FILES`` 2 MB files published at cern; returns the
    grid, the LFNs and a reader of summed metric families."""
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")],
        catalog_host="cern", seed=SEED,
    )
    cern = grid.site("cern")
    lfns = [f"set-{i}.db" for i in range(FILES)]
    for lfn in lfns:
        grid.run(until=cern.client.produce_and_publish(lfn, 2 * MB))

    def total(name: str) -> float:
        return sum(child.value for child in grid.metrics.children(name))

    return grid, lfns, total


def check_transfer_set_path() -> list[str]:
    """Request and session budget of ``replicate_set``, in seconds: a
    regression to dialling per file fails here, not in the benchmark."""
    grid, lfns, total = smoke_grid()
    problems: list[str] = []
    # the second puller has two sources to choose from per file
    for puller in ("anl", "caltech"):
        requests, sessions = total("rpc.requests"), total(
            "gridftp.sessions_opened"
        )
        reports = grid.run(until=grid.site(puller).client.replicate_set(lfns))
        per_file = (total("rpc.requests") - requests) / FILES
        opened = total("gridftp.sessions_opened") - sessions
        sources = len({report.source for report in reports})
        if per_file > 3:
            problems.append(
                f"transfer-set path: {puller} paid {per_file:.2f} bus "
                f"requests per replicated file (budget 3)"
            )
        if opened > sources:
            problems.append(
                f"transfer-set path: {puller} opened {opened:.0f} GridFTP "
                f"sessions for {sources} sources"
            )
        if not problems:
            print(
                f"  transfer-set path: {puller} pulled {FILES} files at "
                f"{per_file:.2f} bus requests each over {opened:.0f} "
                f"session(s)"
            )
    return problems


def check_warm_channels() -> list[str]:
    """Data-channel reuse inside ``replicate_set``, in seconds: a
    regression to a slow start per file fails here, not in the
    benchmark.  The cold cost is measured, not remembered: the same
    files pulled by ``replicate``, one conversation each, on a twin
    grid."""
    pullers = ("anl", "caltech")
    by_set, lfns, total = smoke_grid()
    for puller in pullers:
        by_set.run(until=by_set.site(puller).client.replicate_set(lfns))
    singly, _, _ = smoke_grid()
    for puller in pullers:
        for lfn in lfns:
            singly.run(until=singly.site(puller).client.replicate(lfn))
    moved = FILES * len(pullers)
    warm = by_set.engine.flow_tick_count / moved
    cold = singly.engine.flow_tick_count / moved
    reused = total("gridftp.channels_reused")
    streams = by_set.site(pullers[0]).config.parallel_streams
    expected = (FILES - 1) * len(pullers) * streams

    problems: list[str] = []
    if reused < expected:
        problems.append(
            f"warm channels: {reused:.0f} data channels reused, expected "
            f"at least {expected} ((files - sets) x streams)"
        )
    if not warm < cold:
        problems.append(
            f"warm channels: {warm:.1f} netsim flow-ticks per file in a "
            f"set, {cold:.1f} one conversation each: no slow start saved"
        )
    for site in by_set.sites.values():
        left = site.gridftp_server.open_sessions
        if left:
            problems.append(
                f"warm channels: {left} GridFTP session(s) left open at "
                f"{site.name} after its sets closed"
            )
    if not problems:
        print(
            f"  warm channels: {reused:.0f} channels reused, {warm:.1f} "
            f"flow-ticks per file (cold: {cold:.1f}), no session left"
        )
    return problems


def main() -> int:
    failures: list[str] = check_transfer_set_path() + check_warm_channels()
    for campaign in ("", *workload.CAMPAIGNS):
        print(f"workload_smoke: {campaign or 'fault-free'}")
        failures.extend(check(campaign))
    if failures:
        print("workload_smoke: FAILED")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"workload_smoke: fault-free + {len(workload.CAMPAIGNS)} campaigns "
        "converged deterministically"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
