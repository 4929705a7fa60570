#!/usr/bin/env python
"""The smoke gate: every campaign experiment converges, deterministically.

For each suite in ``SUITES`` and each of its legs — fault-free (where
``run`` has one) and every campaign in its ``CAMPAIGNS`` — the experiment
runs twice in this process at smoke size and a fixed seed, and the gate
checks, per leg:

* **convergence** — both verdicts hold (every declared check, every
  fault window closed, no ``errors``);
* **fault coverage** — a campaign leg injected at least one fault;
* **determinism** — the two fingerprints (fault schedule + plane state +
  experiment extras + full Prometheus export) are byte-identical;
* the suite's own assertions, declared beside its params below.

Then the named checks in ``CHECKS``: twelve budgets that fail here in
seconds instead of in a benchmark in minutes (``publish_path``,
``transfer_set_path``, ``warm_channels``, ``event_budget``,
``claim_budget``, ``pipe_fill``, ``table_builds``, ``lossy_stretch``,
``store_runs``, ``object_census``, ``directory_census``,
``span_census``); two
scenarios run twice in this process and diffed part by part
(``back_to_back``: ids, names and counts must restart with the
simulator; ``exporters``: shape and determinism of the trace and metrics
exports); and ``recorded``, which diffs ``python -m repro.experiments
all`` against the committed ``results/experiments_output.txt``.

Usage:  PYTHONPATH=src python tools/smoke.py [name ...]

Names select suites and checks; with none, everything runs.  Adding a
plane's experiment to the gate is one ``SUITES`` entry.
"""

from __future__ import annotations

import contextlib
import difflib
import gc
import io
import json
import random
import re
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

from repro.catalog import GdmpCatalog
from repro.experiments import chaos, chunks, rls, weather, workload
from repro.experiments.__main__ import main as experiments_cli
from repro.experiments.scaffold import counter_total, legs
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.calibration import cern_anl_testbed
from repro.netsim.flowtable import FlowTable
from repro.netsim.units import MB
from repro.objectdb import Container, EventStoreBuilder, Federation
from repro.objectrep.index_service import IndexService
from repro.rls import DigestConfig, RlsConfig
from repro.services import TraceLog
from repro.simulation.kernel import Simulator
from repro.telemetry import to_chrome_trace_json, to_prometheus_text
from repro.workload.components import Replicator
from repro.workload.production import ProductionRun

SEED = 2001
RECORDED = (
    Path(__file__).resolve().parent.parent / "results/experiments_output.txt"
)


@dataclass(frozen=True)
class Suite:
    """One campaign experiment at smoke size."""

    module: object            # exposes CAMPAIGNS and run(campaign=, seed=)
    params: dict              # smoke-size keywords for run
    #: the experiment-specific part of the one-line summary, from a result
    summary: Callable
    #: (legs it applies to or None for all, predicate over one result,
    #: what to report when the predicate is false)
    asserts: tuple = ()


SUITES = {
    # enough files/bytes for faults to intersect live transfers
    "chaos": Suite(
        chaos, dict(files=4, size_mb=8, chunk=2),
        asserts=(
            (None,
             lambda r: r.faults_injected == len(r.schedule.splitlines()) - 1,
             "the whole schedule was not applied (events applied != "
             "schedule lines below the header)"),
        ),
        summary=lambda r: f"{r.rounds} round(s)",
    ),
    # enough ticks for the diurnal profile, admission and coalescing to
    # all engage
    "workload": Suite(
        workload, dict(requests=20_000),
        summary=lambda r: f"{r.tasks} queue tasks",
    ),
    # enough sites for routing/fan-out to matter, small file counts
    "rls": Suite(
        rls,
        dict(sites=4, files=10, lookups_per_site=5, replicas_per_site=2),
        asserts=(
            (("rli_blackhole",),
             lambda r: r.rli_unavailable or r.fallback_broadcasts,
             "lookups never degraded to verify-on-use fallback"),
            (("digest_loss",), lambda r: r.pushes_lost,
             "no digest pushes were dropped"),
            (None, lambda r: not r.phantom_answers,
             "lookups returned phantom locations (the one thing "
             "staleness must never cause)"),
        ),
        summary=lambda r: (
            f"{r.lookups} lookups ({r.verify_misses} verify misses, "
            f"{r.fallback_broadcasts} fallbacks), "
            f"staleness {r.staleness_window:.1f}s"
        ),
    ),
    # weather and chunks are already smoke-sized: 7 hosts, 16 measured
    # transfers per leg / a handful of objects plus one dedup twin —
    # these are the recorded-baseline params
    "weather": Suite(
        weather, dict(files=4),
        asserts=(
            (("weather_blackhole",), lambda r: r.probe_fallbacks,
             "the black-holed weather plane never forced a probe fallback"),
            (("",), lambda r: r.improvement > 1.0,
             "smart selection did not beat static"),
            (None, lambda r: r.post_history,
             "the post wave never selected on history again"),
        ),
        summary=lambda r: (
            f"{r.improvement:.2f}x improvement ({r.history_selections} "
            f"history selections, {r.probe_fallbacks} probe fallbacks, "
            f"{r.post_history} post-wave)"
        ),
    ),
    "chunks": Suite(
        chunks, dict(objects=4),
        asserts=(
            (tuple(chunks.CAMPAIGNS), lambda r: r.chunks_repaired,
             "nothing was repaired"),
            (tuple(chunks.CAMPAIGNS), lambda r: r.repair_savings > 1.0,
             "chunked repair was not cheaper than whole-file "
             "re-replication"),
            (None, lambda r: r.chunks_deduped,
             "the shared-content twin deduped nothing"),
        ),
        summary=lambda r: (
            f"{r.chunks_uploaded} chunks placed ({r.chunks_deduped} "
            f"deduped), {r.scrub_passes} scrub passes"
            + (f", {r.chunks_repaired} chunks rebuilt, "
               f"{r.repair_savings:.2f}x repair savings" if r.campaign else "")
        ),
    ),
}


def check_leg(name: str, suite: Suite, campaign: str) -> list[str]:
    """Run one leg twice; the problems found (none: print its summary)."""
    label = f"{name}/{campaign or 'fault-free'}"
    first, second = (
        suite.module.run(campaign=campaign, seed=SEED, **suite.params)
        for _ in range(2)
    )
    problems: list[str] = []
    for run_label, result in (("run1", first), ("run2", second)):
        if not result.converged:
            problems.append(
                f"{label}/{run_label}: did not converge: "
                + "; ".join(result.errors)
            )
        if campaign and result.faults_injected == 0:
            problems.append(f"{label}/{run_label}: no faults were injected")
        problems.extend(
            f"{label}/{run_label}: {message}"
            for applies_to, holds, message in suite.asserts
            if (applies_to is None or campaign in applies_to)
            and not holds(result)
        )
    if first.fingerprint != second.fingerprint:
        problems.append(
            f"{label}: run fingerprints differ (schedule/plane state/"
            "telemetry are not deterministic)"
        )
    if not problems:
        faults = f"{first.faults_injected} faults, " if campaign else ""
        print(
            f"  {label}: converged twice, {suite.summary(first)}, {faults}"
            f"fingerprints identical ({len(first.fingerprint)} bytes)"
        )
    return problems


def check_publish_path() -> list[str]:
    """Envelope budget of one ``publish_set`` and the coverage delay
    after closed-loop publishing that overlaps the digest pushes: on an
    8-site grid with every site publishing 10-name sets back to back
    across several pushes, one set stays within ``sites + 3`` bus
    requests (a regression to per-name uniqueness probing is ten times
    that), and the index covers every name within ``period + max phase``
    of the last publish (a digest ack that drops the writes landing
    while its push is in flight leaves them uncovered until the next
    full refresh)."""
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

    before = counter_total(grid, "rpc.requests")
    grid.run(until=publish_set(names[-1], 0))
    set_cost = counter_total(grid, "rpc.requests") - before

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


#: files per transfer set on the path-check grid (a bundle's worth)
FILES = 8
PULLERS = ("anl", "caltech")


def _set_grid():
    """Three sites, ``FILES`` 2 MB files published at cern."""
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")],
        catalog_host="cern", seed=SEED,
    )
    lfns = [f"set-{i}.db" for i in range(FILES)]
    for lfn in lfns:
        grid.run(
            until=grid.site("cern").client.produce_and_publish(lfn, 2 * MB)
        )
    return grid, lfns


def check_transfer_set_path() -> list[str]:
    """What the replicator drives for every bundle: a set costs its
    sources, not its files.  Bus requests per replicated file stay at or
    below 3 (per-file dialling costs 8) and no set opens more GridFTP
    sessions than it has sources."""
    grid, lfns = _set_grid()
    problems: list[str] = []
    # the second puller has two sources to choose from per file
    for puller in PULLERS:
        requests = counter_total(grid, "rpc.requests")
        sessions = counter_total(grid, "gridftp.sessions_opened")
        reports = grid.run(until=grid.site(puller).client.replicate_set(lfns))
        per_file = (counter_total(grid, "rpc.requests") - requests) / FILES
        opened = counter_total(grid, "gridftp.sessions_opened") - sessions
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
    """Every file of a set after the first from its source opens its
    data channels from the windows the file before it left: at least
    (files − sets) × streams channels reused, fewer netsim flow-ticks
    per file than the same files pulled one conversation each (the cold
    cost is measured on a twin grid, not remembered), and nothing left
    behind (``DataGrid.leaks``: no control session — so no parked
    channel — pin, staging or reservation at any server)."""
    by_set, lfns = _set_grid()
    for puller in PULLERS:
        by_set.run(until=by_set.site(puller).client.replicate_set(lfns))
    singly, _ = _set_grid()
    for puller in PULLERS:
        for lfn in lfns:
            singly.run(until=singly.site(puller).client.replicate(lfn))
    moved = FILES * len(PULLERS)
    warm = by_set.engine.flow_tick_count / moved
    cold = singly.engine.flow_tick_count / moved
    reused = counter_total(by_set, "gridftp.channels_reused")
    streams = by_set.site(PULLERS[0]).config.parallel_streams
    expected = (FILES - 1) * len(PULLERS) * streams

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
    problems.extend(f"warm channels: {leak}" for leak in by_set.leaks())
    if not problems:
        print(
            f"  warm channels: {reused:.0f} channels reused, {warm:.1f} "
            f"flow-ticks per file (cold: {cold:.1f}), no session left"
        )
    return problems


def _pulled_sets():
    """The ``transfer_set_path`` scenario: both pullers replicate the
    whole set."""
    grid, lfns = _set_grid()
    for puller in PULLERS:
        grid.run(until=grid.site(puller).client.replicate_set(lfns))
    return grid


#: sites of the routed-read grid, names each publishes, and lookups each
#: makes of names published elsewhere
READERS, READ_NAMES, LOOKUPS = 8, 4, 6


def _routed_reads():
    """``READERS`` sites on one RLS grid each publish ``READ_NAMES``
    names; once two digest periods have covered them, every site looks
    up ``LOOKUPS`` names held elsewhere — each lookup one index question
    and one wave of LRC probes."""
    names = [f"s{i}" for i in range(READERS)]
    period = 5.0
    grid = DataGrid(
        [GdmpConfig(name) for name in names],
        catalog_host=names[0],
        seed=SEED,
        rls=RlsConfig(digest=DigestConfig(period=period)),
    )
    for name in names:
        site = grid.site(name)
        specs = []
        for i in range(READ_NAMES):
            lfn = f"read-{name}-{i}.dat"
            path = site.config.storage_path(lfn)
            site.fs.create(path, 1000, now=grid.sim.now)
            specs.append({"path": path, "lfn": lfn})
        grid.run(until=site.client.publish_set(specs))
    grid.rls.start()
    grid.run(until=grid.sim.timeout(2 * period))

    def reader(k: int):
        catalog = grid.site(names[k]).client.catalog
        for j in range(LOOKUPS):
            holder = names[(k + 1 + j) % READERS]
            yield catalog.info(f"read-{holder}-{j % READ_NAMES}.dat")

    grid.run(until=grid.sim.all_of(
        [grid.sim.spawn(reader(k)) for k in range(READERS)]
    ))
    return grid


#: kernel events scheduled per bus request, plus 10 %, per scenario:
#: the transfer set reads 579 / 42 = 13.8 since the stretched tick runs
#: on lossy links (641 / 42 = 15.3 when a lossy link ticked every RTT,
#: 741 / 42 = 17.6 when each send also minted a "delivered" event,
#: 1 011 / 42 = 24.1 through the endpoint and reply relays, 1 187 / 42 =
#: 28.3 when a call beneath a command was a process, 1 475 / 42 = 35.1
#: when every message was one), the routed reads 2 179 / 242 = 9.0 since
#: a name is a bulk resolve of one (2 195 / 242 = 9.1 through the
#: per-name resolve, 2 679 / 242 = 11.1 with the extra event, 3 921 /
#: 242 = 16.2 through the relays, 4 518 / 242 = 18.7 before).
#: A standing budget: lower a figure when a change lowers its count
EVENTS_PER_REQUEST = {"transfer set": 15.2, "routed reads": 9.9}
EVENT_SCENARIOS = {"transfer set": _pulled_sets, "routed reads": _routed_reads}


def check_event_budget() -> list[str]:
    """What a bus request costs the event loop, counted in events
    scheduled: on the ``transfer_set_path`` scenario, data plane
    included, and on routed catalog reads, where every request is a
    control-plane one."""
    problems = []
    for name, budget in EVENTS_PER_REQUEST.items():
        grid = EVENT_SCENARIOS[name]()
        requests = counter_total(grid, "rpc.requests")
        per_request = grid.sim._seq / requests
        report = (
            f"event budget: {name}: {grid.sim._seq} kernel events for "
            f"{requests:.0f} bus requests, {per_request:.1f} each "
            f"(budget {budget})"
        )
        if per_request > budget:
            problems.append(report)
        else:
            print(f"  {report}")
    return problems


#: ``task.claim`` + ``task.wait`` requests per queue task on the
#: fault-free workload scenario, plus 10 %: (62 + 24) / 206 = 0.42 since
#: ISSUE 22 made idle workers wait at the queue (140 / 206 = 0.68 when
#: they polled it every 5 s).  Lower it when a PR lowers the count
ASKS_PER_TASK = 0.46


def check_claim_budget() -> list[str]:
    """What finding work costs the bus: the fault-free leg of the
    ``workload`` suite, counted in requests that ask the queue for work
    (claims, and the waits idle workers park in) per task it held, with
    at least half the claims handing out work and not one of either
    timed out, retried or shed."""
    grid, engine = workload.build(seed=SEED, **SUITES["workload"].params)
    engine.start()
    grid.run(until=engine.done)
    asking = ("task.claim", "task.wait")
    claims, waits = (
        counter_total(grid, "rpc.requests", operation=op) for op in asking
    )
    per_task = (claims + waits) / len(engine.queue.tasks)
    useful = engine.queue.stats.claims / claims
    lost = sum(
        counter_total(grid, name, operation=op)
        for name in ("rpc.retries", "rpc.deadline_sheds") for op in asking
    ) + sum(
        site.request_client.stats["call_timeouts"]
        for site in grid.sites.values()
    )
    report = (
        f"claim budget: {claims:.0f} claims + {waits:.0f} waits for "
        f"{len(engine.queue.tasks)} queue tasks, {per_task:.2f} each "
        f"(budget {ASKS_PER_TASK}), {useful:.2f} of the claims useful "
        f"(floor 0.5), {lost:.0f} timed out, retried or shed"
    )
    if per_task > ASKS_PER_TASK or useful < 0.5 or lost:
        return [report]
    print(f"  {report}")
    return []


#: TCP retransmits per delivered MB on the fault-free workload scenario,
#: plus 10 %: 71 / 192 = 0.37 with two sets sharing each 25 Mbit/s pipe
#: (5 / 192 = 0.03 when a site ran one set at a time).  Over-admission —
#: a width past "full" — shows here first (ROADMAP 2(b))
RETRANSMITS_PER_MB = 0.41
#: sim-seconds for the same scenario to converge: 50.0 measured, 70.0
#: when a site ran one set at a time
CONVERGE_WITHIN = 55.0


def check_pipe_fill() -> list[str]:
    """Every site keeps its inbound pipe full and no fuller: on the
    fault-free leg of the ``workload`` suite each Replicator had at least
    two sets in flight at once and never more than the largest width it
    derived, the links paid for it within the retransmit budget, and the
    run converged in the time overlapping buys."""
    grid, engine = workload.build(seed=SEED, **SUITES["workload"].params)
    started = grid.sim.now
    engine.start()
    grid.run(until=engine.done)
    took = grid.sim.now - started
    replicators = [
        component for _, component in sorted(engine.components.items())
        if isinstance(component, Replicator)
    ]
    per_mb = counter_total(grid, "netsim.tcp.retransmits") / (
        counter_total(grid, "netsim.bytes_delivered") / MB
    )
    problems = [
        f"pipe fill: {r.name} had at most {r.peak_sets} set(s) in flight "
        f"(want 2 ... {r.peak_width}, the largest width it derived)"
        for r in replicators if not 2 <= r.peak_sets <= r.peak_width
    ]
    if per_mb > RETRANSMITS_PER_MB:
        problems.append(
            f"pipe fill: {per_mb:.2f} retransmits per delivered MB "
            f"(budget {RETRANSMITS_PER_MB}): the pipes are over-admitted"
        )
    if took > CONVERGE_WITHIN:
        problems.append(
            f"pipe fill: converged in {took:.1f} sim-s "
            f"(budget {CONVERGE_WITHIN})"
        )
    if not problems:
        print(
            "  pipe fill: "
            + ", ".join(
                f"{r.site.name} width {r.pipe.width} peak {r.peak_sets}"
                for r in replicators
            )
            + f"; {per_mb:.2f} retransmits per MB (budget "
            f"{RETRANSMITS_PER_MB}), converged in {took:.1f} sim-s "
            f"(budget {CONVERGE_WITHIN})"
        )
    return problems


def check_table_builds() -> list[str]:
    """The engine keeps one flow table for a whole run: the fault-free
    leg of the ``workload`` suite (hundreds of opens and retirements)
    constructs no more flow tables than one plus the kernel cutovers of
    the table it keeps.  A plain count, so the check is deterministic."""
    before = FlowTable.builds
    grid, engine = workload.build(seed=SEED, **SUITES["workload"].params)
    engine.start()
    grid.run(until=engine.done)
    built = FlowTable.builds - before
    table = grid.engine._table
    opened = counter_total(grid, "netsim.flows_opened")
    report = (
        f"table builds: {built} flow table(s) for {opened:.0f} flows "
        f"opened, {table.cutovers} kernel cutover(s) (budget "
        f"{1 + table.cutovers})"
    )
    if built > 1 + table.cutovers:
        return [report]
    print(f"  {report}")
    return []


#: share of a lone default-buffer stream's ticks over the lossy CERN-ANL
#: testbed that must be settled in stretched windows: 1 464 of 1 548 =
#: 0.946 since the planner reads the loss draws ahead (0 before)
SETTLED_SHARE = 0.90


def check_lossy_stretch() -> list[str]:
    """Random loss does not switch the stretched tick off: one 100 MB
    stream with the default buffer over ``cern_anl_testbed()`` (a lossy
    link) spends at least ``SETTLED_SHARE`` of its ticks settled in
    windows.  A plain count, so the check is deterministic."""
    sim, _topology, engine = cern_anl_testbed()
    pool = engine.open_transfer("cern", "anl", nbytes=100 * MB)
    sim.run(until=pool.done)
    full, settled = engine.tick_count, engine.settled_tick_count
    share = settled / (full + settled)
    report = (
        f"lossy stretch: {settled} of {full + settled} ticks settled in "
        f"windows ({share:.3f}, budget >= {SETTLED_SHARE})"
    )
    if share < SETTLED_SHARE:
        return [report]
    print(f"  {report}")
    return []


def check_store_runs() -> list[str]:
    """An event store is written in runs: a 10 000-event
    ``STANDARD_TYPES`` build stores each (type, file) chunk with one
    ``Container.extend`` call, 40 in all, and calls ``Container.append``
    for no object.  A plain count, so the check is deterministic."""
    with mock.patch.object(
        Container, "append", autospec=True, side_effect=Container.append
    ) as append, mock.patch.object(
        Container, "extend", autospec=True, side_effect=Container.extend
    ) as extend:
        federation = Federation("runs", site="cern")
        EventStoreBuilder(seed=SEED).build(federation, n_events=10_000)
    chunks = len(federation.database_names)
    report = (
        f"store runs: {extend.call_count} Container.extend and "
        f"{append.call_count} Container.append call(s) for "
        f"{federation.object_count} objects in {chunks} (type, file) "
        f"chunks (budget one extend per chunk, no append)"
    )
    if append.call_count or extend.call_count != chunks or chunks != 40:
        return [report]
    print(f"  {report}")
    return []


#: objects CPython's cyclic collector tracks per stored object after a
#: 10 000-event build of the four standard types, plus 10 %: 322-329 /
#: 40 000 = 0.0081 since a container keeps its objects as columns
#: (140 741 / 40 000 = 3.52 when each was an OID, a PersistentObject and
#: an association dict and list).  Lower it when a change lowers the count
TRACKED_PER_STORED = 0.0089


def check_object_census() -> list[str]:
    """What an event store costs the cyclic collector, which walks every
    object it tracks at each full collection: the tracked objects
    (``gc.get_objects()`` after ``gc.collect()``) a 10 000-event
    ``STANDARD_TYPES`` build adds, per object stored."""
    # a small build first pays lazy imports and caches
    EventStoreBuilder(seed=SEED).build(
        Federation("warm", site="cern"), n_events=10, events_per_file=5
    )
    gc.collect()
    before = len(gc.get_objects())
    federation = Federation("census", site="cern")
    EventStoreBuilder(seed=SEED).build(federation, n_events=10_000)
    gc.collect()
    added = len(gc.get_objects()) - before
    per_stored = added / federation.object_count
    report = (
        f"object census: {added} tracked objects for "
        f"{federation.object_count} stored, {per_stored:.4f} each "
        f"(budget {TRACKED_PER_STORED})"
    )
    if per_stored > TRACKED_PER_STORED:
        return [report]
    print(f"  {report}")
    return []


#: objects CPython's cyclic collector tracks per directory entry after an
#: 8 × 3 000 ``GdmpCatalog.publish_bulk`` build (counted with everything
#: older frozen out of ``gc.get_objects()``), plus 10 %: 442 / 24 011 =
#: 0.0184 since the directory keeps rows, columns and postings (216 075 /
#: 24 011 = 9.0 when each entry was an ``Entry``, a dict of one-element
#: lists and a posting dict per distinct value).  Lower it when a change
#: lowers the count
TRACKED_PER_ENTRY = 0.0203
#: bytes tracemalloc traces per directory entry after the same build,
#: plus 10 %: 23 486 667 / 24 011 = 978 since the directory interns the
#: ``str`` values it stores (a run number, a timestamp, a size repeated
#: at every site is one object); 1 104 when every entry held its own
#: copy of each.  978 is the check run first in its process: about 80 B
#: of it is the interpreter's table of interned strings growing, which
#: a later build in the same process finds grown (898).  Lower it when
#: a change lowers the count
TRACED_PER_ENTRY = 1076
CENSUS_SITES = ("cern", "anl", "caltech", "slac", "fnal", "bnl", "ral", "in2p3")
CENSUS_FILES = 3000


def census_files(site: str, count: int) -> list[dict]:
    """``count`` registrations shaped like ``catalog_lookup``'s: a run
    out of 400 and a kind out of three, drawn from the seed."""
    rng = random.Random(f"{SEED}-{site}")
    return [
        {
            "lfn": f"cl-{site}-{i:06d}.dat", "size": 1000.0 + i,
            "modified": 0.0, "crc": i,
            "attributes": {
                "run": rng.randrange(400),
                "kind": rng.choice(("aod", "esd", "raw")),
            },
        }
        for i in range(count)
    ]


def check_directory_census() -> list[str]:
    """What the replica catalog's directory costs the cyclic collector
    and the heap: the tracked objects (``gc.get_objects()`` after
    ``gc.collect()``, with what lived before frozen out) and the bytes
    tracemalloc traces that an 8 × 3 000 ``publish_bulk`` build adds,
    per directory entry."""
    # a small build first pays lazy imports and caches
    GdmpCatalog().publish_bulk("warm", census_files("warm", 10))
    gc.collect()
    gc.freeze()  # what lives now is out of the count, whatever happens to it
    tracemalloc.start()
    try:
        catalog = GdmpCatalog()
        for site in CENSUS_SITES:
            catalog.publish_bulk(site, census_files(site, CENSUS_FILES))
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
        added = len(gc.get_objects())
    finally:
        tracemalloc.stop()
        gc.unfreeze()
    entries = len(catalog.catalog.directory)
    per_entry = added / entries
    bytes_per_entry = traced / entries
    report = (
        f"directory census: {added} tracked objects for {entries} entries, "
        f"{per_entry:.4f} each (budget {TRACKED_PER_ENTRY}); {traced} B "
        f"traced, {bytes_per_entry:.0f} B each (budget {TRACED_PER_ENTRY})"
    )
    if per_entry > TRACKED_PER_ENTRY or bytes_per_entry > TRACED_PER_ENTRY:
        return [report]
    print(f"  {report}")
    return []


#: objects CPython's cyclic collector tracks per span after
#: ``CENSUS_PAIRS`` bus-shaped client + server span pairs, plus 10 %:
#: 15 / 20 001 = 0.00075 since the trace log keeps columns (20 008 /
#: 20 001 = 1.0 when each span was a ``Span`` object).  Lower it when a
#: change lowers the count
TRACKED_PER_SPAN = 0.00082
CENSUS_PAIRS = 10_000


def census_spans(log: TraceLog, pairs: int) -> None:
    """``pairs`` spans shaped like one bus request each: a client span
    under one root, with an attribute, and the server span it causes."""
    root = log.begin("gdmp:replicate-set", host="anl", service="gdmp",
                     count=pairs)
    for i in range(pairs):
        client = log.begin(
            "gdmp:catalog.info_bulk", parent=root.context, kind="client",
            host="anl", service="gdmp", lfn=f"census-{i:06d}.dat",
        )
        server = log.begin(
            "gdmp:catalog.info_bulk", parent=client.context_until(30.0),
            kind="server", host="cern", service="gdmp",
        )
        log.finish(server)
        log.finish(client, "error", detail="no such lfn")
    log.finish(root)


def check_span_census() -> list[str]:
    """What the trace log costs the cyclic collector: the tracked objects
    (``gc.get_objects()`` after ``gc.collect()``, with what lived before
    frozen out) ``CENSUS_PAIRS`` client + server span pairs add, per
    span."""
    # a small log first pays lazy imports and caches
    census_spans(TraceLog(Simulator()), 10)
    gc.collect()
    gc.freeze()  # what lives now is out of the count, whatever happens to it
    try:
        log = TraceLog(Simulator())
        census_spans(log, CENSUS_PAIRS)
        gc.collect()
        added = len(gc.get_objects())
    finally:
        gc.unfreeze()
    per_span = added / len(log)
    report = (
        f"span census: {added} tracked objects for {len(log)} spans, "
        f"{per_span:.5f} each (budget {TRACKED_PER_SPAN})"
    )
    if per_span > TRACKED_PER_SPAN:
        return [report]
    print(f"  {report}")
    return []


def run_twice(label: str, scenario: Callable[[], dict], *shape_checks) -> list[str]:
    """Run ``scenario`` twice in this process and diff the runs part by
    part (a problem quotes the first differing lines), then ask each of
    ``shape_checks`` what is wrong with the first run's parts.  A
    module-level counter — an id sequence, an endpoint serial — advances
    across runs and shows up here although each run alone is
    deterministic: every sequence must be scoped to its ``Simulator``."""

    def lines(part) -> list[str]:
        if not isinstance(part, str):
            part = json.dumps(part, indent=2, sort_keys=True)
        return part.splitlines()

    first, second = scenario(), scenario()
    problems = []
    for name in first:
        delta = list(difflib.unified_diff(
            lines(first[name]), lines(second[name]), lineterm="", n=0
        ))[2:]
        if delta:
            problems.append(
                f"{label}: {name} differs between back-to-back runs: "
                + " ".join(delta[:6])
            )
    problems += [
        f"{label}: {problem}" for check in shape_checks
        for problem in check(first)
    ]
    if not problems:
        print(f"  {label}: two runs in one process byte-identical in "
              f"{', '.join(first)}")
    return problems


def back_to_back_scenario() -> dict:
    """One small grid workload touching every id-allocating subsystem:
    a production run (db ids), publish/subscribe + replicate (request ids,
    reply-service names, trace ids), and an index snapshot (snapshot
    serials)."""
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=anl.client.subscribe_to("cern"))
    production = ProductionRun(
        cern, n_files=3, mean_file_size=2 * MB, interval=1.0, seed=7
    )
    grid.run(until=production.start())
    report = grid.run(until=anl.client.replicate(sorted(cern.server.held)[0]))
    grid.run(until=IndexService(cern).publish_snapshot())
    return {
        "sim_now": grid.sim.now,
        "trace_spans": grid.tracelog.to_records(),
        "catalog_lfns": sorted(grid.catalog_backend.list_lfns()),
        "replicated": [report.lfn, report.source, report.total_duration],
        "reply_services": {
            name: [
                site.request_client.reply_service,
                site.gridftp_client.bus.reply_service,
            ]
            for name, site in sorted(grid.sites.items())
        },
        # the mover has no ``stats``: all it counts is in the registry
        "stats": {
            name: {
                "request_server": site.request_server.stats,
                "request_client": site.request_client.stats,
                "gridftp_server": site.gridftp_server.stats,
                "gridftp_client": site.gridftp_client.bus.stats,
                "gdmp_server": site.server.stats,
                "gdmp_client": site.client.stats,
            }
            for name, site in sorted(grid.sites.items())
        },
        "metrics": grid.metrics.snapshot(),
        "prometheus": to_prometheus_text(grid.metrics),
    }


def exporters_scenario() -> dict:
    """One small replication, as the exporters render it."""
    grid = DataGrid([GdmpConfig("cern", parallel_streams=2), GdmpConfig("anl")])
    grid.run(until=grid.site("cern").client.produce_and_publish("smoke.db", 2 * MB))
    grid.run(until=grid.site("anl").client.replicate("smoke.db"))
    return {
        "prometheus": to_prometheus_text(grid.metrics),
        "chrome_trace": to_chrome_trace_json(grid.tracelog),
        "snapshot": grid.metrics.snapshot(),
    }


def chrome_shape_problems(parts: dict) -> list[str]:
    """Structural problems in a Chrome trace-event document; the last
    is a request path (RPC, GridFTP control, catalog update) not all
    visible in the complete ("X") events."""
    events = json.loads(parts["chrome_trace"]).get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    problems: list[str] = []
    flow_ids: dict[str, list[str]] = {"s": [], "f": []}
    names = set()
    for i, event in enumerate(events):
        problems.extend(
            f"event {i} lacks {key!r}"
            for key in ("ph", "pid", "name") if key not in event
        )
        ph = event.get("ph")
        if ph == "X":
            if "ts" not in event or "dur" not in event:
                problems.append(f"X event {i} lacks ts/dur")
            names.add(event.get("name"))
        elif ph in flow_ids:
            flow_ids[ph].append(event.get("id"))
    if sorted(flow_ids["s"]) != sorted(flow_ids["f"]):
        problems.append("flow arrows do not pair up (s ids != f ids)")
    if not any(
        e.get("ph") == "M" and e.get("name") == "process_name" for e in events
    ):
        problems.append("no process_name metadata events")
    problems.extend(
        f"no span names containing {needle!r}"
        for needle in ("gdmp:", "gridftp:", "catalog.")
        if not any(isinstance(n, str) and needle in n for n in names)
    )
    return problems


def snapshot_problems(parts: dict) -> list[str]:
    """Emptiness/ordering problems in a metrics snapshot."""
    snapshot = parts["snapshot"]
    if not snapshot:
        return ["metrics snapshot is empty"]
    problems: list[str] = []
    if list(snapshot) != sorted(snapshot):
        problems.append("metric family names are not sorted")
    for name, family in snapshot.items():
        labels = [
            tuple(sorted(child["labels"].items()))
            for child in family.get("children", [])
        ]
        if not labels:
            problems.append(f"family {name!r} has no children")
        elif labels != sorted(labels):
            problems.append(f"children of {name!r} are not label-sorted")
    return problems


#: the recorded output's lines that derive from the host's clock: the two
#: catalog-scale rows (a population, then five rates/latencies), the
#: workload's requests/s, and the three ``wall time (s)`` rows
WALL_DERIVED = re.compile(
    r"\s*\d+(\s+\d+\.\d+){5}$"
    r"|sustained requests/s \(wall\)"
    r"|\s*wall time \(s\)"
)


def check_recorded() -> list[str]:
    """``python -m repro.experiments all`` still prints the committed
    ``results/experiments_output.txt``, wall-derived lines aside."""

    def masked(text: str) -> list[str]:
        return [
            "<wall-derived>" if WALL_DERIVED.match(line) else line
            for line in text.splitlines()
        ]

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        experiments_cli(["all"])
    diff = list(difflib.unified_diff(
        masked(RECORDED.read_text(encoding="utf-8")),
        masked(printed.getvalue()),
        "results/experiments_output.txt", "experiments all",
        lineterm="", n=0,
    ))
    if diff:
        return [f"recorded: {line}" for line in diff]
    print("  recorded: `experiments all` matches the committed output")
    return []


CHECKS = {
    "publish_path": check_publish_path,
    "transfer_set_path": check_transfer_set_path,
    "warm_channels": check_warm_channels,
    "event_budget": check_event_budget,
    "claim_budget": check_claim_budget,
    "pipe_fill": check_pipe_fill,
    "table_builds": check_table_builds,
    "lossy_stretch": check_lossy_stretch,
    "store_runs": check_store_runs,
    "object_census": check_object_census,
    "directory_census": check_directory_census,
    "span_census": check_span_census,
    # global-state leaks: everything a run names or counts
    "back_to_back": lambda: run_twice("back to back", back_to_back_scenario),
    # the trace and metrics exports: deterministic and well formed
    "exporters": lambda: run_twice(
        "exporters", exporters_scenario,
        chrome_shape_problems, snapshot_problems,
    ),
    "recorded": check_recorded,
}


def main(argv: list[str], suites=SUITES, checks=CHECKS) -> int:
    unknown = [name for name in argv if name not in {**suites, **checks}]
    if unknown:
        print(f"unknown suite/check: {', '.join(unknown)} "
              f"(one of: {', '.join([*suites, *checks])})")
        return 2
    failures: list[str] = []
    for name in argv or [*suites, *checks]:
        print(f"smoke: {name}")
        if name in suites:
            for campaign in legs(suites[name].module):
                failures.extend(check_leg(name, suites[name], campaign))
        else:
            failures.extend(checks[name]())
    if failures:
        print("smoke: FAILED")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("smoke: every leg converged deterministically, every check held")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
