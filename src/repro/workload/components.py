"""The standing pipeline: picker → bundler → replicator → verifier.

Each component is a long-lived :class:`~repro.simulation.kernel.Process`
at one destination site, looping claim → work → complete against the
shared :mod:`~repro.workload.queue`, and waiting *at the queue* whenever
its lane is empty: nobody asks on a timer.  The one-shot replication path is
now a *stage* of this pipeline: the replicator drives
``GdmpClient.replicate_set`` (ranked-replica failover, batched catalog
traffic) exactly as an interactive caller would, but under a claim lease
with heartbeat renewal — and not one set at a time: a site's one
replicator keeps as many bundles in flight, each a process with a lease
and a heartbeat of its own, as it takes to fill the site's inbound pipe
(§6's parallel streams, one level up; the width is derived, see
:class:`Replicator`).

Task flow (all tasks carry the destination site):

``pick``    batched user demand (``lfn → request count``) from the
            arrival generator.  The picker fans it out to keyed ``xfer``
            tasks — the key ``xfer:<lfn>@<site>`` coalesces however many
            requests (or picker re-claims after a crash) into one
            transfer obligation.
``xfer``    one file owed at one site.  The bundler claims several and
            packs them into a campaign.
``bundle``  a transfer campaign (list of lfns).  The replicator runs it
            through ``replicate_set(skip_held=True)``, beside as many
            others as its pipe has room for, and submits keyed
            ``verify`` tasks for the outcome.
``verify``  one replica to audit: bytes on disk, CRC and size against
            the catalog, location registered.  Keyed per (lfn, site), so
            re-transfers collapse into one audit.

Crash safety is leases + idempotence, not careful shutdown: a component
killed mid-task simply stops renewing; the lease expires and another
claimant re-runs the stage.  Every stage tolerates being run twice —
keyed submission coalesces, ``skip_held`` makes re-transfer a no-op,
catalog registration and the verifier's checks are idempotent — so the
pipeline is exactly-once in effect while only at-least-once in execution.
"""

from __future__ import annotations

from typing import Optional

from repro.gdmp.replica_selection import PipeWidth, pipe_width
from repro.gdmp.request_manager import GdmpError
from repro.services.bus import ServiceError
from repro.simulation.kernel import Interrupt, Process
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry, Section
from repro.telemetry.report import fmt

__all__ = [
    "PipelineComponent",
    "Picker",
    "Bundler",
    "Replicator",
    "Verifier",
    "SETS_IN_FLIGHT_SECTION",
    "xfer_key",
    "verify_key",
]


def xfer_key(lfn: str, site: str) -> str:
    """Dedup key of the single transfer obligation for (lfn, site)."""
    return f"xfer:{lfn}@{site}"


def verify_key(lfn: str, site: str) -> str:
    """Dedup key of the single audit obligation for (lfn, site)."""
    return f"verify:{lfn}@{site}"


class PipelineComponent:
    """Base claim-loop: claim this component's task type; on an empty
    lane, wait at the queue until it has work, then claim again.  The
    wait runs half a lease at a time and holds nothing, so a component
    crashed while parked costs no task a lease.  ``poll`` is only the
    back-off after the queue could not be reached.

    Subclasses implement ``work(task)`` as a generator; its failure modes
    split three ways — :class:`ServiceError` fails the task retryably
    (back to pending, another claim will re-run it),
    :class:`~repro.simulation.kernel.Interrupt` is a crash (the loop
    dies, leaving the claim to expire), anything else is a bug and
    propagates.
    """

    NAME = ""           # component kind (picker/bundler/...)
    TYPE = ""           # task type this component claims
    BATCH = 1           # tasks per claim

    def __init__(self, sim, proxy, site, *,
                 poll: float = 5.0, lease: float = 60.0,
                 metrics: MetricsRegistry = NO_METRICS):
        self.sim = sim
        self.proxy = proxy
        self.site = site            # GdmpSite runtime
        self.poll = poll
        self.lease = lease
        self.metrics = metrics
        self.name = f"{self.NAME}@{site.name}"   # fault-injection target
        self.worker = self.name
        self.process: Optional[Process] = None
        self.crashes = 0
        self.claimed = 0
        self.completed = 0
        self.failed_tasks = 0
        self.errors = 0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> Process:
        """(Re)spawn the claim loop."""
        self.process = self.sim.spawn(
            self._run(), name=f"workload-{self.name}"
        )
        return self.process

    def running(self) -> bool:
        return self.process is not None and self.process.is_alive

    def crash(self) -> bool:
        """Kill the claim loop mid-flight (fault injection); claims it
        holds are abandoned to lease expiry."""
        if not self.running():
            return False
        self.process.interrupt("component-crash")
        self.crashes += 1
        return True

    def fingerprint(self) -> str:
        """This component's line of the engine's determinism fingerprint."""
        return (
            f"component {self.name} claimed={self.claimed} "
            f"completed={self.completed} failed={self.failed_tasks} "
            f"errors={self.errors} crashes={self.crashes}"
        )

    def _count(self, event: str) -> None:
        self.metrics.counter(
            "workload.component", component=self.TYPE,
            site=self.site.name, event=event,
        ).inc()

    # -- the claim loop ---------------------------------------------------
    def _run(self):
        lane = (self.TYPE, self.site.name)
        try:
            while True:
                try:
                    tasks = yield self.proxy.claim(
                        self.worker, *lane,
                        limit=self.BATCH, lease=self.lease,
                    )
                    if not tasks:
                        while not (
                            yield self.proxy.wait(*lane, self.lease / 2.0)
                        ):
                            pass
                        continue
                except ServiceError:
                    # queue unreachable (fault window): back off and retry
                    self.errors += 1
                    self._count("claim_error")
                    yield self.sim.timeout(self.poll)
                    continue
                self.claimed += len(tasks)
                yield from self._handle(tasks)
        except Interrupt:
            self._count("crashed")
            return

    def _handle(self, tasks: list[dict]):
        for task in tasks:
            try:
                result = yield from self.work(task)
            except ServiceError as exc:
                yield from self._fail(task, exc)
            else:
                self.completed += 1
                self._count("task_done")
                yield from self._settle(
                    self.proxy.complete(
                        task["task_id"], task["claim_token"], result=result
                    )
                )

    def _fail(self, task: dict, exc: ServiceError):
        """Fail one task retryably: back to pending for another claim."""
        self.failed_tasks += 1
        self._count("task_failed")
        yield from self._settle(
            self.proxy.fail(
                task["task_id"], task["claim_token"],
                error=str(exc), retryable=True,
            )
        )

    def _settle(self, call):
        """Report a verdict to the queue; a lost report is fine — the
        lease expires and the (idempotent) stage re-runs."""
        try:
            yield call
        except ServiceError:
            self.errors += 1
            self._count("settle_error")

    def work(self, task: dict):
        """Stage body; generator returning the task result."""
        raise NotImplementedError


class Picker(PipelineComponent):
    """Demand → transfer obligations.

    A ``pick`` task carries a multiplicity map; each distinct file
    becomes one keyed ``xfer`` task (duplicate keys coalesce at the
    queue), so a million requests for a hundred files cost a hundred
    transfer tasks.
    """

    NAME = "picker"
    TYPE = "pick"
    BATCH = 4

    def work(self, task: dict):
        demand = task["payload"]["demand"]
        submit = [
            {
                "type": "xfer",
                "site": task["site"],
                "key": xfer_key(lfn, task["site"]),
                "payload": {"lfn": lfn, "requests": count},
            }
            for lfn, count in sorted(demand.items())
        ]
        if submit:
            yield self.proxy.submit_bulk(submit)
        return {"files": len(submit),
                "requests": sum(demand.values())}


class Bundler(PipelineComponent):
    """Transfer obligations → campaigns.

    Packs up to ``BATCH`` claimed ``xfer`` tasks into one ``bundle``
    task, reusing :meth:`GdmpClient.replicate_set`'s batched catalog
    envelopes downstream.  The bundle is submitted *before* the member
    ``xfer`` tasks are completed: a crash in between re-runs the members
    into a second bundle whose transfers are no-ops under ``skip_held``.
    """

    NAME = "bundler"
    TYPE = "xfer"
    BATCH = 8

    def _handle(self, tasks: list[dict]):
        lfns = sorted({t["payload"]["lfn"] for t in tasks})
        requests = sum(t["payload"].get("requests", 1) for t in tasks)
        serial = self.sim.next_serial("workload-bundle")
        try:
            yield self.proxy.submit(
                "bundle", self.site.name,
                {"lfns": lfns, "requests": requests},
                key=f"bundle:{self.site.name}:{serial}",
            )
        except ServiceError:
            # bundle never enqueued: leave the xfer claims to expire
            self.errors += 1
            self._count("task_failed")
            return
        # one envelope settles every member: a WAN round trip per task
        # would hold the next bundle back behind this one's bookkeeping
        self.completed += len(tasks)
        for _ in tasks:
            self._count("task_done")
        yield from self._settle(
            self.proxy.complete_bulk([
                (task["task_id"], task["claim_token"], {"bundle": serial})
                for task in tasks
            ])
        )


#: the per-site gauges of each Replicator's width decision
#: (:func:`repro.gdmp.replica_selection.pipe_width`)
_REPLICATOR_PREFIX = "workload.replicator."


def _sets_in_flight_section(
    registry: MetricsRegistry, top_n: int
) -> list[str]:
    """Why each site runs as many transfer sets at once as it does: the
    width, the probed bandwidth and best pace it is the ratio of, and the
    most sets the site ever had in flight — one line per site."""

    def value(name: str, **labels) -> float:
        return registry.value(_REPLICATOR_PREFIX + name, **labels)

    # site -> the source its best pace came from (a source it moved away
    # from reads 0)
    paced = {
        dict(child.labels)["site"]: dict(child.labels)["source"]
        for child in registry.children(_REPLICATOR_PREFIX + "pace")
        if child.value
    }
    lines = []
    for child in registry.children(_REPLICATOR_PREFIX + "width"):
        site = dict(child.labels)["site"]
        why = " (no set has reported yet)"
        if site in paced:
            via = dict(site=site, source=paced[site])
            why = (
                f" = ceil({value('bandwidth', **via) / 1e6:.2f} MB/s from "
                f"{paced[site]} / {value('pace', **via) / 1e6:.2f} MB/s "
                "best pace)"
            )
        lines.append(
            f"{site}: width {fmt(child.value)}{why}, "
            f"peak {fmt(value('peak_sets', site=site))} sets "
            f"({fmt(value('sets_in_flight', site=site))} in flight)"
        )
    if lines:
        lines[:0] = ["", "-- sets in flight: the width of each site's pipe --"]
    return lines


#: the Replicators' part of the health report
SETS_IN_FLIGHT_SECTION = Section(
    (_REPLICATOR_PREFIX,), _sets_in_flight_section
)


class Replicator(PipelineComponent):
    """Campaigns → replicas, via the existing §4.1 machinery.

    Runs ``replicate_set(skip_held=True)`` under a heartbeat that renews
    the claim lease at half-life while transfers are in flight, then
    submits one keyed ``verify`` task per file.

    A claimed bundle runs as a process of its own, and the loop claims
    again while fewer than ``pipe.width`` of them are alive: §6's
    parallel streams, one level up — as many sets in flight as fill the
    inbound pipe.  The width is worked out, not set
    (:func:`~repro.gdmp.replica_selection.pipe_width`): the first set
    runs alone, and its reports say how much of the pipe one transfer
    leaves empty.
    """

    NAME = "replicator"
    TYPE = "bundle"
    BATCH = 1

    def __init__(self, sim, proxy, site, **kwargs):
        super().__init__(sim, proxy, site, **kwargs)
        self.pipe = PipeWidth()
        self.peak_width = 1
        self.peak_sets = 0
        #: the sets in flight, oldest first, each with the files it moves
        self._sets: dict[Process, frozenset] = {}
        self.metrics.add_collector(self._collect)

    def start(self) -> Process:
        """A restarted replicator remembers nothing: one solo set first."""
        self.pipe = PipeWidth()
        self._sets = {}
        return super().start()

    def crash(self) -> bool:
        """The sets in flight die with the loop; each one's
        ``replicate_set`` runs on, orphaned, beside the re-run its
        expired lease brings."""
        if not super().crash():
            return False
        for running in self._sets:
            if running.is_alive:
                running.interrupt("component-crash")
        return True

    def sets_in_flight(self) -> int:
        """Transfer sets this replicator is running right now."""
        return sum(running.is_alive for running in self._sets)

    def fingerprint(self) -> str:
        return (
            f"{super().fingerprint()} width={self.pipe.width} "
            f"peak_sets={self.peak_sets}"
        )

    def _collect(self, registry) -> None:
        """Scrape the governor into gauges at export time: what it
        decided, and from which two numbers."""
        site, pipe = self.site.name, self.pipe
        for name, value in (
            ("width", pipe.width),
            ("sets_in_flight", self.sets_in_flight()),
            ("peak_sets", self.peak_sets),
        ):
            registry.gauge(f"workload.replicator.{name}", site=site).set(value)
        for name in ("pace", "bandwidth"):
            family = f"workload.replicator.{name}"
            # the best pace may have moved to a file from another source:
            # the one it left reads 0, not its last value
            for child in registry.children(family):
                if ("site", site) in child.labels:
                    child.set(0)
            if pipe.source:
                registry.gauge(family, site=site, source=pipe.source).set(
                    getattr(pipe, name)
                )

    def _price(self, reports=()) -> None:
        """Work the width out again: from a finished set's reports, and
        from a fresh probe each time the loop decides whether to claim."""
        self.pipe = pipe_width(
            self.site.client.topology, self.site.name, reports, self.pipe
        )
        self.peak_width = max(self.peak_width, self.pipe.width)

    def _handle(self, tasks: list[dict]):
        for task in tasks:
            running = self.sim.spawn(
                self._run_set(task), name=f"workload-{self.name}-set"
            )
            self._sets[running] = frozenset(task["payload"]["lfns"])
        self.peak_sets = max(self.peak_sets, self.sets_in_flight())
        while True:
            for ended in [s for s in self._sets if not s.is_alive]:
                del self._sets[ended]
                ended.value         # a bug in a set is the loop's bug
            self._price()
            if len(self._sets) < self.pipe.width:
                return
            yield self.sim.any_of(list(self._sets))

    def _run_set(self, task: dict):
        try:
            yield from super()._handle([task])
        except Interrupt:
            return  # crashed with the loop: the lease runs out

    def work(self, task: dict):
        lfns = task["payload"]["lfns"]
        heartbeat = self.sim.spawn(
            self._heartbeat(task), name=f"workload-{self.name}-heartbeat"
        )
        try:
            # a bundle made twice (its Bundler crashed between ``submit``
            # and ``complete_bulk``) can be claimed beside its twin, and a
            # file moves once at a time per site: failing on that until
            # the twin is done burns every attempt in seconds.  Let the
            # earlier set finish, then find its files held
            for earlier, files in list(self._sets.items()):
                if earlier is self.sim.active_process:
                    break
                if earlier.is_alive and not files.isdisjoint(lfns):
                    yield earlier
            reports = yield self.site.client.replicate_set(
                lfns, skip_held=True
            )
        finally:
            if heartbeat.is_alive:
                heartbeat.interrupt("work-finished")
        self._price(reports)
        yield self.proxy.submit_bulk([
            {
                "type": "verify",
                "site": task["site"],
                "key": verify_key(lfn, task["site"]),
                "payload": {"lfn": lfn},
            }
            for lfn in lfns
        ])
        return {"transferred": len(reports), "skipped": len(lfns) - len(reports)}

    def _heartbeat(self, task: dict):
        try:
            while True:
                yield self.sim.timeout(self.lease / 2.0)
                try:
                    deadline = yield self.proxy.renew(
                        task["task_id"], task["claim_token"],
                        lease=self.lease,
                    )
                except ServiceError:
                    self.errors += 1
                    continue
                if deadline is None:
                    # the lease ran out, and may be somebody else's by
                    # now: there is nothing left to renew
                    self._count("lease_lost")
                    return
        except Interrupt:
            return


class Verifier(PipelineComponent):
    """Independent exactly-once audit of each produced replica.

    Checks, per file: locally held, bytes on disk, CRC and size equal to
    the catalog's record, and this site present in the catalog's
    location set.  Any discrepancy fails the task retryably — if the
    replica is genuinely missing (e.g. verification of a crashed
    campaign raced ahead of the re-transfer) a later attempt passes once
    the pipeline converges, and ``max_attempts`` turns a permanent
    discrepancy into a visible ``dead`` task.
    """

    NAME = "verifier"
    TYPE = "verify"
    BATCH = 8

    def _handle(self, tasks: list[dict]):
        """Audit the claimed batch in two envelopes — one ``info_bulk``
        for the catalog's records, one ``complete_bulk`` for the passes —
        where a task at a time would pay two WAN round trips each.  A
        member that fails its check is failed alone.  The bulk read
        raises for the whole batch if any one LFN is unknown (or the
        catalog is unreachable), and then says nothing about the others:
        the batch falls back to one task at a time."""
        try:
            infos = yield self.site.client.catalog.info_bulk(
                [task["payload"]["lfn"] for task in tasks]
            )
        except ServiceError:
            yield from super()._handle(tasks)
            return
        passed = []
        for task, info in zip(tasks, infos):
            try:
                result = self._audit(info)
            except GdmpError as exc:
                yield from self._fail(task, exc)
            else:
                self.completed += 1
                self._count("task_done")
                passed.append((task["task_id"], task["claim_token"], result))
        if passed:
            yield from self._settle(self.proxy.complete_bulk(passed))

    def work(self, task: dict):
        info = yield self.site.client.catalog.info(task["payload"]["lfn"])
        return self._audit(info)

    def _audit(self, info) -> dict:
        """The checks on one replica against its catalog record."""
        lfn, site = info.lfn, self.site
        stored, intact, entries = site.check_replica(lfn, info)
        if stored is None:
            raise GdmpError(f"{lfn!r} not held at {site.name}")
        if not intact:
            raise GdmpError(
                f"{lfn!r} corrupt at {site.name}: "
                f"crc {stored.crc}!={info.crc} size {stored.size}!={info.size}"
            )
        if not entries:
            raise GdmpError(f"{lfn!r} not registered for {site.name}")
        return {"crc": stored.crc, "size": stored.size}
