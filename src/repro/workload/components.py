"""The standing pipeline: picker → bundler → replicator → verifier.

Each component is a long-lived :class:`~repro.simulation.kernel.Process`
at one destination site, looping claim → work → complete against the
shared :mod:`~repro.workload.queue`, and waiting *at the queue* whenever
its lane is empty: nobody asks on a timer.  The one-shot replication path is
now a *stage* of this pipeline: the replicator drives
``GdmpClient.replicate_set`` (ranked-replica failover, batched catalog
traffic) exactly as an interactive caller would, but under a claim lease
with heartbeat renewal.

Task flow (all tasks carry the destination site):

``pick``    batched user demand (``lfn → request count``) from the
            arrival generator.  The picker fans it out to keyed ``xfer``
            tasks — the key ``xfer:<lfn>@<site>`` coalesces however many
            requests (or picker re-claims after a crash) into one
            transfer obligation.
``xfer``    one file owed at one site.  The bundler claims several and
            packs them into a campaign.
``bundle``  a transfer campaign (list of lfns).  The replicator runs it
            through ``replicate_set(skip_held=True)`` and submits keyed
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

from repro.gdmp.request_manager import GdmpError
from repro.services.bus import ServiceError
from repro.simulation.kernel import Interrupt, Process

__all__ = [
    "PipelineComponent",
    "Picker",
    "Bundler",
    "Replicator",
    "Verifier",
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
                 metrics=None):
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

    def _count(self, event: str) -> None:
        if self.metrics is not None:
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
        yield  # pragma: no cover


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


class Replicator(PipelineComponent):
    """Campaigns → replicas, via the existing §4.1 machinery.

    Runs ``replicate_set(skip_held=True)`` under a heartbeat that renews
    the claim lease at half-life while transfers are in flight, then
    submits one keyed ``verify`` task per file.
    """

    NAME = "replicator"
    TYPE = "bundle"
    BATCH = 1

    def work(self, task: dict):
        lfns = task["payload"]["lfns"]
        heartbeat = self.sim.spawn(
            self._heartbeat(task), name=f"workload-{self.name}-heartbeat"
        )
        try:
            reports = yield self.site.client.replicate_set(
                lfns, skip_held=True
            )
        finally:
            if heartbeat.is_alive:
                heartbeat.interrupt("work-finished")
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
                    yield self.proxy.renew(
                        task["task_id"], task["claim_token"],
                        lease=self.lease,
                    )
                except ServiceError:
                    self.errors += 1
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
        lfn = info.lfn
        site = self.site
        path = site.server.held.get(lfn)
        if path is None or not site.fs.exists(path):
            raise GdmpError(f"{lfn!r} not held at {site.name}")
        stored = site.fs.stat(path)
        if stored.crc != info.crc or stored.size != info.size:
            raise GdmpError(
                f"{lfn!r} corrupt at {site.name}: "
                f"crc {stored.crc}!={info.crc} size {stored.size}!={info.size}"
            )
        locations = {loc["location"] for loc in info.locations}
        if site.name not in locations:
            raise GdmpError(f"{lfn!r} not registered for {site.name}")
        return {"crc": stored.crc, "size": stored.size}
