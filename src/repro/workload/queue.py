"""The claim-based work queue: leases, idempotent ops, per-state counters.

Production grids do not call ``replicate()``; they run standing
components that *claim* work from a shared queue, renew their claim
while working, and mark it complete — the LTA picker/bundler pattern
("Grid Data Management in Action" describes exactly this operational
shape).  This module provides the queue in three layers:

* :class:`Task` / :class:`TaskQueue` — the in-memory state machine.
  Tasks move ``pending → claimed → done | failed-pending-retry → dead``.
  A claim carries a *lease*: a deadline after which the task silently
  becomes claimable again, so a crashed worker's work is re-dispatched
  without any failure detector — lease expiry is evaluated lazily at
  claim/inspection time, purely from the sim clock.  A worker that finds
  its lane empty parks in :meth:`TaskQueue.wait` until the lane has
  work; a wait is a read that holds nothing, so only a ``claim`` ever
  starts a lease.
* :class:`TaskQueueService` — the bus half: ``task.*`` operations
  registered on a :class:`~repro.gdmp.request_manager.RequestServer`
  (next to the ``catalog.*`` operations), every write exactly-once under
  transport retries through the service's
  :class:`~repro.services.replay.ReplayWindow`.
  Lease deadlines therefore compose with the resilience middleware: a
  retried ``claim`` replays the original claim instead of double-claiming,
  and a retried ``complete`` replays the stored verdict.
* :class:`TaskQueueProxy` — the site-side client: each method returns a
  :class:`~repro.simulation.kernel.Process` for one authenticated round
  trip, with envelope sizes scaled per item like the bulk catalog ops.

Completing or failing a task requires the *claim token* issued at claim
time.  A worker that lost its lease (the task was re-claimed by someone
else) gets ``stale`` back instead of corrupting the new owner's state —
the duplicated work itself must be idempotent one layer down, which the
replication stages are (``replicate_set(skip_held=True)``, idempotent
catalog registration, keyed task submission).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.gdmp.request_manager import RequestProxy, RequestServer
from repro.services.bus import ServiceRequest
from repro.services.replay import ReplayWindow
from repro.simulation.kernel import Event, Process, Simulator
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["Task", "TaskQueue", "TaskQueueService", "TaskQueueProxy"]

#: task lifecycle states (``failed`` is transient: a retryable failure
#: puts the task straight back to ``pending``; ``dead`` is terminal)
STATES = ("pending", "claimed", "done", "dead")

#: wire-size increment per task in a bulk envelope (submit/claim replies)
TASK_ITEM_SIZE = 128

#: claims a task gets: a retryable failure on the last one leaves it dead
MAX_ATTEMPTS = 6

#: histogram bounds for queue latencies (sim-seconds)
_AGE_BOUNDS = (
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0,
)


@dataclass
class Task:
    """One unit of pipeline work."""

    task_id: int
    type: str                      # pipeline stage that consumes it
    site: str                      # destination site the stage runs at
    payload: dict                  # stage-specific work description
    key: Optional[str] = None      # dedup key; resubmission coalesces
    state: str = "pending"
    attempts: int = 0              # claims so far (leases + failures)
    failures: int = 0              # explicit retryable fail() calls
    claimant: str = ""             # worker holding the live claim
    claim_token: int = 0           # current claim's token (0 = none)
    lease_deadline: float = 0.0
    submitted_at: float = 0.0
    first_claimed_at: Optional[float] = None
    claimed_at: float = 0.0
    finished_at: Optional[float] = None
    result: Any = None
    error: str = ""

    def public(self) -> dict:
        """The claim-reply view a worker receives."""
        return {
            "task_id": self.task_id,
            "type": self.type,
            "site": self.site,
            "payload": self.payload,
            "key": self.key,
            "attempts": self.attempts,
            "claim_token": self.claim_token,
            "lease_deadline": self.lease_deadline,
        }


@dataclass
class _QueueStats:
    submitted: int = 0
    coalesced: int = 0
    claims: int = 0
    completed: int = 0
    failed: int = 0
    dead: int = 0
    expired_leases: int = 0
    stale_ops: int = 0
    renews: int = 0


class TaskQueue:
    """The deterministic in-memory queue state machine.

    A ``(type, site)`` lane is claimed in the order tasks *became
    pending* in it: submission order for new tasks, and a task whose
    lease ran out or whose attempt failed retryably re-joins at the
    back, behind everything already pending — a poison task cannot
    head-of-line-block its lane.  The drain order is a pure function of
    the order of operations on the sim clock — the workload fingerprint
    depends on it.
    """

    def __init__(self, sim: Simulator, *, default_lease: float = 30.0):
        self.sim = sim
        self.default_lease = default_lease
        self.tasks: dict[int, Task] = {}
        #: (type, site) -> FIFO of pending task ids
        self._pending: dict[tuple[str, str], deque[int]] = {}
        #: (type, site) -> the workers parked in :meth:`wait`, in arrival
        #: order; a lane has an entry only while somebody is parked at it
        self._waiters: dict[tuple[str, str], list[Event]] = {}
        #: claimed task ids, checked for lease expiry lazily
        self._claimed: set[int] = set()
        #: dedup key -> task id (live tasks only; done/dead keys stay
        #: recorded so a re-submitted key coalesces onto the finished task)
        self._by_key: dict[str, int] = {}
        self.stats = _QueueStats()

    # -- submission -------------------------------------------------------
    def submit(self, type: str, site: str, payload: dict,
               key: Optional[str] = None) -> int:
        """Enqueue one task; a duplicate ``key`` coalesces (returns the
        existing task's id) instead of enqueuing twice — this is what
        makes picker re-claims after a crash exactly-once."""
        if key is not None:
            existing = self._by_key.get(key)
            if existing is not None:
                self.stats.coalesced += 1
                return existing
        task_id = self.sim.next_serial("workload-task")
        task = Task(
            task_id=task_id, type=type, site=site, payload=payload,
            key=key, submitted_at=self.sim.now,
        )
        self.tasks[task_id] = task
        self._enqueue(task)
        if key is not None:
            self._by_key[key] = task_id
        self.stats.submitted += 1
        return task_id

    def _enqueue(self, task: Task) -> None:
        """Put ``task`` at the back of its lane and wake whoever is
        parked there, in arrival order."""
        lane = (task.type, task.site)
        self._pending.setdefault(lane, deque()).append(task.task_id)
        for parked in self._waiters.pop(lane, ()):
            parked.succeed()

    # -- lease bookkeeping ------------------------------------------------
    def _expire_leases(self) -> int:
        """Return claimed-but-expired tasks to their pending lanes."""
        now = self.sim.now
        expired = [
            tid for tid in self._claimed
            if self.tasks[tid].lease_deadline <= now
        ]
        for tid in sorted(expired):
            task = self.tasks[tid]
            self._claimed.discard(tid)
            task.state = "pending"
            task.claimant = ""
            task.claim_token = 0
            self._enqueue(task)
            self.stats.expired_leases += 1
        return len(expired)

    # -- claiming ---------------------------------------------------------
    def claim(self, worker: str, type: str, site: str,
              limit: int = 1, lease: Optional[float] = None) -> list[Task]:
        """Hand up to ``limit`` pending tasks of one lane to ``worker``."""
        self._expire_leases()
        lane = self._pending.get((type, site))
        claimed: list[Task] = []
        lease = lease if lease is not None else self.default_lease
        while lane and len(claimed) < limit:
            tid = lane.popleft()
            task = self.tasks[tid]
            task.state = "claimed"
            task.attempts += 1
            task.claimant = worker
            task.claim_token = self.sim.next_serial("workload-claim")
            task.claimed_at = self.sim.now
            if task.first_claimed_at is None:
                task.first_claimed_at = self.sim.now
            task.lease_deadline = self.sim.now + lease
            self._claimed.add(tid)
            claimed.append(task)
        if claimed:
            self.stats.claims += 1
        return claimed

    # -- waiting for work -------------------------------------------------
    def wait(self, type: str, site: str, wait: float):
        """Generator: park until one lane has a claimable task (True),
        giving up after ``wait`` seconds (False).  It claims nothing and
        holds nothing: whoever is woken still has to :meth:`claim`, and
        may find that another worker got there first."""
        lane = (type, site)
        give_up = self.sim.now + wait
        while not self.depth(type, site):
            now = self.sim.now
            if now >= give_up:
                return False
            # expiry is lazy and everybody may be parked: sleep no longer
            # than the lane's next lease deadline, then look again
            claimed = (self.tasks[tid] for tid in self._claimed)
            until = min([give_up, *(
                task.lease_deadline for task in claimed
                if (task.type, task.site) == lane
            )])
            parked = self.sim.event()
            self._waiters.setdefault(lane, []).append(parked)
            yield self.sim.any_of([parked, self.sim.timeout(until - now)])
            if not parked.triggered:
                waiters = self._waiters[lane]
                waiters.remove(parked)
                if not waiters:
                    del self._waiters[lane]
        return True

    def _owned(self, task_id: int, token: int) -> Optional[Task]:
        """The task if ``token`` still owns it, else None (stale)."""
        task = self.tasks.get(task_id)
        if task is None or task.state != "claimed":
            return None
        if task.claim_token != token or task.lease_deadline <= self.sim.now:
            return None
        return task

    # -- claim-holder operations -----------------------------------------
    def renew(self, task_id: int, token: int,
              lease: Optional[float] = None) -> Optional[float]:
        """Extend a live claim's lease; None when the claim is stale."""
        task = self._owned(task_id, token)
        if task is None:
            self.stats.stale_ops += 1
            return None
        task.lease_deadline = self.sim.now + (
            lease if lease is not None else self.default_lease
        )
        self.stats.renews += 1
        return task.lease_deadline

    def complete(self, task_id: int, token: int, result: Any = None) -> bool:
        """Mark a claimed task done; False when the claim is stale."""
        task = self._owned(task_id, token)
        if task is None:
            self.stats.stale_ops += 1
            return False
        self._claimed.discard(task_id)
        task.state = "done"
        task.result = result
        task.finished_at = self.sim.now
        task.claimant = ""
        self.stats.completed += 1
        return True

    def fail(self, task_id: int, token: int, error: str = "",
             retryable: bool = True) -> Optional[str]:
        """Fail a claimed task: back to pending while attempts remain (and
        the failure is retryable), else dead.  Returns the resulting state,
        or None when the claim is stale."""
        task = self._owned(task_id, token)
        if task is None:
            self.stats.stale_ops += 1
            return None
        self._claimed.discard(task_id)
        task.error = error
        task.failures += 1
        task.claimant = ""
        task.claim_token = 0
        self.stats.failed += 1
        if retryable and task.attempts < MAX_ATTEMPTS:
            task.state = "pending"
            self._enqueue(task)
        else:
            task.state = "dead"
            task.finished_at = self.sim.now
            self.stats.dead += 1
        return task.state

    # -- inspection -------------------------------------------------------
    def observed_states(self):
        """Read-only view for telemetry: ``(task, state)`` per task, with
        the state the next :meth:`claim` would find — a claim whose lease
        has run out reads ``pending`` though nothing has moved it yet.
        Unlike every other inspector here this applies no expiry, so a
        scrape can never reorder a lane."""
        now = self.sim.now
        for task in self.tasks.values():
            if task.state == "claimed" and task.lease_deadline <= now:
                yield task, "pending"
            else:
                yield task, task.state

    def parked(self) -> dict[str, int]:
        """Read-only view for telemetry: workers parked in :meth:`wait`
        right now, per task type."""
        parked: dict[str, int] = {}
        for (type, _site), waiters in self._waiters.items():
            parked[type] = parked.get(type, 0) + len(waiters)
        return parked

    def counts(self) -> dict[str, int]:
        """Per-state task counts (lease expiry applied first)."""
        self._expire_leases()
        counts = {state: 0 for state in STATES}
        for task in self.tasks.values():
            counts[task.state] += 1
        return counts

    def depth(self, type: str, site: str) -> int:
        """Pending backlog of one lane."""
        self._expire_leases()
        return len(self._pending.get((type, site), ()))

    def terminal(self) -> bool:
        """True when no task is pending or claimed (leases expired first)."""
        self._expire_leases()
        if self._claimed:
            return False
        return all(not lane for lane in self._pending.values())

    def leaked_claims(self) -> list[int]:
        """Claimed task ids whose lease is still live (should be empty
        once the pipeline has shut down)."""
        self._expire_leases()
        return sorted(self._claimed)

    def fingerprint(self) -> str:
        """Canonical queue-state text: every task's terminal facts in id
        order plus the op counters.  Byte-identical across same-seed runs;
        diffed by the workload determinism gates."""
        lines = [
            f"queue tasks={len(self.tasks)} "
            + " ".join(
                f"{k}={v}" for k, v in sorted(vars(self.stats).items())
            )
        ]
        for tid in sorted(self.tasks):
            t = self.tasks[tid]
            lines.append(
                f"{tid} {t.type}@{t.site} {t.state} attempts={t.attempts} "
                f"failures={t.failures} key={t.key or '-'} "
                f"submitted={t.submitted_at:.6f} "
                f"finished={-1.0 if t.finished_at is None else t.finished_at:.6f}"
            )
        return "\n".join(lines)


class TaskQueueService:
    """``task.*`` operations hosted on a site's request server.

    Lives next to the ``catalog.*`` handlers on the same authenticated
    bus endpoint; every mutating operation is registered behind the
    service's own replay window, so the retry middleware can safely
    re-issue a claim or completion whose reply was lost.
    """

    def __init__(self, server: RequestServer, *,
                 metrics: MetricsRegistry = NO_METRICS,
                 default_lease: float = 30.0):
        self.queue = TaskQueue(server.sim, default_lease=default_lease)
        self.server = server
        self.metrics = metrics
        self.replay = ReplayWindow(server.sim, metrics, "workload.txn_replays")
        for op in ("submit", "submit_bulk", "claim", "renew", "complete",
                   "complete_bulk", "fail"):
            server.register(
                f"task.{op}", getattr(self, f"_op_{op}"), replay=self.replay
            )
        server.register("task.wait", self._op_wait)
        metrics.add_collector(self._collect)

    # -- telemetry --------------------------------------------------------
    def _count(self, event: str, type: str) -> None:
        self.metrics.counter("workload.tasks", event=event, type=type).inc()

    def _observe_age(self, name: str, type: str, age: float) -> None:
        self.metrics.histogram(
            f"workload.{name}", bounds=_AGE_BOUNDS, type=type
        ).observe(age)

    def _collect(self, registry) -> None:
        """Scrape queue depth per state into gauges at export time,
        as the next claim would find it but without touching the queue."""
        depth = dict.fromkeys(STATES, 0)
        lapsed = 0
        for task, state in self.queue.observed_states():
            depth[state] += 1
            lapsed += state != task.state
        for state, value in sorted(depth.items()):
            registry.gauge("workload.queue.depth", state=state).set(value)
        registry.gauge("workload.queue.expired_leases").set(
            self.queue.stats.expired_leases + lapsed
        )
        registry.gauge("workload.queue.stale_ops").set(
            self.queue.stats.stale_ops
        )
        # a type nobody is parked at any more reads 0, not its last value
        for child in registry.children("workload.queue.parked"):
            child.set(0)
        for type, workers in sorted(self.queue.parked().items()):
            registry.gauge("workload.queue.parked", type=type).set(workers)

    # -- handlers ---------------------------------------------------------
    def _op_submit(self, request: ServiceRequest):
        p = request.payload
        task_id = self.queue.submit(
            p["type"], p["site"], p.get("payload") or {}, key=p.get("key")
        )
        self._count("submitted", p["type"])
        return task_id

    def _op_submit_bulk(self, request: ServiceRequest):
        p = request.payload
        ids = []
        for item in p["tasks"]:
            ids.append(self.queue.submit(
                item["type"], item["site"], item.get("payload") or {},
                key=item.get("key"),
            ))
            self._count("submitted", item["type"])
        return ids

    def _op_claim(self, request: ServiceRequest):
        p = request.payload
        now = self.server.sim.now
        tasks = self.queue.claim(
            p["worker"], p["type"], p["site"],
            limit=p.get("limit", 1), lease=p.get("lease"),
        )
        for task in tasks:
            self._count("claimed", task.type)
            if task.first_claimed_at == now and task.attempts == 1:
                self._observe_age(
                    "claim_age", task.type, now - task.submitted_at
                )
        return [task.public() for task in tasks]

    def _op_wait(self, request: ServiceRequest):
        """A read, outside the replay window: it carries no ``txn`` and
        a re-issued wait is just a second look."""
        p = request.payload
        return self.queue.wait(p["type"], p["site"], p["wait"])

    def _op_renew(self, request: ServiceRequest):
        p = request.payload
        return self.queue.renew(
            p["task_id"], p["claim_token"], lease=p.get("lease")
        )

    def _complete(self, task_id: int, claim_token: int, result) -> bool:
        task = self.queue.tasks.get(task_id)
        ok = self.queue.complete(task_id, claim_token, result=result)
        if ok and task is not None:
            self._count("completed", task.type)
            self._observe_age(
                "stage_latency", task.type,
                self.server.sim.now - task.claimed_at,
            )
        elif task is not None:
            self._count("stale", task.type)
        return ok

    def _op_complete(self, request: ServiceRequest):
        p = request.payload
        return self._complete(p["task_id"], p["claim_token"], p.get("result"))

    def _op_complete_bulk(self, request: ServiceRequest):
        """Settle a batch in one envelope: a verdict per item, in order,
        so a stale token fails its own item and nothing else."""
        return [
            self._complete(task_id, claim_token, result)
            for task_id, claim_token, result in request.payload["items"]
        ]

    def _op_fail(self, request: ServiceRequest):
        p = request.payload
        task = self.queue.tasks.get(p["task_id"])
        state = self.queue.fail(
            p["task_id"], p["claim_token"],
            error=p.get("error", ""),
            retryable=p.get("retryable", True),
        )
        if task is not None:
            if state is None:
                self._count("stale", task.type)
            else:
                self._count("failed", task.type)
                if state == "dead":
                    self._count("dead", task.type)
        return state


class TaskQueueProxy(RequestProxy):
    """Site-side client of the queue service (one RPC per method)."""

    ITEM_SIZE = TASK_ITEM_SIZE

    def submit(self, type: str, site: str, payload: dict,
               key: Optional[str] = None) -> Process:
        return self._write("task.submit", {
            "type": type, "site": site, "payload": payload, "key": key,
        })

    def submit_bulk(self, tasks: list[dict]) -> Process:
        """Enqueue a batch in one envelope.  Each item: ``type``,
        ``site``, ``payload``, optional ``key``."""
        return self._write(
            "task.submit_bulk", {"tasks": list(tasks)}, n_items=len(tasks)
        )

    def claim(self, worker: str, type: str, site: str, *,
              limit: int = 1, lease: Optional[float] = None) -> Process:
        return self._write(
            "task.claim",
            {
                "worker": worker, "type": type, "site": site,
                "limit": limit, "lease": lease,
            },
            n_items=limit,
        )

    def wait(self, type: str, site: str, wait: float) -> Process:
        """Park at the queue until the lane has work (True) or ``wait``
        seconds have passed (False).  The client's default timeout
        budgets a round trip; the park comes on top of it, so a wait
        that runs its full length is answered before its caller gives
        up on it."""
        default = self.client.default_timeout
        return self._rpc(
            self.server_host, "task.wait",
            {"type": type, "site": site, "wait": wait},
            timeout=None if default is None else default + wait,
        )

    def renew(self, task_id: int, claim_token: int,
              lease: Optional[float] = None) -> Process:
        return self._write("task.renew", {
            "task_id": task_id, "claim_token": claim_token, "lease": lease,
        })

    def complete(self, task_id: int, claim_token: int,
                 result=None) -> Process:
        return self._write("task.complete", {
            "task_id": task_id, "claim_token": claim_token,
            "result": result,
        })

    def complete_bulk(self, items: list[tuple]) -> Process:
        """Settle several claimed tasks in one envelope.  Each item:
        ``(task_id, claim_token, result)``; returns the per-item
        verdicts (False = that item's claim was stale)."""
        return self._write(
            "task.complete_bulk", {"items": list(items)}, n_items=len(items)
        )

    def fail(self, task_id: int, claim_token: int, error: str = "",
             retryable: bool = True) -> Process:
        return self._write("task.fail", {
            "task_id": task_id, "claim_token": claim_token,
            "error": error, "retryable": retryable,
        })
