"""Exactly-once writes through the real bus, for every service that has
them: the first reply is lost, ``RetryMiddleware`` re-issues the call,
and the service's ``ReplayWindow`` answers instead of applying twice.

Plus the bound: a window holds what its clients still have in flight,
not one entry per write ever served.
"""

import sys
from pathlib import Path

import pytest

from repro.chunks import ChunkConfig, ChunkDirectoryProxy, ChunkRuntime
from repro.gdmp import DataGrid, GdmpConfig
from repro.services.bus import ServiceError
from repro.services.replay import ReplayWindow
from repro.services.resilience import ResilienceConfig
from repro.simulation.kernel import Simulator
from repro.workload.queue import TaskQueueProxy, TaskQueueService

K, M = 2, 1
SITES = ("hub", "s1", "s2", "s3")


def _grid():
    grid = DataGrid([GdmpConfig(name) for name in SITES], catalog_host="hub")
    grid.enable_resilience(ResilienceConfig(rpc_timeout=5.0))
    return grid


def lose_first_reply(server, operation):
    """Swallow the server's first final reply to ``operation`` — the
    request is handled, the answer never reaches the caller.  Returns
    the list the lost answer is recorded in."""
    original, lost = server._respond, []

    def respond(request, ok, payload, final=True):
        if request.operation == operation and final and not lost:
            lost.append(payload)
            return server.sim.event()    # a delivery that never happens
        return original(request, ok, payload, final)

    server._respond = respond
    return lost


class Case:
    """One write operation: how to issue it from ``s1`` and how to count
    how often the service applied it; ``notified`` collects what the
    service told its write listeners, where it has any."""

    operation = counter = ""
    listeners = 0

    def __init__(self, grid):
        self.grid = grid
        self.notified = []

    def window(self) -> ReplayWindow:
        raise NotImplementedError

    def write(self):
        raise NotImplementedError

    def applied(self) -> int:
        raise NotImplementedError


class CatalogPublish(Case):
    operation, counter = "catalog.publish_bulk", "catalog.txn_replays"
    listeners = 1

    def __init__(self, grid):
        super().__init__(grid)
        grid.catalog_service.write_listeners.append(
            lambda op, payload: self.notified.append(payload["lfns"])
        )

    def window(self):
        return self.grid.catalog_service.replay

    def write(self):
        return self.grid.site("s1").client.catalog.publish_bulk(
            "s1", [{"size": 1000.0, "modified": self.grid.sim.now, "crc": 7}]
        )

    def applied(self):
        return len(self.grid.catalog_backend.list_lfns())


class TaskClaim(Case):
    operation, counter = "task.claim", "workload.txn_replays"

    def __init__(self, grid):
        super().__init__(grid)
        self.service = TaskQueueService(
            grid.site("hub").request_server, metrics=grid.metrics
        )
        self.proxy = TaskQueueProxy(grid.site("s1").request_client, "hub")
        for n in range(2):
            self.service.queue.submit("xfer", "s1", {"n": n})

    def window(self):
        return self.service.replay

    def write(self):
        return self.proxy.claim("w", "xfer", "s1")

    def applied(self):
        return self.service.queue.stats.claims


class TaskComplete(TaskClaim):
    """The retry of a completion must replay ``True``, not turn into the
    stale-token ``False`` a second application would produce."""

    operation = "task.complete"

    def write(self):
        [task] = self.service.queue.claim("w", "xfer", "s1")
        return self.proxy.complete(task.task_id, task.claim_token)

    def applied(self):
        assert self.service.queue.stats.stale_ops == 0
        return self.service.queue.stats.completed


class ChunkCommit(Case):
    operation, counter = "chunk.commit", "chunks.txn_replays"
    listeners = 1       # the manifest's catalog registration

    def __init__(self, grid):
        super().__init__(grid)
        self.runtime = ChunkRuntime(grid, ChunkConfig(
            k=K, m=M, placement_sites=list(SITES[1:]), directory_host="hub",
        ))
        directory = self.runtime.directory
        directory.register = lambda manifest: self.notified.append(
            manifest.object
        )
        _, targets, needed = directory.init("obj", 3000.0, "key", K, M)
        self.placements = [(cid, targets[cid]) for cid in needed]
        self.proxy = ChunkDirectoryProxy(
            grid.site("s1").request_client, "hub"
        )

    def window(self):
        return self.runtime.service.replay

    def write(self):
        return self.proxy.commit("obj", self.placements)

    def applied(self):
        stats = self.runtime.directory.stats
        return stats.commits + stats.recommits


class ChunkRepairDone(ChunkCommit):
    operation = "chunk.repair_done"
    listeners = 0

    def __init__(self, grid):
        super().__init__(grid)
        self.runtime.directory.commit("obj", self.placements)
        self.notified.clear()

    def write(self):
        [(cid, site), *_] = self.placements
        return self.proxy.repair_done("obj", [(cid, "hub")], [(cid, site)])

    def applied(self):
        return self.runtime.directory.stats.repairs


CASES = [CatalogPublish, TaskClaim, TaskComplete, ChunkCommit, ChunkRepairDone]


@pytest.mark.parametrize("case_type", CASES, ids=lambda c: c.operation)
def test_lost_reply_is_replayed_not_reapplied(case_type):
    grid = _grid()
    case = case_type(grid)
    lost = lose_first_reply(grid.site("hub").request_server, case.operation)
    result = grid.run(until=case.write())
    assert len(lost) == 1
    assert case.applied() == 1
    assert len(case.notified) == case.listeners
    assert grid.metrics.value(case.counter) == 1
    assert grid.metrics.value(
        "rpc.retries", service="gdmp", operation=case.operation
    ) == 1
    # what the caller finally got is the very answer that was lost
    assert result is lost[0]
    assert len(case.window()) == 1
    # ... and a *new* write is a new write, not a replay
    grid.run(until=case.write())
    assert case.applied() == 2
    assert grid.metrics.value(case.counter) == 1


@pytest.mark.parametrize("windowed", [False, True], ids=["plain", "replay"])
def test_plain_and_generator_handlers_both_answer(windowed):
    """An immediate operation is a plain function, one that holds the
    clock a generator function; the request server takes either, with
    or without a replay window."""
    grid = _grid()
    server = grid.site("hub").request_server
    window = ReplayWindow(grid.sim) if windowed else None
    applied = []

    def plain(request):
        applied.append(request.operation)
        return {"echo": request.payload, "n": len(applied)}

    def generator(request):
        yield grid.sim.timeout(2.0)
        applied.append(request.operation)
        return {"echo": request.payload, "n": len(applied)}

    server.register("test.plain", plain, replay=window)
    server.register("test.generator", generator, replay=window)
    client = grid.site("s1").request_client
    start = grid.sim.now
    assert grid.run(until=client.call(
        "hub", "test.plain", "p", idempotent=windowed)) == {"echo": "p", "n": 1}
    took = grid.sim.now - start
    assert grid.run(until=client.call(
        "hub", "test.generator", "g", idempotent=windowed,
    )) == {"echo": "g", "n": 2}
    assert grid.sim.now - start == pytest.approx(2 * took + 2.0)
    assert applied == ["test.plain", "test.generator"]
    assert window is None or len(window) == 1     # the settled one is gone


def test_a_replayed_plain_write_is_served_from_the_window():
    grid = _grid()
    hub = grid.site("hub").request_server
    window = ReplayWindow(grid.sim)
    applied = []

    def plain(request):
        applied.append(request.payload)
        return len(applied)

    hub.register("test.write", plain, replay=window)
    lost = lose_first_reply(hub, "test.write")
    call = grid.site("s1").request_client.call(
        "hub", "test.write", "once", idempotent=True
    )
    assert grid.run(until=call) == 1
    assert lost == [1] and applied == ["once"]
    assert grid.metrics.value(
        "rpc.retries", service="gdmp", operation="test.write"
    ) == 1


def test_a_late_duplicate_of_a_settled_write_is_refused():
    """A first attempt that out-waits its own retry must not be applied
    after the window forgot the write (delay faults make this real)."""
    window = ReplayWindow(Simulator())
    applied = []

    def handler(request):
        applied.append(request)
        return len(applied)
        yield

    def drive(txn):
        gen = window.apply(txn, handler, "request")
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value

    assert drive(("c", 1, 1)) == 1
    assert drive(("c", 1, 1)) == 1          # replay while still open
    assert drive(("c", 2, 2)) == 2          # serial 1 settled: forgotten
    with pytest.raises(ServiceError, match="already settled"):
        drive(("c", 1, 1))
    assert len(applied) == 2 and len(window) == 1
    assert drive(None) == 3                 # no txn: always runs


def test_a_duplicate_of_a_write_still_being_applied_joins_it():
    """A write slower than its caller's timeout is re-issued while the
    first delivery is still in the handler: it is applied once, and
    every delivery gets that one answer."""
    sim = Simulator()
    window = ReplayWindow(sim)
    applied = []

    def slow_handler(request):
        yield sim.timeout(10.0)
        applied.append(request)
        if request == "doomed":
            raise ServiceError("no")
        return len(applied)

    def deliver(at, txn, request, outcomes):
        yield sim.timeout(at)
        try:
            outcomes.append((yield from window.apply(txn, slow_handler, request)))
        except ServiceError as exc:
            outcomes.append(str(exc))

    fine, doomed = [], []
    for at in (0.0, 4.0, 8.0):
        sim.spawn(deliver(at, ("c", 1, 1), "fine", fine))
        sim.spawn(deliver(at, ("c", 2, 1), "doomed", doomed))
    sim.run()
    assert applied == ["fine", "doomed"] and sim.now == 10.0
    assert fine == [1, 1, 1] and doomed == ["no"] * 3
    # the failed write stored nothing: its next retry runs it again
    sim.spawn(deliver(0.0, ("c", 2, 1), "doomed", doomed))
    sim.run()
    assert applied == ["fine", "doomed", "doomed"] and len(window) == 1


def test_windows_stay_at_in_flight_size_under_sequential_writes():
    """10 000 writes from one client, spread over every service with a
    window, leave each window with the last write only."""
    grid = _grid()
    # (the chunk runtime hosts its own scrub queue on the hub)
    queue = TaskQueueService(grid.site("s2").request_server)
    tasks = TaskQueueProxy(grid.site("s1").request_client, "s2")
    runtime = ChunkRuntime(grid, ChunkConfig(
        k=K, m=M, placement_sites=list(SITES[1:]), directory_host="hub",
    ))
    chunks = ChunkDirectoryProxy(grid.site("s1").request_client, "hub")
    catalog = grid.site("s1").client.catalog
    windows = [
        grid.catalog_service.replay, queue.replay, runtime.service.replay,
    ]
    peak = 0

    def writer():
        nonlocal peak
        for n in range(10_000):
            if n % 100 == 0:
                yield catalog.publish("s1", 1.0, 0.0, n)
            elif n % 100 == 1:
                yield chunks.init(f"obj-{n}", 3000.0, f"key-{n}", K, M)
            else:
                yield tasks.submit("xfer", "s1", {"n": n})
            peak = max(peak, *(len(w) for w in windows))

    grid.run(until=grid.sim.spawn(writer(), name="writer"))
    assert queue.queue.stats.submitted == 9_800
    assert [len(w) for w in windows] == [1, 1, 1]
    assert peak <= 2


def test_windows_are_bounded_after_the_data_challenge():
    """Every window in a composed, fault-ridden run ends no larger than
    the number of standing processes writing to that service, however
    many writes it served (hundreds to thousands here)."""
    sys.path.insert(
        0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e")
    )
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    challenge = WORKLOADS["data_challenge"](2001, True)
    challenge.setup()
    challenge.run()
    assert not challenge.finish().errors
    grid, engine, runtime = (
        challenge.grid, challenge.engine, challenge.runtime
    )
    writers = {
        "task": (engine.service.replay, len(engine.components) + 1),
        "scrub": (
            runtime.queue_service.replay,
            len(runtime.scrubbers) + len(runtime.repairers) + 1,
        ),
        "chunk": (runtime.service.replay, len(runtime.stores)),
    }
    for name, service in grid.rls.services.items():
        at_site = [c for c in engine.components.values()
                   if c.site.name == name]
        writers[f"catalog@{name}"] = (service.replay, len(at_site) + 1)
    for name, (window, standing) in writers.items():
        assert 0 < len(window) <= standing, name
    # every ``task.*`` write the two queue windows served (idle workers
    # wait at the queue with a read, so claims alone are few)
    served = grid.metrics.snapshot()["rpc.requests"]["children"]
    writes = sum(
        c["value"] for c in served
        if c["labels"]["operation"].startswith("task.")
        and c["labels"]["operation"] != "task.wait"
    )
    assert writes > 10 * len(engine.service.replay)
