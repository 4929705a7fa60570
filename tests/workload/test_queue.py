"""TaskQueue semantics: FIFO claims, leases, idempotency, terminal states."""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.services.resilience import ResilienceConfig
from repro.simulation.kernel import Simulator
from repro.workload.queue import TaskQueue, TaskQueueProxy, TaskQueueService
from tests.services.test_replay import lose_first_reply


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def queue(sim):
    return TaskQueue(sim, default_lease=30.0, max_attempts=3)


# -- TaskQueue state machine ----------------------------------------------

def test_claims_are_fifo_within_a_lane(queue):
    ids = [queue.submit("xfer", "anl", {"n": i}) for i in range(3)]
    got = queue.claim("w1", "xfer", "anl", limit=2)
    assert [t.task_id for t in got] == ids[:2]
    assert all(t.state == "claimed" for t in got)
    rest = queue.claim("w2", "xfer", "anl", limit=5)
    assert [t.task_id for t in rest] == ids[2:]


def test_lanes_are_isolated_by_type_and_site(queue):
    queue.submit("xfer", "anl", {})
    assert queue.claim("w", "xfer", "caltech") == []
    assert queue.claim("w", "verify", "anl") == []
    assert len(queue.claim("w", "xfer", "anl")) == 1


def test_keyed_submission_coalesces(queue):
    a = queue.submit("xfer", "anl", {"lfn": "f"}, key="xfer:f@anl")
    b = queue.submit("xfer", "anl", {"lfn": "f"}, key="xfer:f@anl")
    assert a == b
    assert queue.stats.submitted == 1
    assert queue.stats.coalesced == 1
    # the key stays bound even after the task completes: the obligation
    # was met, a later duplicate must not recreate it
    [task] = queue.claim("w", "xfer", "anl")
    assert queue.complete(task.task_id, task.claim_token)
    assert queue.submit("xfer", "anl", {}, key="xfer:f@anl") == a


def test_complete_requires_the_live_claim_token(queue):
    tid = queue.submit("xfer", "anl", {})
    [task] = queue.claim("w1", "xfer", "anl")
    assert not queue.complete(tid, task.claim_token + 999)
    assert queue.stats.stale_ops == 1
    assert queue.complete(tid, task.claim_token)
    assert queue.tasks[tid].state == "done"
    assert queue.stats.completed == 1


def test_expired_lease_is_reclaimable_and_old_token_is_stale(sim, queue):
    tid = queue.submit("xfer", "anl", {})
    [first] = queue.claim("w1", "xfer", "anl", lease=10.0)
    first_token = first.claim_token
    sim.run(until=11.0)
    # lease expired: the task silently returns to pending and the next
    # claimant picks it up with a fresh token
    [second] = queue.claim("w2", "xfer", "anl", lease=10.0)
    assert second.task_id == tid
    assert second.attempts == 2
    assert second.claim_token != first_token
    assert queue.stats.expired_leases == 1
    # the crashed worker's late completion must not corrupt w2's claim
    assert not queue.complete(tid, first_token)
    assert queue.tasks[tid].state == "claimed"
    assert queue.complete(tid, second.claim_token)


def test_renew_extends_the_lease(sim, queue):
    tid = queue.submit("xfer", "anl", {})
    [task] = queue.claim("w1", "xfer", "anl", lease=10.0)
    sim.run(until=6.0)
    assert queue.renew(tid, task.claim_token, lease=10.0) == 16.0
    sim.run(until=12.0)  # past the original deadline, inside the renewal
    assert queue.complete(tid, task.claim_token)
    assert queue.stats.expired_leases == 0


def test_retryable_failures_requeue_until_max_attempts(queue):
    tid = queue.submit("xfer", "anl", {})
    for attempt in range(1, 4):
        [task] = queue.claim("w", "xfer", "anl")
        assert task.attempts == attempt
        state = queue.fail(tid, task.claim_token, error="boom")
        assert state == ("pending" if attempt < 3 else "dead")
    assert queue.tasks[tid].state == "dead"
    assert queue.stats.dead == 1
    assert queue.claim("w", "xfer", "anl") == []


def test_non_retryable_failure_is_immediately_dead(queue):
    tid = queue.submit("xfer", "anl", {})
    [task] = queue.claim("w", "xfer", "anl")
    assert queue.fail(tid, task.claim_token, retryable=False) == "dead"
    assert queue.tasks[tid].state == "dead"


def test_terminal_and_leaked_claims(sim, queue):
    a = queue.submit("xfer", "anl", {})
    assert not queue.terminal()
    [task] = queue.claim("w", "xfer", "anl", lease=10.0)
    assert not queue.terminal()
    assert queue.leaked_claims() == [a]
    queue.complete(a, task.claim_token)
    assert queue.terminal()
    assert queue.leaked_claims() == []
    assert queue.counts() == {
        "pending": 0, "claimed": 0, "done": 1, "dead": 0,
    }


def test_fingerprint_is_stable_and_covers_every_task(queue):
    queue.submit("xfer", "anl", {"lfn": "a"}, key="k1")
    queue.submit("verify", "anl", {"lfn": "a"})
    fp = queue.fingerprint()
    assert fp == queue.fingerprint()
    assert "xfer@anl" in fp and "verify@anl" in fp and "k1" in fp




# -- telemetry is read-only -------------------------------------------------

def _run_with_abandoned_claims(scrape_at=None):
    """Two workers claim one task each and die; the *later* task's lease
    runs out first.  A third worker then claims one task and finishes it.
    ``scrape_at`` injects a metrics snapshot between the two expiries."""
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")], seed=3)
    service = TaskQueueService(
        grid.site("cern").request_server, metrics=grid.metrics
    )
    proxy = TaskQueueProxy(grid.site("anl").request_client, "cern")
    for n in range(2):
        grid.run(until=proxy.submit("xfer", "anl", {"n": n}))
    grid.run(until=proxy.claim("w1", "xfer", "anl", lease=20.0))
    grid.run(until=proxy.claim("w2", "xfer", "anl", lease=10.0))
    if scrape_at is not None:
        grid.run(until=scrape_at)
        depth = grid.metrics.snapshot()["workload.queue.depth"]
        assert {
            c["labels"]["state"]: c["value"] for c in depth["children"]
        } == {"pending": 1, "claimed": 1, "done": 0, "dead": 0}
        assert grid.metrics.value("workload.queue.expired_leases") == 1
    grid.run(until=25.0)
    [task] = grid.run(until=proxy.claim("w3", "xfer", "anl"))
    grid.run(until=proxy.complete(task["task_id"], task["claim_token"]))
    return service.queue.fingerprint()


def test_a_metrics_scrape_never_changes_what_the_next_claim_returns():
    assert _run_with_abandoned_claims(scrape_at=15.0) \
        == _run_with_abandoned_claims()


def test_observed_states_reads_lapsed_claims_as_pending(sim, queue):
    tid = queue.submit("xfer", "anl", {})
    queue.claim("w", "xfer", "anl", lease=5.0)
    sim.run(until=6.0)
    assert [(t.task_id, s) for t, s in queue.observed_states()] \
        == [(tid, "pending")]
    # nothing moved: the claim is still on the books until a claim or an
    # inspector applies the expiry
    assert queue.tasks[tid].state == "claimed"
    assert queue.stats.expired_leases == 0


# -- task.complete_bulk: one envelope, per-item verdicts ---------------------

def _bulk_fixture():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")], seed=3)
    grid.enable_resilience(ResilienceConfig(rpc_timeout=5.0))
    service = TaskQueueService(
        grid.site("cern").request_server, metrics=grid.metrics
    )
    proxy = TaskQueueProxy(grid.site("anl").request_client, "cern")
    for n in range(3):
        service.queue.submit("xfer", "anl", {"n": n})
    tasks = grid.run(until=proxy.claim("w", "xfer", "anl", limit=3))
    return grid, service, proxy, tasks


def test_complete_bulk_replayed_after_a_lost_reply_applies_once():
    grid, service, proxy, tasks = _bulk_fixture()
    lost = lose_first_reply(
        grid.site("cern").request_server, "task.complete_bulk"
    )
    verdicts = grid.run(until=proxy.complete_bulk([
        (t["task_id"], t["claim_token"], {"bundle": 1}) for t in tasks
    ]))
    # the retry was answered from the replay window: a second
    # application would have found three stale tokens
    assert len(lost) == 1 and verdicts == [True, True, True]
    assert service.queue.stats.completed == 3
    assert service.queue.stats.stale_ops == 0
    assert grid.metrics.value("workload.txn_replays") == 1
    assert all(
        service.queue.tasks[t["task_id"]].result == {"bundle": 1}
        for t in tasks
    )


def test_stale_token_in_a_bulk_settle_fails_only_its_own_item():
    grid, service, proxy, tasks = _bulk_fixture()
    items = [(t["task_id"], t["claim_token"], None) for t in tasks]
    items[1] = (items[1][0], items[1][1] + 999, None)
    assert grid.run(until=proxy.complete_bulk(items)) == [True, False, True]
    states = [service.queue.tasks[t["task_id"]].state for t in tasks]
    assert states == ["done", "claimed", "done"]
    assert service.queue.stats.stale_ops == 1
