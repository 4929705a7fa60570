"""TaskQueue semantics: FIFO claims, leases, idempotency, terminal states,
and the wait an idle worker parks in."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gdmp import DataGrid, GdmpConfig
from repro.services.resilience import ResilienceConfig
from repro.simulation.kernel import Simulator
from repro.workload.queue import (
    MAX_ATTEMPTS,
    TaskQueue,
    TaskQueueProxy,
    TaskQueueService,
)
from tests.services.test_replay import lose_first_reply


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def queue(sim):
    return TaskQueue(sim, default_lease=30.0)


# -- TaskQueue state machine ----------------------------------------------

def test_claims_are_fifo_within_a_lane(queue):
    ids = [queue.submit("xfer", "anl", {"n": i}) for i in range(3)]
    got = queue.claim("w1", "xfer", "anl", limit=2)
    assert [t.task_id for t in got] == ids[:2]
    assert all(t.state == "claimed" for t in got)
    rest = queue.claim("w2", "xfer", "anl", limit=5)
    assert [t.task_id for t in rest] == ids[2:]


def test_a_requeued_task_is_claimed_after_what_was_already_pending(sim, queue):
    # a lease that ran out and a retryable failure both re-join at the
    # back of the lane: a poison task cannot block the tasks behind it
    lapsed, failed = (queue.submit("xfer", "anl", {}) for _ in range(2))
    queue.claim("w1", "xfer", "anl", lease=10.0)            # w1 dies
    [task] = queue.claim("w2", "xfer", "anl", lease=60.0)
    waiting = [queue.submit("xfer", "anl", {}) for _ in range(2)]
    assert queue.fail(failed, task.claim_token, error="boom") == "pending"
    sim.run(until=11.0)
    order = [t.task_id for t in queue.claim("w3", "xfer", "anl", limit=9)]
    assert order == [*waiting, failed, lapsed]


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
    for attempt in range(1, MAX_ATTEMPTS + 1):
        [task] = queue.claim("w", "xfer", "anl")
        assert task.attempts == attempt
        state = queue.fail(tid, task.claim_token, error="boom")
        assert state == ("pending" if attempt < MAX_ATTEMPTS else "dead")
    assert MAX_ATTEMPTS == 6
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




# -- wait: an idle worker parks at the queue until its lane has work --------

def _park(sim, queue, answered, tag=0, wait=30.0, type="xfer", site="anl"):
    """Spawn one waiter; ``answered`` receives ``(tag, verdict, sim
    instant)`` the moment its wait answers."""

    def waiter():
        verdict = yield from queue.wait(type, site, wait)
        # a woken waiter looks again before it answers: True is never stale
        assert not verdict or queue.depth(type, site) > 0
        answered.append((tag, verdict, sim.now))

    sim.spawn(waiter())
    sim.run(until=sim.now)
    return answered


def test_an_idle_wait_gives_up_after_exactly_its_wait(sim, queue):
    answered = _park(sim, queue, [], wait=30.0)
    sim.run(until=1.0)
    queue.submit("xfer", "caltech", {})      # other lanes wake nobody
    queue.submit("verify", "anl", {})
    sim.run(until=29.5)
    assert answered == [] and queue.parked() == {"xfer": 1}
    sim.run(until=30.0)
    assert answered == [(0, False, 30.0)]
    assert queue.parked() == {} and not queue._waiters


def test_a_wait_on_a_lane_with_work_answers_at_once(sim, queue):
    queue.submit("xfer", "anl", {})
    assert _park(sim, queue, []) == [(0, True, 0.0)]
    assert not queue._waiters


def test_every_waiter_of_a_lane_wakes_in_arrival_order(sim, queue):
    answered: list = []
    for tag in range(3):
        _park(sim, queue, answered, tag)
    _park(sim, queue, answered, 3, type="verify")
    sim.run(until=4.0)
    queue.submit("xfer", "anl", {})
    sim.run(until=4.0)
    assert answered == [(0, True, 4.0), (1, True, 4.0), (2, True, 4.0)]
    assert queue.parked() == {"verify": 1}
    # a wait claims nothing: the task is still there for whoever asks
    assert queue.depth("xfer", "anl") == 1
    assert queue.tasks[1].attempts == 0


def test_a_parked_wait_wakes_itself_at_a_lease_deadline(sim, queue):
    """Expiry is lazy and every worker may be parked: with nobody else
    calling in, the wait still answers the moment the lease runs out —
    the renewed one, not the one it first saw."""
    tid = queue.submit("xfer", "anl", {})
    [task] = queue.claim("w1", "xfer", "anl", lease=10.0)
    answered = _park(sim, queue, [], wait=30.0)
    sim.run(until=6.0)
    assert queue.renew(tid, task.claim_token, lease=10.0) == 16.0   # w1 dies
    sim.run(until=15.5)
    assert answered == [] and queue.stats.expired_leases == 0
    sim.run()
    assert answered == [(0, True, 16.0)]
    assert queue.stats.expired_leases == 1 and not queue._waiters
    [again] = queue.claim("w2", "xfer", "anl")
    assert again.task_id == tid and again.attempts == 2


LANES = (("xfer", "anl"), ("xfer", "caltech"), ("verify", "anl"))
#: every instant is a multiple of 0.5 s, so the clock arithmetic is exact
steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(LANES)),
        st.tuples(st.just("claim"), st.sampled_from(LANES),
                  st.integers(1, 8)),
        st.tuples(st.just("fail"), st.integers(0, 20)),
        st.tuples(st.just("wait"), st.sampled_from(LANES),
                  st.integers(0, 12)),
        st.tuples(st.just("advance"), st.integers(1, 10)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_no_waiter_stays_parked_at_a_lane_with_work(steps):
    """Any interleaving of submit / claim / fail / wait / clock advance:
    a lane with claimable work has nobody parked at it, no wait outlives
    its length, and the waiter table ends empty — its size follows the
    waiters alive, not the waits served."""
    sim = Simulator()
    queue = TaskQueue(sim, default_lease=30.0)
    answered: list = []
    claimed: list = []
    give_up: list[float] = []       # per waiter, in spawn order
    for step in steps:
        if step[0] == "submit":
            queue.submit(*step[1], {})
        elif step[0] == "claim":
            claimed += queue.claim("w", *step[1], lease=step[2] / 2.0)
        elif step[0] == "fail" and step[1] < len(claimed):
            task = claimed[step[1]]
            queue.fail(task.task_id, task.claim_token)
        elif step[0] == "wait":
            give_up.append(sim.now + step[2] / 2.0)
            _park(sim, queue, answered, len(give_up) - 1,
                  wait=step[2] / 2.0, type=step[1][0], site=step[1][1])
        elif step[0] == "advance":
            sim.run(until=sim.now + step[1] / 2.0)
        sim.run(until=sim.now)
        for lane in LANES:
            assert not (queue.depth(*lane) and lane in queue._waiters)
        assert all(queue._waiters.values())        # no empty entry kept
    sim.run()
    assert not queue._waiters
    assert sorted(tag for tag, _, _ in answered) == list(range(len(give_up)))
    for tag, verdict, at in answered:
        assert at <= give_up[tag] if verdict else at == give_up[tag]


# -- task.wait over the bus -------------------------------------------------

def _queue_grid(**resilience):
    """cern hosts a queue, anl calls it — hardened when ``resilience``
    names a ``ResilienceConfig`` field."""
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")], seed=3)
    if resilience:
        grid.enable_resilience(ResilienceConfig(**resilience))
    service = TaskQueueService(
        grid.site("cern").request_server, metrics=grid.metrics
    )
    proxy = TaskQueueProxy(grid.site("anl").request_client, "cern")
    return grid, service, proxy


def _served(grid, operation):
    """The queue host's spans of one operation, in start order."""
    return grid.tracelog.spans(name=f"gdmp:{operation}", kind="server")


ONE = {"type": "xfer", "site": "anl", "payload": {}}
WAKES = {
    "submit": lambda proxy, task: proxy.submit("xfer", "anl", {}),
    "submit_bulk": lambda proxy, task: proxy.submit_bulk([ONE, ONE]),
    "fail": lambda proxy, task: proxy.fail(
        task["task_id"], task["claim_token"], error="boom"
    ),
}


@pytest.mark.parametrize("cause", sorted(WAKES))
def test_a_parked_wait_answers_the_instant_its_lane_gets_work(cause):
    grid, service, proxy = _queue_grid()
    service.queue.submit("xfer", "anl", {})
    [task] = grid.run(until=proxy.claim("w", "xfer", "anl", lease=60.0))
    waiting = proxy.wait("xfer", "anl", 30.0)
    grid.run(until=grid.sim.now + 2.0)
    assert waiting.is_alive and service.queue.parked() == {"xfer": 1}
    assert grid.metrics.value("workload.queue.parked", type="xfer") == 0
    grid.metrics.collect()
    assert grid.metrics.value("workload.queue.parked", type="xfer") == 1
    grid.run(until=WAKES[cause](proxy, task))
    assert grid.run(until=waiting) is True
    [wait], [woke] = _served(grid, "task.wait"), _served(grid, f"task.{cause}")
    assert wait.end == woke.end
    assert service.queue.stats.claims == 1      # a wait starts no lease
    grid.metrics.collect()
    assert grid.metrics.value("workload.queue.parked", type="xfer") == 0


def test_a_wait_outlasting_the_rpc_timeout_is_answered_not_timed_out():
    # wait 40 s under a 30 s default timeout: the call's own timeout is
    # the default plus the park, so the full-length "nothing" comes back
    grid, service, proxy = _queue_grid(rpc_timeout=30.0)
    started = grid.sim.now
    assert grid.run(until=proxy.wait("xfer", "anl", 40.0)) is False
    assert 40.0 < grid.sim.now - started < 41.0
    assert grid.site("anl").request_client.stats["call_timeouts"] == 0
    assert grid.metrics.value(
        "rpc.retries", service="gdmp", operation="task.wait"
    ) == 0


def test_a_wait_whose_answer_is_lost_is_just_asked_again():
    grid, service, proxy = _queue_grid(rpc_timeout=5.0)
    service.queue.submit("xfer", "anl", {})
    lost = lose_first_reply(grid.site("cern").request_server, "task.wait")
    assert grid.run(until=proxy.wait("xfer", "anl", 2.0)) is True
    assert lost == [True] and len(_served(grid, "task.wait")) == 2
    # the retried read went nowhere near the replay window
    assert len(service.replay) == 0
    assert grid.metrics.value("workload.txn_replays") == 0
    assert service.queue.tasks[1].attempts == 0


# -- telemetry is read-only -------------------------------------------------

def _run_with_abandoned_claims(scrape_at=None):
    """Two workers claim one task each and die; the *later* task's lease
    runs out first.  A third worker then claims one task and finishes it.
    ``scrape_at`` injects a metrics snapshot between the two expiries."""
    grid, service, proxy = _queue_grid()
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
    grid, service, proxy = _queue_grid(rpc_timeout=5.0)
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
