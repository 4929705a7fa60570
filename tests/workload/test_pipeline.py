"""End-to-end workload engine: convergence, determinism, chaos exactly-once."""

import pytest

from repro.experiments import workload as wl
from repro.experiments.scaffold import counter_total
from repro.faults import FaultInjector
from repro.faults.campaign import FaultCampaign, FaultEvent
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.replica_selection import PipeWidth
from repro.netsim.units import MB, mbps
from repro.services.resilience import ResilienceConfig
from repro.simulation.randomness import RandomStreams
from repro.workload import ArrivalProfile, WorkloadEngine
from repro.workload.components import (
    PipelineComponent,
    Replicator,
    Verifier,
    verify_key,
)
from repro.workload.queue import (
    MAX_ATTEMPTS,
    TaskQueueProxy,
    TaskQueueService,
)


def _small_engine(seed=11, total=4000, files=10, **profile_kw):
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")],
        catalog_host="cern", seed=seed,
    )
    grid.enable_resilience(ResilienceConfig(rpc_timeout=30.0))
    cern = grid.site("cern")
    lfns = [f"wl-{i:02d}.db" for i in range(files)]
    for lfn in lfns:
        grid.run(until=cern.client.produce_and_publish(lfn, 2 * MB))
    profile = ArrivalProfile(**{
        "rate": 100.0, "tick": 15.0, "admit_rate": 200.0,
        **profile_kw,
    })
    engine = WorkloadEngine(
        grid, profile, lfns=lfns, total=total,
        rng=RandomStreams(seed)["workload.arrivals"],
    )
    return grid, engine


def test_pipeline_converges_and_satisfies_every_obligation():
    result = wl.run(requests=20_000, seed=3)
    assert result.converged, result.errors
    assert result.requests == 20_000
    assert result.admitted == 20_000
    assert result.obligations > 0
    assert result.tasks > result.obligations   # pick/bundle/verify stages too


def test_pipeline_is_deterministic_per_seed():
    a = wl.run(requests=15_000, seed=5)
    b = wl.run(requests=15_000, seed=5)
    c = wl.run(requests=15_000, seed=6)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_component_crash_campaign_converges_exactly_once():
    result = wl.run(requests=40_000, seed=7, campaign="component_crash")
    assert result.converged, result.errors
    assert result.component_crashes > 0
    assert result.faults_injected > 0
    # re-claims after crashes never double-apply: catalog exactly-once
    # and CRC invariants hold even though leases expired mid-flight
    assert result.catalog_exact and result.crc_ok


def test_catalog_blackhole_campaign_converges():
    result = wl.run(requests=30_000, seed=9, campaign="catalog_blackhole")
    assert result.converged, result.errors
    assert result.faults_injected > 0


def test_engine_direct_convergence_and_queue_state():
    grid, engine = _small_engine()
    engine.start()
    grid.run(until=engine.done)
    summary = engine.summary()
    assert summary["generated"] == 4000
    assert summary["pending"] == 0 and summary["claimed"] == 0
    assert summary["dead"] == 0
    assert summary["leaked_claims"] == 0
    assert summary["done"] == summary["tasks"]
    # the standing components actually did the work
    assert engine.components["picker@anl"].completed > 0
    assert engine.components["replicator@anl"].completed > 0
    assert engine.components["verifier@anl"].completed > 0


def test_token_bucket_throttles_admission():
    # arrivals at 100/s, admission capped at 20/s: the backlog drains
    # slowly and the bucket records refusals
    grid, engine = _small_engine(
        total=3000, rate=100.0, admit_rate=20.0, admit_burst=300.0,
    )
    engine.start()
    grid.run(until=engine.done)
    assert engine.arrivals.bucket.refused > 0
    summary = engine.summary()
    assert summary["admitted"] == 3000      # throttled, not dropped
    assert summary["done"] == summary["tasks"]


def test_backlog_cap_sheds_under_overload():
    # one 10 s tick offers a million requests (700 000 are generated):
    # atlas's half alone overflows the 200 000 per-VO backlog cap
    grid, engine = _small_engine(
        total=700_000, rate=100_000.0, tick=10.0,
        admit_rate=20_000.0, admit_burst=50_000.0,
    )
    engine.start()
    grid.run(until=engine.done)
    summary = engine.summary()
    assert summary["shed"] > 0
    assert summary["admitted"] + summary["shed"] == summary["generated"]
    assert summary["done"] == summary["tasks"]   # admitted work converges


def test_fault_kinds_require_an_attached_engine():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    campaign = FaultCampaign(
        "orphan", (FaultEvent(1.0, "component_crash", "picker@anl"),)
    )
    injector = FaultInjector(grid, campaign)
    proc = injector.start()
    with pytest.raises(Exception, match="no workload engine"):
        grid.run(until=proc)


# -- idle workers wait at the queue; nobody asks on a timer -------------------

def _requests(grid, operation):
    return counter_total(grid, "rpc.requests", operation=operation)


class _Stamp(PipelineComponent):
    """A one-second stage on a lane of its own."""

    NAME = TYPE = "stamp"

    def work(self, task):
        yield self.sim.timeout(1.0)
        return task["payload"]


def test_two_workers_on_one_lane_both_wake_and_the_loser_waits_again():
    grid, engine = _small_engine()
    first, second = (
        _Stamp(grid.sim, engine.proxies["anl"], grid.site("anl"))
        for _ in range(2)
    )
    second.worker = "stamp-2@anl"
    first.start()
    second.start()
    started = grid.sim.now
    grid.run(until=started + 5.0)
    assert engine.queue.parked() == {"stamp": 2}
    engine.queue.submit("stamp", "anl", {"n": 1})
    grid.run(until=started + 15.0)
    # woken in arrival order: the first to park wins, the other's claim
    # comes back empty and it parks again — ahead of the winner now
    assert (first.claimed, second.claimed) == (1, 0)
    assert engine.queue.parked() == {"stamp": 2}
    engine.queue.submit("stamp", "anl", {"n": 2})
    grid.run(until=started + 25.0)
    assert (first.completed, second.completed) == (1, 1)
    assert engine.queue.parked() == {"stamp": 2}
    # no lost wake-up and no spin: two asks to start with, then per task
    # a claim each, the winner's next (empty) claim, and a wait each
    # (the two waits they are parked in now are not answered yet)
    assert _requests(grid, "task.claim") == 2 + 2 * 3
    assert _requests(grid, "task.wait") == 2 * 2
    assert first.errors == second.errors == 0


def test_a_fault_free_idle_minute_times_nothing_out():
    # rpc_timeout 30 s, lease 60 s: every wait runs its full 30 s
    grid, engine = _small_engine()
    for name in sorted(engine.components):
        engine.components[name].start()
    grid.run(until=grid.sim.now + 100.0)
    workers = len(engine.components)
    assert _requests(grid, "task.claim") == workers     # asked once each
    assert 3 * workers <= _requests(grid, "task.wait") <= 4 * workers
    for operation in ("task.claim", "task.wait"):
        assert counter_total(grid, "rpc.retries", operation=operation) == 0
        assert counter_total(
            grid, "rpc.deadline_sheds", operation=operation
        ) == 0
    for site in grid.sites.values():
        assert site.request_client.stats["call_timeouts"] == 0
        assert site.request_client.stats["call_failures"] == 0
    assert all(c.errors == 0 for c in engine.components.values())


def test_a_worker_crashed_while_parked_burns_no_lease():
    grid, engine = _small_engine(files=1)
    [lfn] = engine.arrivals.lfns
    grid.run(until=grid.site("anl").client.replicate_set([lfn]))
    verifier = engine.components["verifier@anl"]
    verifier.start()
    grid.run(until=grid.sim.now + 2.0)
    assert verifier.running() and engine.queue.parked() == {"verify": 1}
    assert verifier.crash()
    grid.run(until=grid.sim.now + 1.0)
    tid = engine.queue.submit("verify", "anl", {"lfn": lfn})
    task = engine.queue.tasks[tid]
    grid.run(until=grid.sim.now + 20.0)        # the down window
    # the dead worker's wait was answered, to nobody: it handed out nothing
    assert engine.queue.parked() == {}
    assert (task.state, task.attempts) == ("pending", 0)
    restarted = grid.sim.now
    verifier.start()
    grid.run(until=restarted + 2.0)
    assert (task.state, task.attempts) == ("done", 1)
    assert task.first_claimed_at > restarted
    assert engine.queue.stats.expired_leases == 0


def test_workers_parked_across_a_queue_host_crash_claim_again_after_it():
    """The parked waits are reset with the host, retried out, and each
    worker backs off ``poll`` and claims again.  One worker per site, so
    that the site's circuit breaker (five failures) stays out of it."""
    grid, engine = _small_engine()
    pickers = [
        engine.components[f"picker@{name}"] for name in ("anl", "caltech")
    ]
    for picker in pickers:
        picker.start()
    injector = FaultInjector(grid, FaultCampaign("queue-host", (
        FaultEvent(5.0, "host_crash", "cern"),
        FaultEvent(11.0, "host_restart", "cern"),
    )))
    grid.run(until=injector.start())
    restarted = grid.sim.now
    assert [picker.errors for picker in pickers] == [1, 1]
    grid.run(until=restarted + pickers[0].poll + 0.5)
    for picker in pickers:
        [claim] = [
            span for span in grid.tracelog.spans(
                name="gdmp:task.claim", kind="client"
            )
            if span.host == picker.site.name and span.start > restarted
        ]
        assert claim.status == "ok"
    # ... and parked again: work for them now is done a round trip later
    for picker in pickers:
        engine.queue.submit("pick", picker.site.name, {"demand": {}})
    grid.run(until=grid.sim.now + 1.0)
    assert engine.queue.counts()["done"] == 2
    assert engine.queue.leaked_claims() == []
    assert [picker.errors for picker in pickers] == [1, 1]


# -- the verifier audits its batch in two envelopes ---------------------------

def _verify_batch(replicated=8, unknown=()):
    """anl holds ``replicated`` good replicas; one ``verify`` task per
    replica (and per ``unknown`` LFN) is pending, the verifier not yet
    started."""
    from repro.workload.components import verify_key

    grid, engine = _small_engine(files=replicated)
    anl = grid.site("anl")
    lfns = sorted(engine.arrivals.lfns)
    grid.run(until=anl.client.replicate_set(lfns))
    for lfn in [*lfns, *unknown]:
        engine.queue.submit(
            "verify", "anl", {"lfn": lfn}, key=verify_key(lfn, "anl")
        )
    return grid, engine, engine.components["verifier@anl"], lfns


def _requests_of_one_claim(grid, verifier):
    """Run the verifier's claim loop for most of a poll interval;
    returns the client requests it issued for its first claimed batch."""
    mark = len(grid.tracelog)
    verifier.start()
    grid.run(until=grid.sim.now + verifier.poll - 0.5)
    verifier.crash()
    names = [s.name for s in list(grid.tracelog)[mark:] if s.kind == "client"]
    assert names[0] == "gdmp:task.claim"
    return names[1:names.index("gdmp:task.claim", 1)]


def test_verifier_audits_a_batch_of_eight_in_two_envelopes():
    grid, engine, verifier, lfns = _verify_batch()
    # the set's flush invalidated anl's cached records: the audit reads
    # the catalog, in one envelope, and settles in one more
    assert _requests_of_one_claim(grid, verifier) == [
        "gdmp:catalog.info_bulk", "gdmp:task.complete_bulk",
    ]
    assert verifier.completed == 8 and verifier.failed_tasks == 0
    assert [t.state for t in engine.queue.tasks.values()] == ["done"] * 8
    anl = grid.site("anl")
    assert all(
        task.result == {
            "crc": anl.fs.stat(anl.server.held[task.payload["lfn"]]).crc,
            "size": 2 * MB,
        }
        for task in engine.queue.tasks.values()
    )


def test_one_bad_replica_fails_alone():
    grid, engine, verifier, lfns = _verify_batch()
    anl = grid.site("anl")
    anl.fs.stat(anl.server.held[lfns[3]]).content_id = "rotten"
    assert _requests_of_one_claim(grid, verifier) == [
        "gdmp:catalog.info_bulk", "gdmp:task.fail",
        "gdmp:task.complete_bulk",
    ]
    # the failure is retryable: re-claimed, alone, until it is dead
    by_lfn = {t.payload["lfn"]: t for t in engine.queue.tasks.values()}
    bad = by_lfn[lfns[3]]
    assert verifier.completed == 7
    assert verifier.failed_tasks == bad.attempts == MAX_ATTEMPTS
    assert bad.state == "dead" and "corrupt" in bad.error
    assert all(by_lfn[lfn].state == "done" for lfn in lfns if lfn != lfns[3])


def test_unknown_lfn_cannot_fail_the_good_audits_of_its_batch():
    grid, engine, verifier, lfns = _verify_batch(
        replicated=3, unknown=["ghost.db"]
    )
    requests = _requests_of_one_claim(grid, verifier)
    # the bulk read raised for the whole batch and said nothing about
    # the others: one task at a time, as before the batch path
    assert requests[0] == "gdmp:catalog.info_bulk"
    assert "gdmp:task.complete_bulk" not in requests
    assert requests.count("gdmp:task.complete") == 3
    assert requests.count("gdmp:task.fail") == 1
    by_lfn = {t.payload["lfn"]: t for t in engine.queue.tasks.values()}
    assert by_lfn["ghost.db"].state == "dead"
    assert all(by_lfn[lfn].state == "done" for lfn in lfns)


# -- sets in flight: as many as fill the inbound pipe -------------------------

class _SerialReplicator(Replicator):
    """The replicator before it overlapped sets: the base loop's one
    task at a time, the reference the overlapping one must equal on a
    pipe one stream fills."""

    _handle = PipelineComponent._handle


def _bundle_lane(bundles=4, kind=Replicator, queue_host="cern", lease=60.0,
                 rpc_timeout=30.0):
    """cern holds sixteen 2 MB files, four to a bundle; anl owes itself
    the first ``bundles`` of them, one ``bundle`` task each, the queue
    hosted at ``queue_host``.  Returns the grid, the queue, anl's
    (unstarted) replicator and the bundle tasks in lane order."""
    grid = DataGrid(
        [GdmpConfig(name)
         for name in dict.fromkeys(("cern", "anl", queue_host))],
        catalog_host="cern", seed=11,
    )
    grid.enable_resilience(ResilienceConfig(rpc_timeout=rpc_timeout))
    for i in range(16):
        grid.run(until=grid.site("cern").client.produce_and_publish(
            f"lane-{i:02d}.db", 2 * MB
        ))
    queue = TaskQueueService(
        grid.site(queue_host).request_server, metrics=grid.metrics,
        default_lease=lease,
    ).queue
    anl = grid.site("anl")
    replicator = kind(
        grid.sim, TaskQueueProxy(anl.request_client, queue_host), anl,
        lease=lease, metrics=grid.metrics,
    )
    tasks = [_submit_bundle(queue, b) for b in range(bundles)]
    return grid, queue, replicator, tasks


def _submit_bundle(queue, b, key=None):
    """The ``b``-th four files as one bundle at the back of anl's lane."""
    lfns = [f"lane-{i:02d}.db" for i in range(b * 4, (b + 1) * 4)]
    return queue.tasks[queue.submit(
        "bundle", "anl", {"lfns": lfns, "requests": 4},
        key=key or f"bundle:anl:{b}",
    )]


def _drain(grid, tasks, limit=600.0):
    """Run until every one of ``tasks`` is done."""
    deadline = grid.sim.now + limit
    while any(task.state != "done" for task in tasks):
        assert grid.sim.now < deadline, [task.state for task in tasks]
        grid.run(until=grid.sim.now + 1.0)


def _most_at_once(tasks):
    """Most of ``tasks`` claimed at one instant (each claimed once)."""
    assert all(task.attempts == 1 for task in tasks)
    return max(
        sum(other.first_claimed_at <= task.first_claimed_at < other.finished_at
            for other in tasks)
        for task in tasks
    )


def test_first_set_runs_alone_then_sets_overlap_up_to_the_width():
    grid, queue, replicator, tasks = _bundle_lane()
    replicator.start()
    grid.run(until=grid.sim.now + 1.0)
    # slow start: one solo set, whatever the lane holds
    assert replicator.pipe == PipeWidth()
    assert [task.state for task in tasks] == ["claimed"] + ["pending"] * 3
    _drain(grid, tasks)
    first, second, third, fourth = tasks
    assert second.first_claimed_at >= first.finished_at
    # 25 Mbit/s to fill, a 2 MB file paced at under 16: two at a time
    pipe = replicator.pipe
    assert pipe.width == 2 and pipe.source == "cern"
    assert pipe.bandwidth == mbps(25) and pipe.bandwidth / 2 <= pipe.pace
    # the claim after the first set's successor was applied while that
    # successor still ran, and never more than the width were held
    assert third.first_claimed_at < second.finished_at
    assert _most_at_once(tasks) == replicator.peak_sets == 2
    assert replicator.peak_width == 2
    assert replicator.completed == 4 and replicator.errors == 0
    assert replicator.sets_in_flight() == 0
    assert replicator.fingerprint().endswith(" width=2 peak_sets=2")
    # ... and the scrape says what was decided, and from which numbers
    metrics = grid.metrics
    metrics.collect()
    for name, value in (
        ("width", 2), ("peak_sets", 2), ("sets_in_flight", 0),
    ):
        assert metrics.value(f"workload.replicator.{name}", site="anl") == value
    for name in ("pace", "bandwidth"):
        assert metrics.value(
            f"workload.replicator.{name}", site="anl", source="cern"
        ) == getattr(pipe, name)
    # a better file from another source: the one it left reads 0
    replicator.pipe = PipeWidth(1, "caltech", 2 * pipe.pace, pipe.bandwidth)
    metrics.collect()
    assert metrics.value(
        "workload.replicator.pace", site="anl", source="cern"
    ) == 0
    assert metrics.value(
        "workload.replicator.pace", site="anl", source="caltech"
    ) == 2 * pipe.pace


def _lane_behind_a_filled_pipe(kind):
    """One set on a quiet link, then cross-traffic takes the link down
    to less than that set's best file made: three more bundles."""
    grid, queue, replicator, tasks = _bundle_lane(bundles=1, kind=kind)
    replicator.start()
    _drain(grid, tasks)
    [link] = grid.topology.route("cern", "anl")
    grid.topology.set_cross_traffic(link, mbps(35))   # 10 of the 45 left
    tasks += [_submit_bundle(queue, b) for b in (1, 2, 3)]
    _drain(grid, tasks)
    return queue, replicator, tasks


def test_a_pipe_one_stream_fills_is_worked_as_before_claim_for_claim():
    queue, replicator, tasks = _lane_behind_a_filled_pipe(Replicator)
    assert replicator.pipe.width == 1 and replicator.peak_sets == 1
    assert replicator.pipe.bandwidth == mbps(10) < replicator.pipe.pace
    assert _most_at_once(tasks) == 1
    reference, serial, _ = _lane_behind_a_filled_pipe(_SerialReplicator)
    assert queue.fingerprint() == reference.fingerprint()
    assert [
        (t.first_claimed_at, t.claimed_at, t.finished_at, t.claim_token)
        for t in queue.tasks.values()
    ] == [
        (t.first_claimed_at, t.claimed_at, t.finished_at, t.claim_token)
        for t in reference.tasks.values()
    ]
    assert (replicator.claimed, replicator.completed) == (
        serial.claimed, serial.completed
    )


def _nothing_left_behind(grid):
    """No GridFTP session and no transfer pin outlived its set."""
    for site in grid.sites.values():
        assert site.gridftp_server.open_sessions == 0, site.name
        assert not [
            stored.path for stored in site.fs.listing()
            if site.pool.pin_count(stored.path)
        ], site.name


def test_crash_with_two_sets_in_flight_costs_two_leases_and_nothing_else():
    grid, queue, replicator, tasks = _bundle_lane()
    anl = grid.site("anl")
    verifier = Verifier(grid.sim, replicator.proxy, anl)
    replicator.start()
    verifier.start()
    while replicator.sets_in_flight() < 2:
        grid.run(until=grid.sim.now + 0.25)
    grid.run(until=grid.sim.now + 1.0)          # both sets mid-transfer
    held = [task for task in tasks if task.state == "claimed"]
    assert len(held) == 2 and replicator.pipe.width == 2
    assert replicator.crash()
    grid.run(until=grid.sim.now + 20.0)
    assert not replicator.running() and replicator.sets_in_flight() == 0
    # the orphaned sets ran on and hung up after themselves ...
    _nothing_left_behind(grid)
    # ... but nobody renews or settles their claims any more
    assert [task.state for task in held] == ["claimed"] * 2
    replicator.start()
    assert replicator.pipe == PipeWidth()       # nothing remembered
    grid.run(until=grid.sim.now + 1.0)
    assert sum(task.state == "claimed" for task in tasks) == 3   # 2 dead + 1
    while not queue.terminal():
        grid.run(until=grid.sim.now + 5.0)
        assert grid.sim.now < 600.0
    assert queue.stats.expired_leases == 2
    assert sorted(task.attempts for task in tasks) == [1, 1, 2, 2]
    # the re-runs found every file held and moved nothing
    assert [task.result for task in held] == [
        {"transferred": 0, "skipped": 4}
    ] * 2
    assert anl.client.stats["replicated"] == 16
    # every obligation audited exactly once, nothing dead, nothing leaked
    audits = [task for task in queue.tasks.values() if task.type == "verify"]
    assert sorted(task.key for task in audits) == sorted(
        verify_key(f"lane-{i:02d}.db", "anl") for i in range(16)
    )
    assert all((t.state, t.attempts) == ("done", 1) for t in audits)
    assert queue.counts()["dead"] == 0 and queue.leaked_claims() == []
    _nothing_left_behind(grid)
    assert replicator.crashes == 1 and replicator.peak_sets == 2


def test_a_duplicate_bundle_claimed_beside_its_twin_waits_for_it():
    # a Bundler that crashed between ``submit`` and ``complete_bulk``
    # bundles the same files again under a fresh key.  At the tail of a
    # lane nothing else delays the duplicate's retries: failing on
    # "already replicating" until the twin is done would burn its six
    # attempts inside the twin's first two files and leave it dead
    grid, queue, replicator, tasks = _bundle_lane(bundles=1)
    replicator.start()
    _drain(grid, tasks)
    assert replicator.pipe.width == 2
    twins = [_submit_bundle(queue, 1), _submit_bundle(queue, 1, key="again")]
    _drain(grid, twins)
    first, second = twins
    assert second.first_claimed_at < first.finished_at      # ran beside it
    assert replicator.peak_sets == 2
    assert (first.attempts, second.attempts) == (1, 1)
    assert replicator.failed_tasks == queue.stats.failed == 0
    assert first.result == {"transferred": 4, "skipped": 0}
    assert second.result == {"transferred": 0, "skipped": 4}
    assert second.finished_at > first.finished_at
    assert queue.counts()["dead"] == 0 and queue.leaked_claims() == []
    assert grid.site("anl").client.stats["replicated"] == 8
    _nothing_left_behind(grid)


def test_two_runs_of_one_seed_agree_on_every_width_decision():
    def run():
        grid, engine = _small_engine(files=24)
        engine.start()
        grid.run(until=engine.done)
        return engine.fingerprint()

    first, second = run(), run()
    assert first == second
    replicators = [
        line for line in first.splitlines()
        if line.startswith("component replicator@")
    ]
    assert len(replicators) == 2
    assert all(" width=2 peak_sets=2" in line for line in replicators)
    assert " width=" not in first.replace("\n".join(replicators), "")


def test_a_heartbeat_that_lost_its_lease_stops_renewing_it():
    # the queue at caltech, the files at cern: anl is cut off from its
    # queue for longer than its lease while the set it runs moves on
    lease = 6.0
    grid, queue, replicator, _ = _bundle_lane(
        bundles=0, queue_host="caltech", lease=lease, rpc_timeout=2.0,
    )
    task = queue.tasks[queue.submit("bundle", "anl", {
        "lfns": [f"lane-{i:02d}.db" for i in range(16)], "requests": 16,
    })]
    replicator.start()
    started = grid.sim.now
    cut, healed = started + 1.0, started + 1.0 + lease + 2.0
    injector = FaultInjector(grid, FaultCampaign("partition", (
        FaultEvent(cut - started, "link_down", "wan-anl-caltech"),
        FaultEvent(healed - started, "link_up", "wan-anl-caltech"),
    )))
    grid.run(until=injector.start())
    assert task.state == "claimed" and task.lease_deadline < healed
    _drain(grid, [task])
    # the one renewal that straddled the partition was retried through
    # it and answered "stale" (None): the lease ran out meanwhile.  The
    # set ran on for ten more seconds and not one renewal followed it
    renews = list(grid.tracelog.spans(name="gdmp:task.renew", kind="client"))
    assert renews and renews[-1].status == "ok"
    assert renews[-1].start < healed < renews[-1].end
    assert task.claimed_at > renews[-1].end + 2 * (lease / 2.0)
    assert counter_total(
        grid, "workload.component", event="lease_lost", site="anl"
    ) == 1
    assert queue.stats.renews == 0 and replicator.errors == 0
    # ... and its late ``complete`` was refused, as ever: the bundle was
    # claimed again and found every file held
    assert queue.stats.stale_ops == 2           # that renew, that complete
    assert counter_total(
        grid, "workload.tasks", event="stale", type="bundle"
    ) == 1
    assert (task.attempts, queue.stats.expired_leases) == (2, 1)
    assert task.result == {"transferred": 0, "skipped": 16}
