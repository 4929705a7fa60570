"""End-to-end workload engine: convergence, determinism, chaos exactly-once."""

import pytest

from repro.experiments import workload as wl
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.services.resilience import ResilienceConfig
from repro.simulation.randomness import RandomStreams
from repro.workload import ArrivalProfile, WorkloadEngine


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
    grid, engine = _small_engine(
        total=5000, rate=400.0, tick=10.0,
        admit_rate=10.0, admit_burst=50.0, max_backlog=300,
    )
    engine.start()
    grid.run(until=engine.done)
    summary = engine.summary()
    assert summary["shed"] > 0
    assert summary["admitted"] + summary["shed"] == summary["generated"]
    assert summary["done"] == summary["tasks"]   # admitted work converges


def test_fault_kinds_require_an_attached_engine():
    from repro.faults import FaultInjector
    from repro.faults.campaign import FaultCampaign, FaultEvent

    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    campaign = FaultCampaign(
        "orphan", (FaultEvent(1.0, "component_crash", "picker@anl"),)
    )
    injector = FaultInjector(grid, campaign)
    proc = injector.start()
    with pytest.raises(Exception, match="no workload engine"):
        grid.run(until=proc)


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
    assert verifier.failed_tasks == bad.attempts == engine.queue.max_attempts
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
