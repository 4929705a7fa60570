"""Scrub/repair on the claim-based queue: detection, exactly-once
repair, cycle-numbered audit keys, and the backlog gauges."""

import pytest

from repro.chunks import ChunkConfig, ChunkRuntime
from repro.chunks.scrub import repair_key, scrub_key
from repro.gdmp import DataGrid, GdmpConfig

SITES = ["hub", "s1", "s2", "s3"]
SIZE = 6_000_000.0
K, M = 2, 1


@pytest.fixture
def grid():
    return DataGrid(
        [GdmpConfig(name) for name in SITES],
        catalog_host="hub",
        seed=2001,
    )


@pytest.fixture
def runtime(grid):
    return ChunkRuntime(grid, ChunkConfig(
        k=K, m=M, placement_sites=["s1", "s2", "s3"],
        scrub_sites=["hub"], directory_host="hub", poll=2.0,
    ))


def _put(grid, runtime, name, key=None):
    return grid.run(until=runtime.store("hub").put_object(
        name, SIZE, key or f"key-{name}", K, M
    ))


def _scrub(grid, runtime):
    return grid.run(until=runtime.run_scrub_pass(poll=2.0))


def _chunk_holder(runtime, name, index=0):
    spec = runtime.directory.manifests[name].chunks[index]
    return spec, next(iter(runtime.directory.locations[spec.chunk_id]))


def test_healthy_grid_scrubs_clean(grid, runtime):
    _put(grid, runtime, "obj-a")
    _put(grid, runtime, "obj-b")
    _scrub(grid, runtime)
    assert grid.metrics.value("chunks.scrub", outcome="ok") == 2 * (K + M)
    assert grid.metrics.value("chunks.repair", event="objects") == 0
    queue = runtime.queue_service.queue
    assert queue.terminal()
    assert queue.counts()["dead"] == 0


def test_corruption_is_detected_and_repaired_in_place(grid, runtime):
    _put(grid, runtime, "obj")
    spec, holder = _chunk_holder(runtime, "obj")
    grid.site(holder).fs.corrupt(spec.path)
    _scrub(grid, runtime)
    assert grid.metrics.value("chunks.scrub", outcome="corrupt") == 1
    assert grid.metrics.value("chunks.repair", event="chunks_rebuilt") == 1
    # repaired back onto its original placement site, healthy again
    stored = grid.site(holder).fs.stat(spec.path)
    assert stored.crc == spec.crc
    assert runtime.directory.locations[spec.chunk_id] == {holder}
    # repair traffic: k fetched + 1 rebuilt member uploaded
    fetched = grid.metrics.value("chunks.repair", event="bytes_fetched")
    uploaded = grid.metrics.value("chunks.repair", event="bytes_uploaded")
    assert fetched == pytest.approx(SIZE)           # k chunks of SIZE/k
    assert uploaded == pytest.approx(SIZE / K)
    # a second pass finds nothing left to do
    _scrub(grid, runtime)
    assert grid.metrics.value("chunks.repair", event="objects") == 1


def _lose_first_cksm_after_a_stor(ftpd):
    """Swallow the first final ``CKSM`` answer ``ftpd`` sends after it
    has answered a ``STOR``: the client's control channel times out in
    the middle of a verified upload.  Returns the list it is recorded in."""
    bus = ftpd.bus
    original, stored, lost = bus._respond, [], []

    def respond(request, ok, payload, final=True):
        if final and request.operation == "STOR":
            stored.append(payload)
        elif final and request.operation == "CKSM" and stored and not lost:
            lost.append(payload)
            return bus.sim.event()      # a delivery that never happens
        return original(request, ok, payload, final)

    bus._respond = respond
    return lost


def test_repair_whose_verify_loses_its_control_channel_is_retried(grid, runtime):
    """A command after the repair's ``STOR`` that fails fails the repair
    task retryably; it must not crash the repairer (and the simulation)."""
    _put(grid, runtime, "obj")
    # the repairer's client gives up on a command after 30 s of silence
    grid.site("hub").gridftp_client.bus.default_timeout = 30.0
    spec, holder = _chunk_holder(runtime, "obj")
    grid.site(holder).fs.corrupt(spec.path)
    lost = _lose_first_cksm_after_a_stor(grid.site(holder).gridftp_server)
    _scrub(grid, runtime)
    assert len(lost) == 1
    queue = runtime.queue_service.queue
    assert queue.terminal()
    assert queue.counts()["dead"] == 0
    assert grid.site(holder).fs.stat(spec.path).crc == spec.crc
    assert grid.metrics.value("chunks.repair", event="chunks_rebuilt") == 1


def test_wiped_site_is_reconstructed_from_survivors(grid, runtime):
    _put(grid, runtime, "obj-a")
    _put(grid, runtime, "obj-b")
    victim = grid.site("s2")
    wiped = [f.path for f in victim.fs.listing("chunks/")]
    for path in wiped:
        victim.fs.delete(path)
    assert wiped                       # placement put something on s2
    _scrub(grid, runtime)
    assert grid.metrics.value(
        "chunks.scrub", outcome="missing"
    ) == len(wiped)
    assert grid.metrics.value(
        "chunks.repair", event="chunks_rebuilt"
    ) == len(wiped)
    assert [f.path for f in victim.fs.listing("chunks/")] == sorted(wiped)
    _scrub(grid, runtime)
    assert grid.metrics.value("chunks.scrub", outcome="missing") == len(wiped)


def test_already_healed_damage_spends_no_traffic(grid, runtime):
    """Exactly-once in effect: a repair task whose damage was healed by
    the time it runs re-verifies and stops."""
    _put(grid, runtime, "obj")
    spec, holder = _chunk_holder(runtime, "obj")
    # plant a repair task reporting damage that does not exist
    queue = runtime.queue_service.queue
    queue.submit(
        "repair", "hub",
        {"object": "obj", "cycle": 1,
         "bad": [[spec.chunk_id, holder, "corrupt"]]},
        key=repair_key("obj", 1),
    )
    runtime.start()
    grid.run(until=grid.sim.timeout(60.0))
    assert grid.metrics.value("chunks.repair", event="already_healed") == 1
    assert grid.metrics.value("chunks.repair", event="chunks_rebuilt") == 0
    assert grid.metrics.value("chunks.repair", event="bytes_fetched") == 0
    assert queue.terminal()


def test_scrub_keys_are_cycle_numbered(grid, runtime):
    """Done keys persist in the queue forever; without cycle numbering
    every later pass would coalesce onto the first pass's finished task
    and the audit would run exactly once, ever."""
    _put(grid, runtime, "obj")
    assert _scrub(grid, runtime) == 1
    assert _scrub(grid, runtime) == 1      # second pass submits again
    assert runtime.planner.cycle == 2
    assert scrub_key("obj", 1) != scrub_key("obj", 2)
    queue = runtime.queue_service.queue
    scrubs = [t for t in queue.tasks.values() if t.type == "scrub"]
    assert len(scrubs) == 2
    assert all(t.state == "done" for t in scrubs)


def test_backlog_gauges_track_outstanding_work(grid, runtime):
    _put(grid, runtime, "obj")
    queue = runtime.queue_service.queue
    queue.submit("scrub", "hub",
                 {"object": "obj", "cycle": 9}, key=scrub_key("obj", 9))
    queue.submit(
        "repair", "hub",
        {"object": "obj", "cycle": 9, "bad": []},
        key=repair_key("obj", 9),
    )
    grid.metrics.collect()
    assert grid.metrics.value("chunks.scrub_backlog") == 1
    assert grid.metrics.value("chunks.repair_backlog") == 1
    runtime.start()
    grid.run(until=grid.sim.timeout(120.0))
    grid.metrics.collect()
    assert grid.metrics.value("chunks.scrub_backlog") == 0
    assert grid.metrics.value("chunks.repair_backlog") == 0


def test_directory_gauges_cover_objects_and_replicas(grid, runtime):
    _put(grid, runtime, "obj-a")
    _put(grid, runtime, "obj-b", key="key-obj-a")   # dedup twin
    grid.metrics.collect()
    assert grid.metrics.value("chunks.objects", state="committed") == 2
    assert grid.metrics.value("chunks.unique_chunks") == K + M
    assert grid.metrics.value("chunks.replicas") == K + M
