"""The tape path behind a site's disk pool: one ``StorageManager`` over
the pool and its MSS stages, joins, archives and reports status."""

import pytest

from repro.gdmp.request_manager import GdmpError
from repro.gdmp.storage_manager import StageStatus, StorageManager
from repro.netsim.units import MB
from repro.simulation import Simulator
from repro.storage import (
    DiskPool,
    FileSystem,
    MassStorageSystem,
    StorageError,
    TapeError,
)


@pytest.fixture
def site():
    sim = Simulator()
    pool = DiskPool(FileSystem("cern", capacity=100 * MB))
    mss = MassStorageSystem(sim, "cern")
    storage = StorageManager(sim, pool, mss)
    return sim, pool, mss, storage


def request(storage, path):
    """A requester's process: the staged file, or the error it got."""

    def run():
        try:
            return (yield from storage.ensure_on_disk(path, pin=False))
        except GdmpError as exc:
            return exc

    return storage.sim.spawn(run(), name=f"request {path}")


def test_stage_from_tape_takes_mount_plus_stream_time(site):
    sim, pool, mss, storage = site
    mss.ingest_raw("/data/f1", 30 * MB)
    stored = sim.run(until=request(storage, "/data/f1"))
    assert stored.size == 30 * MB
    assert sim.now == pytest.approx(45.0 + 2.0)  # mount + 30MB / 15MBps
    assert pool.fs.exists("/data/f1")
    assert storage.stats["stage_requests"] == 1


def test_stage_disk_hit_is_immediate(site):
    sim, pool, _mss, storage = site
    pool.fs.create("/data/hot", 5 * MB)
    stored = sim.run(until=request(storage, "/data/hot"))
    assert sim.now == 0.0
    assert stored.path == "/data/hot"
    assert storage.stats["stage_requests"] == 0


def test_stage_unknown_file_fails(site):
    sim, _pool, _mss, storage = site
    error = sim.run(until=request(storage, "/data/ghost"))
    assert isinstance(error, GdmpError)
    assert isinstance(error.__cause__, TapeError)


def test_concurrent_stages_queue_for_the_two_drives(site):
    sim, _pool, mss, storage = site
    for path in ("/a", "/b", "/c"):
        mss.ingest_raw(path, 15 * MB)
    first, second, third = (
        request(storage, path) for path in ("/a", "/b", "/c")
    )
    sim.run(until=sim.all_of([first, second]))
    # two drives: the first two stage side by side, in one stage time
    assert sim.now == pytest.approx(46.0)
    sim.run(until=third)
    # the third waits for a drive: 2x the single-stage time
    assert sim.now == pytest.approx(2 * 46.0)


def test_duplicate_stage_requests_join(site):
    sim, _pool, mss, storage = site
    mss.ingest_raw("/a", 15 * MB)
    first, second = request(storage, "/a"), request(storage, "/a")
    sim.run(until=first)
    stored = sim.run(until=second)
    assert stored.path == "/a"
    # only one drive occupancy: both done at single-stage time
    assert sim.now == pytest.approx(46.0)
    assert mss.stats["staged_files"] == 1
    assert storage.stats["stage_requests"] == 1


def test_status_transitions(site):
    sim, pool, mss, storage = site
    mss.ingest_raw("/t", 10 * MB)
    pool.fs.create("/d", 1 * MB)
    assert storage.status("/t") is StageStatus.ON_TAPE
    assert storage.status("/d") is StageStatus.ON_DISK
    assert storage.status("/x") is StageStatus.UNKNOWN
    staged = request(storage, "/t")
    sim.run(until=sim.timeout(1.0))
    assert storage.status("/t") is StageStatus.STAGING
    sim.run(until=staged)
    assert storage.status("/t") is StageStatus.ON_DISK


def test_migrate_to_tape(site):
    sim, pool, mss, storage = site
    pool.fs.create("/d", 15 * MB)
    record = sim.run(until=storage.archive("/d"))
    assert mss.contains("/d")
    assert record.path == "/d"
    assert sim.now == pytest.approx(46.0)
    assert storage.stats["files_archived"] == 1


def test_disk_only_site_rejects_archive_and_tape_misses():
    sim = Simulator()
    pool = DiskPool(FileSystem("uni", capacity=10 * MB))
    storage = StorageManager(sim, pool, mss=None)
    error = sim.run(until=request(storage, "/nope"))
    assert isinstance(error.__cause__, TapeError)
    with pytest.raises(StorageError):
        sim.run(until=storage.archive("/whatever"))


def test_stage_preserves_content_identity(site):
    sim, pool, mss, storage = site
    mss.ingest_raw("/f", 5 * MB, content_id="run42:events")
    stored = sim.run(until=request(storage, "/f"))
    assert stored.content_id == "run42:events"


def test_staging_evicts_cold_files_for_space(site):
    sim, pool, mss, storage = site
    for i in range(10):
        pool.fs.create(f"/cold{i}", 10 * MB, now=float(i))
    mss.ingest_raw("/hot", 30 * MB)
    stored = sim.run(until=request(storage, "/hot"))
    assert stored.size == 30 * MB
    assert pool.evictions == 3


# -- a staging is the MSS's own event: no process relays it -----------------


def spawned_beside(born, requesters):
    """Names of the processes born that are not the requesters."""
    return [p.name for p in born if p not in requesters]


def test_a_tape_stage_spawns_only_the_mss_staging(site, born):
    sim, _pool, mss, storage = site
    mss.ingest_raw("/t", 10 * MB)
    first = request(storage, "/t")
    sim.run(until=first)
    assert spawned_beside(born, [first]) == ["stage /t @ cern"]


def test_a_joining_request_spawns_nothing(site, born):
    sim, _pool, mss, storage = site
    mss.ingest_raw("/t", 10 * MB)
    requesters = [request(storage, "/t") for _ in range(3)]
    results = sim.run(until=sim.all_of(requesters))
    assert spawned_beside(born, requesters) == ["stage /t @ cern"]
    assert len({id(stored) for stored in results}) == 1
    assert storage.status("/t") is StageStatus.ON_DISK


def test_a_disk_hit_spawns_nothing(site, born):
    sim, pool, _mss, storage = site
    pool.fs.create("/d", 1 * MB)
    first = request(storage, "/d")
    sim.run(until=first)
    assert spawned_beside(born, [first]) == []


def test_a_failed_stage_fails_every_waiter_and_leaves_the_file_on_tape(
    site, born
):
    sim, _pool, mss, storage = site
    mss.ingest_raw("/t", 10 * MB)
    mss.inject_errors(1)
    requesters = [request(storage, "/t") for _ in range(3)]
    results = sim.run(until=sim.all_of(requesters))
    for error in results:
        assert isinstance(error, GdmpError)
        assert isinstance(error.__cause__, TapeError)
        assert "injected drive error" in str(error)
    assert spawned_beside(born, requesters) == ["stage /t @ cern"]
    assert storage.status("/t") is StageStatus.ON_TAPE
    # the next request starts a fresh staging, which succeeds
    stored = sim.run(until=request(storage, "/t"))
    assert stored.path == "/t"
    assert storage.stats["stage_requests"] == 2
