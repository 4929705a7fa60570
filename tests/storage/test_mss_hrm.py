import pytest

from repro.netsim.units import MB
from repro.simulation import Simulator
from repro.storage import (
    DiskPool,
    FileSystem,
    HierarchicalResourceManager,
    MassStorageSystem,
    StageStatus,
    StorageError,
    TapeError,
)


@pytest.fixture
def site():
    sim = Simulator()
    pool = DiskPool(FileSystem("cern", capacity=100 * MB))
    mss = MassStorageSystem(sim, "cern", drives=1, mount_seek_time=30.0,
                            tape_rate=10 * MB)
    hrm = HierarchicalResourceManager(sim, pool, mss)
    return sim, pool, mss, hrm


def test_stage_from_tape_takes_mount_plus_stream_time(site):
    sim, pool, mss, hrm = site
    mss.ingest_raw("/data/f1", 20 * MB)
    event = hrm.stage_file("/data/f1")
    stored = sim.run(until=event)
    assert stored.size == 20 * MB
    assert sim.now == pytest.approx(30.0 + 2.0)  # mount + 20MB / 10MBps
    assert pool.fs.exists("/data/f1")


def test_stage_disk_hit_is_immediate(site):
    sim, pool, _mss, hrm = site
    pool.fs.create("/data/hot", 5 * MB)
    event = hrm.stage_file("/data/hot")
    stored = sim.run(until=event)
    assert sim.now == 0.0
    assert stored.path == "/data/hot"


def test_stage_unknown_file_fails(site):
    sim, _pool, _mss, hrm = site
    event = hrm.stage_file("/data/ghost")
    with pytest.raises(TapeError):
        sim.run(until=event)


def test_concurrent_stages_queue_for_the_single_drive(site):
    sim, _pool, mss, hrm = site
    mss.ingest_raw("/a", 10 * MB)
    mss.ingest_raw("/b", 10 * MB)
    ev_a = hrm.stage_file("/a")
    ev_b = hrm.stage_file("/b")
    sim.run(until=ev_a)
    first_done = sim.now
    sim.run(until=ev_b)
    # second stage waits for the drive: ~2x the single-stage time
    assert sim.now == pytest.approx(2 * first_done)


def test_duplicate_stage_requests_join(site):
    sim, _pool, mss, hrm = site
    mss.ingest_raw("/a", 10 * MB)
    ev1 = hrm.stage_file("/a")
    ev2 = hrm.stage_file("/a")
    assert hrm.status("/a") is StageStatus.STAGING
    sim.run(until=ev1)
    stored = sim.run(until=ev2)
    assert stored.path == "/a"
    # only one drive occupancy: both done at single-stage time
    assert sim.now == pytest.approx(31.0)
    assert mss.stats["staged_files"] == 1


def test_status_transitions(site):
    sim, pool, mss, hrm = site
    mss.ingest_raw("/t", 10 * MB)
    pool.fs.create("/d", 1 * MB)
    assert hrm.status("/t") is StageStatus.ON_TAPE
    assert hrm.status("/d") is StageStatus.ON_DISK
    assert hrm.status("/x") is StageStatus.UNKNOWN
    event = hrm.stage_file("/t")
    assert hrm.status("/t") is StageStatus.STAGING
    sim.run(until=event)
    assert hrm.status("/t") is StageStatus.ON_DISK


def test_file_size_lookup(site):
    _sim, pool, mss, hrm = site
    mss.ingest_raw("/t", 10 * MB)
    pool.fs.create("/d", 2 * MB)
    assert hrm.file_size("/t") == 10 * MB
    assert hrm.file_size("/d") == 2 * MB
    with pytest.raises(StorageError):
        hrm.file_size("/nope")


def test_migrate_to_tape(site):
    sim, pool, mss, hrm = site
    pool.fs.create("/d", 10 * MB)
    event = hrm.archive_file("/d")
    sim.run(until=event)
    assert mss.contains("/d")
    assert sim.now == pytest.approx(31.0)


def test_disk_only_site_rejects_archive_and_tape_misses():
    sim = Simulator()
    pool = DiskPool(FileSystem("uni", capacity=10 * MB))
    hrm = HierarchicalResourceManager(sim, pool, mss=None)
    stage = hrm.stage_file("/nope")
    with pytest.raises(TapeError):
        sim.run(until=stage)
    archive_event = hrm.archive_file("/whatever")
    with pytest.raises(StorageError):
        sim.run(until=archive_event)


def test_stage_preserves_content_identity(site):
    sim, pool, mss, hrm = site
    mss.ingest_raw("/f", 5 * MB, content_id="run42:events")
    stored = sim.run(until=hrm.stage_file("/f"))
    assert stored.content_id == "run42:events"


def test_staging_evicts_cold_files_for_space(site):
    sim, pool, mss, hrm = site
    for i in range(10):
        pool.fs.create(f"/cold{i}", 10 * MB, now=float(i))
    mss.ingest_raw("/hot", 30 * MB)
    stored = sim.run(until=hrm.stage_file("/hot"))
    assert stored.size == 30 * MB
    assert pool.evictions == 3
