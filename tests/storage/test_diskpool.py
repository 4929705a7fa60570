import pytest

from repro.netsim.units import MB
from repro.storage import DiskPool, FileSystem, PinError, StorageError


@pytest.fixture
def pool():
    return DiskPool(FileSystem("cern", capacity=100 * MB))


def fill(pool, count, size=10 * MB, t0=0.0):
    for i in range(count):
        pool.fs.create(f"/pool/f{i}", size, now=t0 + i)
        pool.fs.touch_access(f"/pool/f{i}", t0 + i)


def test_lookup_hit_miss_statistics(pool):
    fill(pool, 1)
    assert pool.lookup("/pool/f0", now=5.0) is not None
    assert pool.lookup("/pool/nope", now=5.0) is None
    assert pool.hits == 1
    assert pool.misses == 1


def test_lookup_refreshes_recency(pool):
    fill(pool, 2)
    pool.lookup("/pool/f0", now=100.0)
    assert pool.evictable()[0].path == "/pool/f1"  # f1 now least recent


def test_ensure_space_evicts_lru(pool):
    fill(pool, 10)  # pool full: 10 x 10MB
    evicted = pool.ensure_space(25 * MB)
    assert evicted == ["/pool/f0", "/pool/f1", "/pool/f2"]
    assert pool.evictions == 3
    assert pool.fs.free >= 25 * MB


def test_pinned_files_survive_eviction(pool):
    fill(pool, 10)
    pool.pin("/pool/f0")
    evicted = pool.ensure_space(15 * MB)
    assert "/pool/f0" not in evicted
    assert evicted == ["/pool/f1", "/pool/f2"]


def test_ensure_space_fails_when_all_pinned(pool):
    fill(pool, 10)
    for i in range(10):
        pool.pin(f"/pool/f{i}")
    with pytest.raises(StorageError, match="pinned"):
        pool.ensure_space(1 * MB)


def test_ensure_space_rejects_oversized_request(pool):
    with pytest.raises(StorageError, match="exceeds pool capacity"):
        pool.ensure_space(200 * MB)


def test_pin_unpin_counting(pool):
    fill(pool, 1)
    pool.pin("/pool/f0")
    pool.pin("/pool/f0")
    assert pool.pin_count("/pool/f0") == 2
    pool.unpin("/pool/f0")
    assert pool.pin_count("/pool/f0") == 1
    pool.unpin("/pool/f0")
    assert pool.pin_count("/pool/f0") == 0


def test_unpin_without_pin_rejected(pool):
    fill(pool, 1)
    with pytest.raises(PinError):
        pool.unpin("/pool/f0")


def test_pin_missing_file_rejected(pool):
    with pytest.raises(StorageError):
        pool.pin("/nope")


