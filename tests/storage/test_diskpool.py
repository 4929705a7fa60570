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




def test_evictable_orders_by_access_then_path_skipping_pins(pool):
    """LRU order is (last_access, path) whatever the insertion order; a
    tie in access time goes to the smaller path, pinned files never
    appear."""
    for path, at in (("/pool/d", 3.0), ("/pool/b", 1.0), ("/pool/c", 1.0),
                     ("/pool/a", 2.0), ("/pool/e", 1.0)):
        pool.fs.create(path, 10 * MB, now=at)
        pool.fs.touch_access(path, at)
    pool.pin("/pool/c")
    assert [f.path for f in pool.evictable()] == [
        "/pool/b", "/pool/e", "/pool/a", "/pool/d",
    ]
    pool.fs.create("/pool/f", 50 * MB, now=4.0)   # 100 of 100 MB used
    assert pool.ensure_space(15 * MB) == ["/pool/b", "/pool/e"]


def test_ensure_space_that_fits_builds_no_lru(pool, monkeypatch):
    """Space already free: nothing is evicted, and neither the file
    listing nor a sort runs."""
    from repro.storage import diskpool

    fill(pool, 5)   # 50 of 100 MB
    calls = []
    monkeypatch.setattr(pool, "evictable", lambda: calls.append("lru"))
    monkeypatch.setattr(pool.fs, "files", lambda: calls.append("files"))
    monkeypatch.setattr(pool.fs, "listing", lambda *a: calls.append("ls"))
    monkeypatch.setattr(diskpool, "sorted",
                        lambda *a, **k: calls.append("sort"), raising=False)
    assert pool.ensure_space(50 * MB) == []
    assert pool.reserve(30 * MB).active
    assert calls == [] and pool.evictions == 0


def test_an_eviction_sorts_once(pool, monkeypatch):
    """The LRU list is one sort over the files, not a path sort first."""
    from repro.storage import diskpool, filesystem

    fill(pool, 10)
    sorts = []

    def counting(*args, **kwargs):
        sorts.append(kwargs.get("key"))
        return sorted(*args, **kwargs)

    monkeypatch.setattr(diskpool, "sorted", counting, raising=False)
    monkeypatch.setattr(filesystem, "sorted", counting, raising=False)
    assert pool.ensure_space(15 * MB) == ["/pool/f0", "/pool/f1"]
    assert len(sorts) == 1
