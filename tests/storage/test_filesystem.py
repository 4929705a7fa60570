import pytest

from repro.storage import FileSystem, StorageError, file_crc
from repro.netsim.units import MB


@pytest.fixture
def fs():
    return FileSystem("cern", capacity=100 * MB)


def test_create_and_stat(fs):
    fs.create("/data/f1", 10 * MB, now=5.0)
    stored = fs.stat("/data/f1")
    assert stored.size == 10 * MB
    assert stored.created_at == 5.0
    assert fs.used == 10 * MB
    assert fs.free == 90 * MB


def test_create_duplicate_rejected(fs):
    fs.create("/f", 1 * MB)
    with pytest.raises(StorageError, match="exists"):
        fs.create("/f", 1 * MB)


def test_create_over_capacity_rejected(fs):
    with pytest.raises(StorageError, match="no space"):
        fs.create("/big", 200 * MB)


def test_delete_frees_space(fs):
    fs.create("/f", 40 * MB)
    fs.delete("/f")
    assert fs.used == 0
    assert not fs.exists("/f")


def test_stat_missing_raises(fs):
    with pytest.raises(StorageError, match="no such file"):
        fs.stat("/nope")


def test_listing_with_prefix(fs):
    fs.create("/data/a", 1)
    fs.create("/data/b", 1)
    fs.create("/other/c", 1)
    assert [f.path for f in fs.listing("/data/")] == ["/data/a", "/data/b"]
    assert len(fs.listing()) == 3


def test_clone_preserves_content_identity(fs):
    original = fs.create("/f", 5 * MB)
    copy = original.clone("/elsewhere/f", now=9.0)
    assert copy.crc == original.crc
    assert copy.content_id == original.content_id
    assert copy.path == "/elsewhere/f"
    assert copy.created_at == 9.0


def test_corruption_changes_crc(fs):
    stored = fs.create("/f", 5 * MB)
    crc_before = stored.crc
    fs.corrupt("/f")
    assert fs.stat("/f").crc != crc_before


def test_crc_is_content_derived():
    assert file_crc("same") == file_crc("same")
    assert file_crc("a") != file_crc("b")


def test_store_clone_between_filesystems(fs):
    remote = FileSystem("anl", capacity=100 * MB)
    original = fs.create("/f", 5 * MB)
    remote.store(original.clone("/f", now=1.0))
    assert remote.stat("/f").crc == original.crc


def test_payload_travels_with_clone(fs):
    stored = fs.create("/db", 1 * MB, payload={"objects": [1, 2, 3]})
    copy = stored.clone("/db2", now=0.0)
    assert copy.payload == {"objects": [1, 2, 3]}


def test_invalid_sizes(fs):
    with pytest.raises(ValueError):
        fs.create("/neg", -1)
    with pytest.raises(ValueError):
        FileSystem("x", capacity=0)
