import pytest

from repro.catalog import CatalogError, GdmpCatalog


@pytest.fixture
def gc():
    return GdmpCatalog()


def test_publish_single_call_registers_everything(gc):
    lfn = gc.publish("cern", size=1000, modified=10.0, crc=42, lfn="higgs.db")
    assert lfn == "higgs.db"
    info = gc.info("higgs.db")
    assert info.size == 1000
    assert info.crc == 42
    assert info.locations[0]["location"] == "cern"


def test_publish_duplicate_lfn_rejected(gc):
    gc.publish("cern", size=1, modified=0, crc=0, lfn="f")
    with pytest.raises(CatalogError, match="already in use"):
        gc.publish("anl", size=1, modified=0, crc=0, lfn="f")


def test_publish_auto_generates_unique_lfns(gc):
    a = gc.publish("cern", size=1, modified=0, crc=0)
    b = gc.publish("cern", size=1, modified=0, crc=0)
    assert a != b
    assert gc.lfn_exists(a) and gc.lfn_exists(b)


def test_publish_invalid_lfn_rejected(gc):
    for bad in ["", "a/b", "a,b"]:
        with pytest.raises(CatalogError):
            gc.publish("cern", size=1, modified=0, crc=0, lfn=bad)


def test_publish_negative_size_rejected(gc):
    with pytest.raises(CatalogError):
        gc.publish("cern", size=-5, modified=0, crc=0, lfn="f")


def test_add_replica_and_locations(gc):
    gc.publish("cern", size=1, modified=0, crc=0, lfn="f")
    gc.add_replicas(["f"], "anl")
    sites = {loc["location"] for loc in gc.locations("f")}
    assert sites == {"cern", "anl"}


def test_add_replica_unknown_lfn_rejected(gc):
    with pytest.raises(CatalogError, match="unknown logical file"):
        gc.add_replicas(["ghost"], "anl")


def test_remove_replica_keeps_lfn_while_copies_remain(gc):
    gc.publish("cern", size=1, modified=0, crc=0, lfn="f")
    gc.add_replicas(["f"], "anl")
    gc.remove_replica("f", "cern")
    assert gc.lfn_exists("f")
    assert [loc["location"] for loc in gc.locations("f")] == ["anl"]


def test_remove_last_replica_retires_lfn(gc):
    gc.publish("cern", size=1, modified=0, crc=0, lfn="f")
    gc.remove_replica("f", "cern")
    assert not gc.lfn_exists("f")
    assert gc.list_lfns() == []


def test_search_with_metadata_filter(gc):
    gc.publish("cern", size=100, modified=0, crc=0, lfn="small", filetype="objy")
    gc.publish("cern", size=10_000, modified=0, crc=0, lfn="big", filetype="objy")
    gc.publish("cern", size=50_000, modified=0, crc=0, lfn="flat", filetype="flat")
    hits = gc.search("(&(filetype=objy)(size>=1000))")
    assert [h.lfn for h in hits] == ["big"]


def test_search_returns_locations_and_metadata(gc):
    gc.publish("cern", size=5, modified=2.5, crc=7, lfn="f", run="42")
    info = gc.search("(lfn=f)")[0]
    assert info.modified == 2.5
    assert info.attributes["run"] == "42"
    assert info.locations[0]["url"].endswith("/f")


def test_register_site_idempotent(gc):
    gc.register_site("cern")
    gc.register_site("cern")
    gc.publish("cern", size=1, modified=0, crc=0, lfn="f")
    assert gc.locations("f")[0]["url"] == "gsiftp://cern/storage/f"
