"""Bulk register/lookup/delete across the catalog layers."""

import pytest

from repro.catalog.gdmp_catalog import GdmpCatalog, LogicalFileInfo
from repro.catalog.replica_catalog import CatalogError, ReplicaCatalog


# -- ReplicaCatalog (low-level Globus API) ---------------------------------

def test_bulk_create_and_delete_logical_file_entries():
    rc = ReplicaCatalog()
    rc.create_collection("c")
    entries = [(f"f{i}", {"size": str(i)}) for i in range(5)]
    rc.bulk_create_logical_file_entries("c", entries)
    for i in range(5):
        assert rc.logical_file_attributes("c", f"f{i}")["size"] == str(i)
    rc.bulk_delete_logical_file_entries("c", [f"f{i}" for i in range(5)])
    with pytest.raises(CatalogError):
        rc.logical_file_attributes("c", "f0")


def test_bulk_add_filenames_and_bulk_locations():
    rc = ReplicaCatalog()
    rc.create_collection("c")
    rc.create_location("c", "cern", hostname="cern",
                       url_prefix="gsiftp://cern/s")
    rc.create_location("c", "anl", hostname="anl", url_prefix="gsiftp://anl/s")
    lfns = [f"f{i}" for i in range(4)]
    rc.bulk_add_filenames_to_collection("c", lfns)
    rc.bulk_add_filenames_to_location("c", "cern", lfns)
    rc.bulk_add_filenames_to_location("c", "anl", lfns[:2])
    by_lfn = rc.bulk_locations_of("c", lfns)
    assert sorted(by_lfn) == lfns
    assert [loc["location"] for loc in by_lfn["f0"]] == ["anl", "cern"]
    assert [loc["location"] for loc in by_lfn["f3"]] == ["cern"]
    # bulk agrees with the single-file path
    for lfn in lfns:
        assert by_lfn[lfn] == rc.locations_of("c", lfn)


def test_bulk_locations_of_requires_the_collection():
    rc = ReplicaCatalog()
    with pytest.raises(CatalogError):
        rc.bulk_locations_of("nope", ["f0"])


# -- GdmpCatalog (high-level GDMP wrapper) ---------------------------------

def files(n, **extra):
    return [
        {"size": 100.0 + i, "modified": 1.0, "crc": i, "lfn": f"b{i}.db",
         **extra}
        for i in range(n)
    ]


def cern(lfn):
    return {"location": "cern", "hostname": "cern",
            "url": f"gsiftp://cern/storage/{lfn}"}


def anl(lfn):
    return {"location": "anl", "hostname": "anl",
            "url": f"gsiftp://anl/storage/{lfn}"}


def test_publish_bulk_matches_per_file_publish():
    catalog = GdmpCatalog()
    specs = files(3, attributes={"run": "7"})
    specs[1]["lfn"] = None  # the catalog chooses this one
    assert catalog.publish_bulk("cern", specs) == [
        "b0.db", "file.000001", "b2.db"
    ]
    assert catalog.list_lfns() == ["b0.db", "file.000001", "b2.db"]
    assert catalog.info("file.000001") == LogicalFileInfo(
        lfn="file.000001", size=101.0, modified=1.0, crc=1,
        attributes={"run": "7"}, locations=(cern("file.000001"),),
    )
    assert catalog.info("b2.db") == LogicalFileInfo(
        lfn="b2.db", size=102.0, modified=1.0, crc=2,
        attributes={"run": "7"}, locations=(cern("b2.db"),),
    )


def test_publish_of_one_is_publish_bulk_of_one():
    item = {"size": 5.0, "modified": 2.5, "crc": 3, "lfn": "one.db"}
    single, bulk = GdmpCatalog(), GdmpCatalog()
    assert single.publish("cern", run="7", **item) == "one.db"
    assert bulk.publish_bulk(
        "cern", [{**item, "attributes": {"run": "7"}}]) == ["one.db"]
    assert single.publish("cern", 1.0, 0.0, 0) == "file.000001"
    assert bulk.publish_bulk(
        "cern", [{"size": 1.0, "modified": 0.0, "crc": 0}]) == ["file.000001"]
    assert (single.catalog.directory.search("o=grid")
            == bulk.catalog.directory.search("o=grid"))
    for bad, text in (
        ({"size": -1.0}, "size must be non-negative"),
        ({"lfn": "a/b"}, "invalid logical file name 'a/b'"),
        ({"lfn": ""}, "invalid logical file name ''"),
        ({"lfn": "one.db"}, "logical file name 'one.db' already in use"),
    ):
        spec = {"size": 1.0, "modified": 0.0, "crc": 0, **bad}
        with pytest.raises(CatalogError) as one:
            single.publish("cern", **spec)
        with pytest.raises(CatalogError) as many:
            bulk.publish_bulk("cern", [spec])
        assert str(one.value) == str(many.value) == text
    assert single.list_lfns() == bulk.list_lfns() == ["one.db", "file.000001"]


def test_publish_bulk_generates_missing_lfns_in_order():
    catalog = GdmpCatalog()
    specs = files(3)
    specs[1] = {"size": 1.0, "modified": 0.0, "crc": 9}  # no lfn
    lfns = catalog.publish_bulk("cern", specs)
    assert lfns[0] == "b0.db" and lfns[2] == "b2.db"
    assert catalog.lfn_exists(lfns[1])


def test_publish_bulk_rejects_duplicates_within_the_batch():
    catalog = GdmpCatalog()
    bad = files(2)
    bad[1]["lfn"] = bad[0]["lfn"]
    with pytest.raises(CatalogError):
        catalog.publish_bulk("cern", bad)


def test_publish_bulk_rejects_lfns_already_in_the_catalog():
    catalog = GdmpCatalog()
    catalog.publish("cern", size=1.0, modified=0.0, crc=1, lfn="b0.db")
    with pytest.raises(CatalogError):
        catalog.publish_bulk("cern", files(2))


def test_add_and_remove_replicas_bulk():
    catalog = GdmpCatalog()
    lfns = catalog.publish_bulk("cern", files(3))
    catalog.add_replicas(lfns, "anl")
    for lfn in lfns:
        assert {loc["location"] for loc in catalog.locations(lfn)} == {
            "cern", "anl"
        }
    for lfn in lfns:
        catalog.remove_replica(lfn, "anl")
    catalog.remove_replica(lfns[0], "cern")
    # the last removal retired b0.db entirely
    assert not catalog.lfn_exists(lfns[0])
    assert catalog.lfn_exists(lfns[1])


def test_add_replicas_requires_known_lfns():
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files(1))
    with pytest.raises(CatalogError):
        catalog.add_replicas(["b0.db", "ghost.db"], "anl")


def test_info_bulk_matches_info_in_input_order():
    catalog = GdmpCatalog()
    lfns = catalog.publish_bulk("cern", files(4))
    catalog.add_replicas(lfns[:2], "anl")
    assert catalog.info_bulk(["b2.db", "b0.db", "b3.db", "b1.db"]) == [
        LogicalFileInfo("b2.db", 102.0, 1.0, 2, {}, (cern("b2.db"),)),
        LogicalFileInfo("b0.db", 100.0, 1.0, 0, {},
                        (anl("b0.db"), cern("b0.db"))),
        LogicalFileInfo("b3.db", 103.0, 1.0, 3, {}, (cern("b3.db"),)),
        LogicalFileInfo("b1.db", 101.0, 1.0, 1, {},
                        (anl("b1.db"), cern("b1.db"))),
    ]


def test_info_bulk_answers_every_position_of_a_repeated_name():
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files(2))
    b0 = LogicalFileInfo("b0.db", 100.0, 1.0, 0, {}, (cern("b0.db"),))
    b1 = LogicalFileInfo("b1.db", 101.0, 1.0, 1, {}, (cern("b1.db"),))
    assert catalog.info_bulk(["b0.db", "b1.db", "b0.db"]) == [b0, b1, b0]


def test_an_unknown_name_is_refused_before_any_location_search():
    """A miss is the common answer of a verify-on-use probe: it is settled
    from the membership/attribute entry, not by walking the locations."""
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files(2))
    stats = catalog.catalog.directory.stats
    before = dict(stats)
    with pytest.raises(CatalogError, match="no such entry: 'lf=ghost.db,"):
        catalog.info("ghost.db")
    with pytest.raises(CatalogError, match="no such entry: 'lf=ghost.db,"):
        catalog.info_bulk(["b0.db", "ghost.db"])
    assert catalog.info_bulk(["ghost.db"], missing_ok=True) == []
    assert stats == before
    assert [i.lfn for i in catalog.info_bulk(
        ["ghost.db", "b1.db"], missing_ok=True)] == ["b1.db"]
    assert stats["index_searches"] == before["index_searches"] + 1


def test_info_bulk_unknown_lfn_raises():
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files(1))
    with pytest.raises(CatalogError):
        catalog.info_bulk(["b0.db", "ghost.db"])
