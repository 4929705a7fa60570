"""Tests for the object copier and the global object index."""

import pytest

from repro.objectdb import Federation, NavigationError, OID
from repro.objectrep import CopyCostModel, GlobalObjectIndex, ObjectCopier
from repro.simulation import Simulator


@pytest.fixture
def fed():
    federation = Federation("cms", site="cern")
    federation.declare_type("aod")
    federation.declare_type("raw")
    db = federation.create_database("src.db")
    container = db.create_container()
    raws = [db.new_object(container, "raw", 50_000, f"{i}/raw") for i in range(10)]
    aods = [db.new_object(container, "aod", 10_000, f"{i}/aod") for i in range(10)]
    for aod, raw in zip(aods, raws):
        aod.associate("upstream", raw.oid)
    return federation, db, aods, raws


def test_copy_selected_objects(fed):
    federation, _db, aods, _raws = fed
    copier = ObjectCopier(federation)
    result = copier.copy([a.oid for a in aods[:4]], "new.db")
    assert result.objects_copied == 4
    assert result.bytes_copied == 4 * 10_000
    assert result.closure_added == 0
    copied_keys = [o.logical_key for o in result.database.iter_objects()]
    assert copied_keys == ["0/aod", "1/aod", "2/aod", "3/aod"]


def test_copied_objects_get_new_oids_with_remapped_internal_refs(fed):
    federation, _db, aods, raws = fed
    copier = ObjectCopier(federation)
    result = copier.copy([aods[0].oid, raws[0].oid], "new.db")
    new_aod = result.database.find_by_key("0/aod")
    new_raw = result.database.find_by_key("0/raw")
    assert new_aod.oid.database == result.database.db_id
    # the association was remapped to the copied raw object
    assert new_aod.targets("upstream") == [new_raw.oid]


def test_copy_without_closure_leaves_dangling_refs(fed):
    federation, _db, aods, raws = fed
    copier = ObjectCopier(federation)
    result = copier.copy([aods[0].oid], "new.db")
    new_aod = result.database.find_by_key("0/aod")
    # untranslated target: still the original OID (only navigable where
    # the original file is attached — the §2.1 association problem)
    assert new_aod.targets("upstream") == [raws[0].oid]


def test_copy_with_closure_pulls_in_targets(fed):
    federation, _db, aods, _raws = fed
    copier = ObjectCopier(federation)
    result = copier.copy([a.oid for a in aods[:3]], "new.db",
                         include_closure=True)
    assert result.objects_copied == 6
    assert result.closure_added == 3
    assert result.database.find_by_key("2/raw") is not None


def test_closure_is_navigable_in_isolation(fed):
    federation, _db, aods, _raws = fed
    copier = ObjectCopier(federation)
    result = copier.copy([aods[0].oid], "new.db", include_closure=True)
    # attach ONLY the copied file to a fresh federation
    dest = Federation("cms", site="anl")
    dest.declare_type("aod")
    dest.declare_type("raw")
    dest.attach(result.database)
    aod = dest.find_by_key("0/aod")
    raw = dest.navigate(aod, "upstream")[0]
    assert raw.logical_key == "0/raw"


def test_copy_nothing_rejected(fed):
    federation, *_ = fed
    with pytest.raises(ValueError):
        ObjectCopier(federation).copy([], "empty.db")


def test_copy_unattached_oid_fails(fed):
    federation, *_ = fed
    with pytest.raises(NavigationError):
        ObjectCopier(federation).copy([OID(999, 0, 0)], "x.db")


def test_copy_timed_charges_cost_model(fed):
    federation, _db, aods, _raws = fed
    sim = Simulator()
    cost = CopyCostModel(disk_read_rate=1e6, disk_write_rate=1e6,
                         cpu_rate=1e6, per_object_overhead=0.01)
    copier = ObjectCopier(federation, cost)
    result = sim.run(until=sim.spawn(
        copier.copy_timed(sim, [a.oid for a in aods], "t.db")
    ))
    nbytes = 10 * 10_000
    expected = 3 * nbytes / 1e6 + 10 * 0.01
    assert sim.now == pytest.approx(expected)
    assert result.objects_copied == 10


def test_cost_model_time_components():
    cost = CopyCostModel(disk_read_rate=100, disk_write_rate=100,
                         cpu_rate=100, per_object_overhead=1.0)
    assert cost.copy_time(100, 2) == pytest.approx(1 + 1 + 1 + 2)


# --------------------------------------------------------------- index ----
def sites_holding(index, key):
    return {entry.site for entry in index.locate(key)}


def test_index_record_and_collective_lookup():
    index = GlobalObjectIndex()
    index.record("5/aod", "cern", "f1.db", OID(1, 0, 5))
    index.record("5/aod", "anl", "c1.db", OID(100, 0, 0))
    index.record("6/aod", "cern", "f1.db", OID(1, 0, 6))
    result = index.locate_many(["5/aod", "6/aod", "7/aod"])
    assert {e.site for e in result["5/aod"]} == {"cern", "anl"}
    assert result["7/aod"] == []
    assert index.lookups == 1  # collective = one operation
    assert sites_holding(index, "5/aod") == {"cern", "anl"}


def test_index_missing_at():
    index = GlobalObjectIndex()
    index.record("a", "cern", "f.db", OID(1, 0, 0))
    index.record("b", "cern", "f.db", OID(1, 0, 1))
    index.record("b", "anl", "g.db", OID(2, 0, 0))
    assert index.missing_at("anl", ["a", "b"]) == ["a"]
    assert index.missing_at("cern", ["a", "b"]) == []


def test_index_duplicate_record_idempotent():
    index = GlobalObjectIndex()
    for _ in range(3):
        index.record("a", "cern", "f.db", OID(1, 0, 0))
    assert len(index.locate("a")) == 1


def test_index_payload_round_trip_and_merge():
    index = GlobalObjectIndex()
    index.record("a", "cern", "f.db", OID(1, 0, 0))
    index.record("b", "cern", "f.db", OID(1, 0, 1))
    clone = GlobalObjectIndex.from_index_payload(index.to_index_payload())
    assert sites_holding(clone, "a") == {"cern"}
    other = GlobalObjectIndex()
    other.record("a", "anl", "g.db", OID(9, 0, 0))
    clone.merge(other)
    assert sites_holding(clone, "a") == {"cern", "anl"}
    assert clone.estimated_size == 96.0 * 3
