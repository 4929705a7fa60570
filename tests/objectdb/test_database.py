"""Tests for OIDs, persistent objects, containers, and database files."""

import pytest

from repro.objectdb import DatabaseFile, ObjectError, OID
from repro.objectdb.database import FILE_HEADER_SIZE


def test_oid_parse_round_trip():
    oid = OID(3, 1, 42)
    assert OID.parse(str(oid)) == oid


def test_oid_validation():
    with pytest.raises(ValueError):
        OID(-1, 0, 0)
    with pytest.raises(ValueError):
        OID.parse("1-2")


def test_oid_ordering():
    assert OID(1, 0, 0) < OID(2, 0, 0) < OID(2, 1, 0) < OID(2, 1, 5)


@pytest.fixture
def db():
    return DatabaseFile(5, "run01.aod.0001.db")


def test_new_object_assigns_sequential_oids(db):
    container = db.create_container("aod")
    a = db.new_object(container, "aod", 100, "0/aod")
    b = db.new_object(container, "aod", 100, "1/aod")
    assert a.oid == OID(5, 0, 0)
    assert b.oid == OID(5, 0, 1)


def test_get_by_oid(db):
    container = db.create_container()
    obj = db.new_object(container, "aod", 100, "0/aod")
    assert db.get(obj.oid) == obj  # a fresh view of the same row


def test_get_wrong_database_rejected(db):
    with pytest.raises(ObjectError, match="does not belong"):
        db.get(OID(99, 0, 0))


def test_get_missing_slot_rejected(db):
    db.create_container()
    with pytest.raises(ObjectError, match="no object"):
        db.get(OID(5, 0, 7))


def test_missing_container_rejected(db):
    with pytest.raises(ObjectError, match="no container"):
        db.container(3)


def test_file_size_is_header_plus_objects(db):
    container = db.create_container()
    db.new_object(container, "aod", 1000, "0/aod")
    db.new_object(container, "aod", 2000, "1/aod")
    assert db.size == FILE_HEADER_SIZE + 3000
    assert db.object_count == 2


def test_find_by_key(db):
    container = db.create_container()
    obj = db.new_object(container, "aod", 10, "17/aod")
    assert db.find_by_key("17/aod") == obj
    assert db.find_by_key("18/aod") is None


def test_iter_objects_slot_order(db):
    container = db.create_container()
    keys = [f"{i}/aod" for i in range(5)]
    for key in keys:
        db.new_object(container, "aod", 10, key)
    assert [o.logical_key for o in db.iter_objects()] == keys


def test_object_size_must_be_positive(db):
    container = db.create_container()
    with pytest.raises(ValueError):
        db.new_object(container, "aod", 0, "0/aod")


def test_foreign_container_rejected(db):
    other = DatabaseFile(6, "other.db")
    foreign = other.create_container()
    with pytest.raises(ObjectError):
        db.new_object(foreign, "aod", 10, "0/aod")


def test_associations_and_replication_remap():
    db = DatabaseFile(1, "a.db")
    c = db.create_container()
    raw = db.new_object(c, "raw", 100, "0/raw")
    aod = db.new_object(c, "aod", 10, "0/aod")
    aod.associate("upstream", raw.oid)
    aod.associate("upstream", raw.oid)  # idempotent
    assert aod.targets("upstream") == [raw.oid]
    assert aod.all_targets() == [raw.oid]

    copy = aod.replicated_to(OID(9, 0, 0), remapped={raw.oid: OID(9, 0, 1)})
    assert copy.oid == OID(9, 0, 0)
    assert copy.targets("upstream") == [OID(9, 0, 1)]
    assert copy.logical_key == aod.logical_key
    # unmapped targets keep their original OID
    copy2 = aod.replicated_to(OID(9, 0, 2))
    assert copy2.targets("upstream") == [raw.oid]


def test_associations_keep_role_then_target_order_in_the_row():
    db = DatabaseFile(1, "a.db")
    c = db.create_container()
    x, y, z = (db.new_object(c, "raw", 100, f"{i}/raw") for i in range(3))
    tag = db.new_object(c, "tag", 1, "0/tag")
    tag.associate("a", x.oid)
    tag.associate("b", y.oid)
    tag.associate("a", z.oid)
    tag.associate("b", y.oid)  # idempotent
    stored = db.get(tag.oid)  # a fresh view reads the row
    for obj in (tag, stored):
        assert obj.associations == {"a": [x.oid, z.oid], "b": [y.oid]}
        assert obj.all_targets() == [x.oid, z.oid, y.oid]
        assert obj.targets("b") == [y.oid]
