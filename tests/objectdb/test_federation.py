import pytest

from repro.objectdb import (
    DatabaseFile,
    Federation,
    FederationError,
    NavigationError,
    OID,
)


@pytest.fixture
def fed():
    federation = Federation("cms", site="cern")
    federation.declare_type("aod")
    federation.declare_type("raw")
    return federation


def make_remote_db(db_id=50):
    db = DatabaseFile(db_id, "remote.db")
    c = db.create_container()
    db.new_object(c, "aod", 10, "0/aod")
    return db


def test_create_database_and_resolve(fed):
    db = fed.create_database("local.db")
    c = db.create_container()
    obj = db.new_object(c, "aod", 10, "0/aod")
    assert fed.resolve(obj.oid) == obj


def test_duplicate_database_name_rejected(fed):
    fed.create_database("a.db")
    with pytest.raises(FederationError):
        fed.create_database("a.db")


def test_resolve_unattached_raises_navigation_error(fed):
    with pytest.raises(NavigationError):
        fed.resolve(OID(99, 0, 0))


def test_attach_replicated_file(fed):
    db = make_remote_db()
    fed.attach(db)
    assert fed.is_attached("remote.db")
    assert fed.resolve(OID(50, 0, 0)).logical_key == "0/aod"


def test_attach_requires_schema():
    bare = Federation("cms", site="anl")
    with pytest.raises(FederationError, match="unknown types"):
        bare.attach(make_remote_db())


def test_import_schema_enables_attach(fed):
    target = Federation("cms", site="anl")
    for type_name in fed.schema:
        target.declare_type(type_name)
    target.attach(make_remote_db())
    assert target.knows_type("aod")


def test_attach_preserves_oids_and_avoids_id_collisions(fed):
    fed.attach(make_remote_db(db_id=50))
    new_db = fed.create_database("new.db")
    assert new_db.db_id > 50


def test_attach_duplicate_rejected(fed):
    fed.attach(make_remote_db())
    with pytest.raises(FederationError):
        fed.attach(make_remote_db())


def test_detach(fed):
    fed.attach(make_remote_db())
    detached = fed.detach("remote.db")
    assert detached.name == "remote.db"
    assert not fed.is_attached("remote.db")
    with pytest.raises(NavigationError):
        fed.resolve(OID(50, 0, 0))


def test_detach_missing_rejected(fed):
    with pytest.raises(FederationError):
        fed.detach("ghost.db")


def test_navigation_across_attached_files(fed):
    db_a = fed.create_database("a.db")
    db_b = fed.create_database("b.db")
    ca, cb = db_a.create_container(), db_b.create_container()
    raw = db_b.new_object(cb, "raw", 100, "0/raw")
    aod = db_a.new_object(ca, "aod", 10, "0/aod")
    aod.associate("upstream", raw.oid)
    assert fed.navigate(aod, "upstream") == [raw]


def test_navigation_to_detached_file_fails(fed):
    # the §2.1 scenario: only one of two associated files is replicated
    db_a = fed.create_database("a.db")
    db_b = fed.create_database("b.db")
    ca, cb = db_a.create_container(), db_b.create_container()
    raw = db_b.new_object(cb, "raw", 100, "0/raw")
    aod = db_a.new_object(ca, "aod", 10, "0/aod")
    aod.associate("upstream", raw.oid)
    fed.detach("b.db")
    with pytest.raises(NavigationError):
        fed.navigate(aod, "upstream")


def test_find_by_key_takes_the_first_match_in_attach_container_slot_order(fed):
    a = fed.create_database("a.db")
    a_first, a_second = a.create_container(), a.create_container()
    a.new_object(a_second, "aod", 10, "other/aod")
    later_container = a.new_object(a_second, "aod", 10, "7/aod")
    a.new_object(a_first, "aod", 10, "other/aod")
    in_a = a.new_object(a_first, "aod", 10, "7/aod")
    a.new_object(a_first, "aod", 10, "7/aod")  # a later slot of the same key
    b = fed.create_database("b.db")
    in_b = b.new_object(b.create_container(), "aod", 10, "7/aod")

    assert a.find_by_key("7/aod") == in_a
    assert a.find_by_key("7/aod") != later_container
    assert fed.find_by_key("7/aod") == in_a
    fed.detach("a.db")
    assert fed.find_by_key("7/aod") == in_b
    fed.attach(a)  # attached again, it now comes after b.db
    assert fed.find_by_key("7/aod") == in_b
    fed.detach("b.db")
    assert fed.find_by_key("7/aod") == in_a
    assert fed.find_by_key("other/aod").oid == OID(a.db_id, 0, 0)


def test_find_by_key_and_counts(fed):
    db = fed.create_database("a.db")
    c = db.create_container()
    db.new_object(c, "aod", 10, "3/aod")
    assert fed.find_by_key("3/aod").oid == OID(1, 0, 0)
    assert fed.find_by_key("nope") is None
    assert fed.object_count == 1
    assert fed.database_names == ["a.db"]
