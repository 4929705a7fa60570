import pytest

from repro.catalog import CatalogError, ReplicaCatalog


@pytest.fixture
def rc():
    catalog = ReplicaCatalog()
    catalog.create_collection("cms")
    catalog.create_location("cms", "cern", "cern.ch", "gsiftp://cern.ch/data")
    catalog.create_location("cms", "anl", "anl.gov", "gsiftp://anl.gov/store")
    return catalog


def register(rc, lfn, size=1000):
    rc.add_filename_to_collection("cms", lfn)
    rc.create_logical_file_entry("cms", lfn, {"size": str(size)})


def test_collection_lifecycle(rc):
    assert rc.collection_exists("cms")
    assert not rc.collection_exists("atlas")
    rc.create_collection("atlas")
    assert rc.collection_exists("atlas")


def test_duplicate_collection_rejected(rc):
    with pytest.raises(CatalogError):
        rc.create_collection("cms")


def test_location_listing(rc):
    assert rc.location_exists("cms", "anl") and rc.location_exists("cms", "cern")
    assert not rc.location_exists("cms", "fnal")


def test_register_and_locate(rc):
    register(rc, "higgs.db")
    rc.add_filename_to_location("cms", "cern", "higgs.db")
    locations = rc.locations_of("cms", "higgs.db")
    assert len(locations) == 1
    assert locations[0]["url"] == "gsiftp://cern.ch/data/higgs.db"
    assert locations[0]["hostname"] == "cern.ch"


def test_multiple_replicas_all_reported(rc):
    register(rc, "f")
    rc.add_filename_to_location("cms", "cern", "f")
    rc.add_filename_to_location("cms", "anl", "f")
    urls = {loc["url"] for loc in rc.locations_of("cms", "f")}
    assert urls == {"gsiftp://cern.ch/data/f", "gsiftp://anl.gov/store/f"}


def test_location_registration_requires_collection_membership(rc):
    with pytest.raises(CatalogError, match="register it first"):
        rc.add_filename_to_location("cms", "cern", "unregistered")


def test_location_registration_requires_location(rc):
    register(rc, "f")
    with pytest.raises(CatalogError, match="no location"):
        rc.add_filename_to_location("cms", "slac", "f")


def test_remove_filename_from_location(rc):
    register(rc, "f")
    rc.add_filename_to_location("cms", "cern", "f")
    rc.remove_filename_from_location("cms", "cern", "f")
    assert rc.locations_of("cms", "f") == []


def test_logical_file_attributes(rc):
    register(rc, "f", size=12345)
    attrs = rc.logical_file_attributes("cms", "f")
    assert attrs["size"] == "12345"
    assert attrs["lfn"] == "f"


def test_search_logical_files(rc):
    register(rc, "big.db", size=10_000)
    register(rc, "small.db", size=10)
    assert rc.search_logical_files("cms", "(size>=1000)") == ["big.db"]
    assert sorted(rc.search_logical_files("cms", "(lfn=*.db)")) == [
        "big.db",
        "small.db",
    ]


def test_missing_collection_operations_fail(rc):
    with pytest.raises(CatalogError):
        rc.collection_filenames("nope")
    with pytest.raises(CatalogError):
        rc.create_location("nope", "x", "h", "u")
    with pytest.raises(CatalogError):
        rc.search_logical_files("nope", "(a=*)")


def test_names_with_ldap_metacharacters_rejected(rc):
    with pytest.raises(CatalogError):
        rc.create_collection("bad,name")
    with pytest.raises(CatalogError):
        rc.collection_dn("a=b")


def test_two_catalogs_share_directory():
    from repro.catalog import LdapDirectory

    directory = LdapDirectory()
    a = ReplicaCatalog(directory, name="rcA")
    b = ReplicaCatalog(directory, name="rcB")
    a.create_collection("c")
    assert not b.collection_exists("c")  # separate namespaces, one server
