import pytest

from repro.objectdb import (
    OID,
    EventStoreBuilder,
    Federation,
    ObjectReader,
    ObjectTypeSpec,
    PAGE_SIZE,
    STANDARD_TYPES,
)


AOD_ONLY = (ObjectTypeSpec("aod", 10_000.0),)


@pytest.fixture
def store():
    fed = Federation("cms", site="cern")
    catalog = EventStoreBuilder(seed=7).build(
        fed, n_events=200, types=AOD_ONLY, events_per_file=50
    )
    return fed, catalog


def test_builder_creates_expected_files(store):
    fed, catalog = store
    assert len(fed.database_names) == 4  # 200 events / 50 per file
    assert fed.object_count == 200


def test_catalog_maps_event_to_oid_to_file(store):
    fed, catalog = store
    oid = catalog.oid_for(17, "aod")
    assert fed.resolve(oid).logical_key == "17/aod"
    file_name = catalog.file_of(oid)
    assert file_name in fed.database_names


def test_sequential_placement_clusters_consecutive_events(store):
    _fed, catalog = store
    files = {catalog.file_of(catalog.oid_for(e, "aod")) for e in range(50)}
    assert len(files) == 1  # first 50 events share one file


def test_random_placement_scatters_events():
    fed = Federation("cms", site="cern")
    catalog = EventStoreBuilder(seed=7).build(
        fed, n_events=200, types=AOD_ONLY, events_per_file=50, placement="random"
    )
    files = {catalog.file_of(catalog.oid_for(e, "aod")) for e in range(50)}
    assert len(files) > 1


def test_files_for_groups_by_file(store):
    _fed, catalog = store
    oids = catalog.oids_for(range(0, 200, 10), "aod")
    grouped = catalog.files_for(oids)
    assert sum(len(v) for v in grouped.values()) == 20
    assert len(grouped) == 4


def test_recording_an_object_again_moves_its_count(store):
    fed, catalog = store
    moved_to = fed.database_names[-1]
    before = catalog.objects_per_file("aod")
    target = fed.database(moved_to).db_id
    catalog.record_object(0, "aod", OID(target, 0, 0))
    after = catalog.objects_per_file("aod")
    assert after[moved_to] == before[moved_to] + 1
    assert after[fed.database_names[0]] == before[fed.database_names[0]] - 1
    assert catalog.oid_for(0, "aod") == OID(target, 0, 0)
    # the last object of a file moved away: the file drops out
    catalog.record_file(999, "lone.db")
    catalog.record_object(7, "aod", OID(999, 0, 0))
    catalog.record_object(7, "aod", OID(target, 0, 1))
    assert "lone.db" not in catalog.objects_per_file("aod")


def test_reconstruction_chain_associations():
    fed = Federation("cms", site="cern")
    catalog = EventStoreBuilder(seed=1).build(
        fed, n_events=20, types=STANDARD_TYPES, events_per_file=10
    )
    tag = fed.resolve(catalog.oid_for(5, "tag"))
    aod = fed.navigate(tag, "upstream")[0]
    assert aod.logical_key == "5/aod"
    esd = fed.navigate(aod, "upstream")[0]
    raw = fed.navigate(esd, "upstream")[0]
    assert raw.logical_key == "5/raw"
    assert raw.size == 1_000_000.0


def test_builder_validation():
    fed = Federation("cms", site="cern")
    builder = EventStoreBuilder()
    with pytest.raises(ValueError):
        builder.build(fed, n_events=0)
    with pytest.raises(ValueError):
        builder.build(fed, n_events=10, placement="magic")


def test_missing_event_lookup(store):
    _fed, catalog = store
    with pytest.raises(KeyError):
        catalog.oid_for(99999, "aod")
    with pytest.raises(KeyError):
        catalog.file_of(type("FakeOID", (), {"database": 999})())


# ----------------------------------------------------------- reader -------
def test_reader_counts_pages_and_bytes(store):
    fed, catalog = store
    reader = ObjectReader(fed)
    obj = reader.read(catalog.oid_for(0, "aod"))
    assert obj.logical_key == "0/aod"
    # a 10 KB object spans ceil(10000/8192)=2 pages
    assert reader.page_reads == 2
    assert reader.bytes_read == 10_000


def test_reader_page_cache_dedupes(store):
    fed, catalog = store
    reader = ObjectReader(fed)
    reader.read(catalog.oid_for(0, "aod"))
    pages_first = reader.page_reads
    reader.read(catalog.oid_for(0, "aod"))
    assert reader.page_reads == pages_first  # cached, no new I/O
    reader.drop_cache()
    reader.read(catalog.oid_for(0, "aod"))
    assert reader.page_reads > pages_first


def test_sparse_read_touches_most_pages(store):
    """The §5.1 effect: sparse selections pay almost-full file I/O."""
    fed, catalog = store
    file_pages = 50 * 10_000 / PAGE_SIZE  # pages of one 50-event file

    sparse_reader = ObjectReader(fed)
    # every 2nd event of the first file: 25 objects, 10KB each on 8KB pages
    sparse_reader.read_many(catalog.oids_for(range(0, 50, 2), "aod"))
    dense_reader = ObjectReader(fed)
    dense_reader.read_many(catalog.oids_for(range(50), "aod"))

    # the sparse read of 50% of objects touches > 70% of the pages the
    # dense read touches
    assert sparse_reader.page_reads > 0.7 * dense_reader.page_reads
