"""Tests for index-file replication through GDMP (§5.2)."""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.objectdb import EventStoreBuilder, ObjectTypeSpec
from repro.objectrep import GlobalObjectIndex, ObjectReplicator
from repro.objectrep.index_service import IndexService


@pytest.fixture
def grid_with_indices():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    cern = grid.site("cern")
    catalog = EventStoreBuilder(seed=21).build(
        cern.federation,
        n_events=300,
        types=(ObjectTypeSpec("aod", 10_000.0),),
        events_per_file=100,
    )
    cern_index = GlobalObjectIndex()
    for name in cern.federation.database_names:
        cern_index.record_file("cern", cern.federation.database(name))
    cern_service = IndexService(cern, cern_index)
    anl_service = IndexService(grid.site("anl"))  # empty local view
    return grid, catalog, cern_service, anl_service


def test_snapshot_is_a_first_class_grid_file(grid_with_indices):
    grid, _catalog, cern_service, _anl_service = grid_with_indices
    lfn = grid.run(until=cern_service.publish_snapshot())
    info = grid.run(until=grid.site("cern").client.catalog.info(lfn))
    assert info.attributes["filetype"] == IndexService.FILETYPE
    assert int(info.attributes["entries"]) == 300
    assert info.locations[0]["location"] == "cern"


def test_import_merges_remote_view(grid_with_indices):
    grid, _catalog, cern_service, anl_service = grid_with_indices
    assert len(anl_service.index) == 0
    merged = grid.run(until=anl_service.sync_from(cern_service))
    assert merged == 300
    assert len(anl_service.index) == 300
    assert {e.site for e in anl_service.index.locate("0/aod")} == {"cern"}
    # the index file itself got replicated to anl through GDMP
    assert any(lfn.startswith("index.cern") for lfn in grid.site("anl").server.held)


def test_import_is_idempotent(grid_with_indices):
    grid, _catalog, cern_service, anl_service = grid_with_indices
    grid.run(until=anl_service.sync_from(cern_service))
    grid.run(until=anl_service.import_snapshot(cern_service.latest_snapshot))
    assert len(anl_service.index) == 300


def test_synced_index_drives_object_replication(grid_with_indices):
    """The §5.2 loop closed: learn what exists where from a replicated
    index file, then object-replicate against it."""
    grid, catalog, cern_service, anl_service = grid_with_indices
    grid.run(until=anl_service.sync_from(cern_service))
    replicator = ObjectReplicator(grid, "anl", anl_service.index)
    keys = [f"{e}/aod" for e in range(50)]
    report = grid.run(until=replicator.replicate_objects(keys))
    assert report.objects_moved == 50
    assert grid.site("anl").federation.find_by_key("0/aod") is not None


def test_snapshots_version_independently(grid_with_indices):
    grid, _catalog, cern_service, _anl = grid_with_indices
    first = grid.run(until=cern_service.publish_snapshot())
    second = grid.run(until=cern_service.publish_snapshot())
    assert first != second
    assert cern_service.latest_snapshot == second


def test_import_rejects_non_index_file(grid_with_indices):
    from repro.gdmp.request_manager import GdmpError
    from repro.netsim.units import MB

    grid, _catalog, _cern_service, anl_service = grid_with_indices
    cern = grid.site("cern")
    grid.run(until=cern.client.produce_and_publish("notindex.db", 1 * MB))
    with pytest.raises(GdmpError, match="does not carry an index payload"):
        grid.run(until=anl_service.import_snapshot("notindex.db"))
