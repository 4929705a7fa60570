"""Tests for the production and analysis workload generators."""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.objectdb import EventStoreBuilder, ObjectTypeSpec
from repro.objectrep import AnalysisChain, GlobalObjectIndex
from repro.objectrep.selection import AnalysisStep
from repro.workload.analysis import AnalysisSession
from repro.workload.production import ProductionRun


@pytest.fixture
def grid():
    return DataGrid(
        [GdmpConfig("cern", has_mss=True), GdmpConfig("anl")]
    )


# ---------------------------------------------------------- production ----
def test_production_publishes_all_files(grid):
    cern = grid.site("cern")
    run = ProductionRun(cern, n_files=4, mean_file_size=2 * MB,
                        interval=10.0, run_name="dc04")
    report = grid.run(until=run.start())
    assert len(report.lfns) == 4
    assert report.lfns[0] == "dc04.0000.db"
    for lfn in report.lfns:
        assert lfn in cern.server.held
        assert cern.federation.is_attached(lfn) is False  # producer keeps payloads in fs
        assert cern.fs.exists(f"/storage/{lfn}")
    # catalog agrees
    assert set(report.lfns) <= set(grid.catalog_backend.list_lfns())


def test_production_file_sizes_vary_lognormally(grid):
    cern = grid.site("cern")
    run = ProductionRun(cern, n_files=6, mean_file_size=2 * MB, interval=0.0,
                        seed=3)
    report = grid.run(until=run.start())
    sizes = [cern.fs.stat(f"/storage/{lfn}").size for lfn in report.lfns]
    assert len(set(round(s) for s in sizes)) > 1  # not all identical
    for size in sizes:
        assert 0.3 * 2 * MB < size < 4 * 2 * MB


def test_production_respects_interval(grid):
    cern = grid.site("cern")
    run = ProductionRun(cern, n_files=3, mean_file_size=1 * MB, interval=50.0)
    report = grid.run(until=run.start())
    assert report.duration >= 100.0  # two inter-file gaps


def test_production_archives_to_mss(grid):
    cern = grid.site("cern")
    run = ProductionRun(cern, n_files=2, mean_file_size=1 * MB, interval=0.0,
                        archive=True)
    report = grid.run(until=run.start())
    assert report.archived == 2
    for lfn in report.lfns:
        assert cern.mss.contains(f"/storage/{lfn}")


def test_production_feeds_subscribers(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    anl.config.auto_replicate = True
    grid.run(until=anl.client.subscribe_to("cern"))
    run = ProductionRun(cern, n_files=2, mean_file_size=1 * MB, interval=5.0)
    grid.run(until=run.start())
    grid.run()  # drain auto-replications
    assert sorted(anl.server.held) == ["run.0000.db", "run.0001.db"]


def test_production_validation(grid):
    cern = grid.site("cern")
    with pytest.raises(ValueError):
        ProductionRun(cern, n_files=0)
    with pytest.raises(ValueError):
        ProductionRun(cern, mean_file_size=-1)


# ------------------------------------------------------------ analysis ----
def test_analysis_session_end_to_end(grid):
    cern = grid.site("cern")
    catalog = EventStoreBuilder(seed=5).build(
        cern.federation,
        n_events=1000,
        types=(ObjectTypeSpec("aod", 10_000.0),),
        events_per_file=250,
    )
    index = GlobalObjectIndex()
    for name in cern.federation.database_names:
        index.record_file("cern", cern.federation.database(name))
    chain = AnalysisChain(steps=(AnalysisStep("skim", 0.05, "aod"),), seed=2)
    session = AnalysisSession(
        grid, home_site="anl", store_site="cern",
        catalog=catalog, index=index, chain=chain,
    )
    report = grid.run(until=session.start(chunk_objects=50))
    assert report.objects_moved == report.surviving_events > 10
    assert report.wire_bytes < report.file_replication_bytes
    assert report.saving > 10
    assert report.pages_read_locally > 0
    # the objects are genuinely at the home site
    anl = grid.site("anl")
    assert anl.federation.object_count == report.objects_moved


def test_analysis_session_with_tag_cuts(grid):
    from repro.objectdb import TagDatabase

    cern = grid.site("cern")
    catalog = EventStoreBuilder(seed=8).build(
        cern.federation,
        n_events=2000,
        types=(ObjectTypeSpec("aod", 10_000.0),),
        events_per_file=500,
    )
    index = GlobalObjectIndex()
    for name in cern.federation.database_names:
        index.record_file("cern", cern.federation.database(name))
    tags = TagDatabase.generate(2000, seed=8)
    cuts = ["njets >= 4", "met > 60"]
    session = AnalysisSession(
        grid, home_site="anl", store_site="cern",
        catalog=catalog, index=index, tags=tags, cuts=cuts,
    )
    report = grid.run(until=session.start(chunk_objects=200))
    assert report.surviving_events == len(tags.select(cuts))
    assert report.objects_moved == report.surviving_events
    assert 0 < report.surviving_events < 400  # a genuinely sparse selection
