"""Multi-site integration stress: the catalog and reality must agree.

A five-site grid (Figure 3 at the scale of the EU DataGrid testbed era):
one producer with an MSS, four regional centers with mixed subscription
filters and auto-replication.  After two production runs, every site must
hold exactly what the central catalog says it holds, every replica must be
CRC-faithful, and no pins or reservations may leak.
"""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import GB, MB
from repro.workload.production import ProductionRun


@pytest.fixture
def big_grid():
    return DataGrid(
        [
            GdmpConfig("cern", has_mss=True),
            GdmpConfig("anl", auto_replicate=True),
            GdmpConfig("caltech", auto_replicate=True),
            GdmpConfig("lyon", auto_replicate=True),
            GdmpConfig("infn", auto_replicate=False),
        ]
    )


def test_five_site_production_consistency(big_grid):
    grid = big_grid
    cern = grid.site("cern")
    # mixed subscriptions: anl takes everything, caltech only large files,
    # lyon only the second run, infn subscribes but replicates manually
    grid.run(until=grid.site("anl").client.subscribe_to("cern"))
    grid.run(until=grid.site("caltech").client.subscribe_to(
        "cern", filter_text="(size>=2000000)"))
    grid.run(until=grid.site("lyon").client.subscribe_to(
        "cern", filter_text="(lfn=dc2*)"))
    grid.run(until=grid.site("infn").client.subscribe_to("cern"))

    report1 = grid.run(until=ProductionRun(
        cern, n_files=4, mean_file_size=3 * MB, interval=30.0,
        run_name="dc1", seed=1,
    ).start())
    report2 = grid.run(until=ProductionRun(
        cern, n_files=4, mean_file_size=3 * MB, interval=30.0,
        run_name="dc2", seed=2,
    ).start())
    grid.run()  # drain every auto-replication

    all_lfns = set(report1.lfns) | set(report2.lfns)
    assert len(all_lfns) == 8

    # anl mirrors everything
    assert set(grid.site("anl").server.held) == all_lfns
    # lyon only followed dc2
    assert set(grid.site("lyon").server.held) == set(report2.lfns)
    # caltech followed only large-enough files (size filter)
    for lfn in grid.site("caltech").server.held:
        assert cern.fs.stat(f"/storage/{lfn}").size >= 2 * MB
    # infn queued the news but moved nothing
    assert grid.site("infn").server.held == {}
    assert len(grid.site("infn").server.pending_news) == 8

    # catalog-vs-reality consistency for every site and file
    backend = grid.catalog_backend
    for site in grid.sites.values():
        catalog_view = [
            lfn for lfn in backend.list_lfns()
            if site.name in {loc["location"] for loc in backend.locations(lfn)}
        ]
        assert sorted(catalog_view) == sorted(site.server.held)
        for lfn, path in site.server.held.items():
            received = site.fs.stat(path)
            original = cern.fs.stat(f"/storage/{lfn}")
            assert received.crc == original.crc
    # no leaked pins or reservations anywhere
    for site in grid.sites.values():
        assert site.pool.reserved == 0
        assert all(count == 0 for count in site.pool._pins.values())


def test_manual_catch_up_after_the_fact(big_grid):
    grid = big_grid
    cern = grid.site("cern")
    grid.run(until=ProductionRun(
        cern, n_files=3, mean_file_size=2 * MB, interval=0.0, run_name="dc3",
    ).start())
    infn = grid.site("infn")
    reports = grid.run(until=infn.client.replicate_missing_from("cern"))
    assert len(reports) == 3
    assert set(infn.server.held) == {
        "dc3.0000.db", "dc3.0001.db", "dc3.0002.db"
    }
