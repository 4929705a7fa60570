import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import GB


def moved(grid, event, site="anl"):
    """One site's data-mover count of a recovery event."""
    return grid.metrics.value(f"gdmp.mover.{event}", site=site)


@pytest.fixture
def grid():
    """Two-site grid: CERN (catalog host) and ANL."""
    return DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])


@pytest.fixture
def grid3():
    """Three-site grid with an MSS-backed producer at CERN."""
    return DataGrid(
        [
            GdmpConfig("cern", has_mss=True, disk_capacity=10 * GB),
            GdmpConfig("anl"),
            GdmpConfig("caltech"),
        ]
    )
