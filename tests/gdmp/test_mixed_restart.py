"""Regression: a restarted transfer whose earlier aborted attempt served
*different* bytes must not inherit the final attempt's clean CRC.

The scenario: one-shot injected corruption is consumed by the first
transfer attempt, which aborts mid-stream after its restart marker (the
bad bytes are on disk); the resumed attempt serves clean bytes for the
remainder.  The assembled file is a mixture — before the mixed-content
restamp it carried the clean attempt's content identity, passed the
end-to-end CRC check, and silently committed corrupted data.  Now the
mover restamps it via :func:`mixed_content_id`, the CRC check fails,
and the mixture is purged and re-transferred whole.
"""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.storage.integrity import file_crc

from .conftest import moved

SIZE = 60 * MB
CONTENT = "clean-bytes-v1"
PATH = "store/mixed.db"


@pytest.fixture
def grid():
    g = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    g.site("cern").fs.create(PATH, SIZE, content_id=CONTENT)
    return g


def _fetch(grid):
    return grid.run(until=grid.sim.spawn(grid.site("anl").mover.fetch(
        src_host="cern",
        remote_path=PATH,
        local_path="incoming/mixed.db",
        expected_crc=file_crc(CONTENT),
    )))


def test_mixed_assembly_is_restamped_and_retransferred(grid):
    failures = grid.site("cern").gridftp_server.failures
    failures.corrupt_next(PATH)               # attempt 1 serves bad bytes...
    failures.abort_after_bytes(PATH, 20 * MB)  # ...and dies after a marker
    report = _fetch(grid)
    # the delivered file is clean — and it got there the honest way: the
    # mixed first assembly failed the CRC check and was re-sent whole
    assert report.stored.content_id == CONTENT
    assert report.crc_retries == 1
    assert moved(grid, "restarts") >= 1
    assert moved(grid, "mixed_assemblies") == 1
    assert moved(grid, "crc_failures") == 1
    assert grid.metrics.value(
        "gdmp.mover.mixed_assemblies", site="anl"
    ) == 1
    assert grid.metrics.value("gdmp.mover.files_moved", site="anl") == 1


def test_resumed_same_content_is_not_a_mixture(grid):
    """The happy restart path: both attempts served the same bytes, so
    no restamp happens and no CRC retry is spent."""
    grid.site("cern").gridftp_server.failures.abort_after_bytes(PATH, 20 * MB)
    report = _fetch(grid)
    assert report.stored.content_id == CONTENT
    assert report.crc_retries == 0
    assert moved(grid, "restarts") >= 1
    assert moved(grid, "mixed_assemblies") == 0


def test_unconsumed_corruption_is_caught_whole(grid):
    """A corrupted transfer that runs to completion (no restart) is the
    plain CRC-failure path — purged and re-sent, never a mixture."""
    grid.site("cern").gridftp_server.failures.corrupt_next(PATH)
    report = _fetch(grid)
    assert report.stored.content_id == CONTENT
    assert report.crc_retries == 1
    assert moved(grid, "mixed_assemblies") == 0
    assert moved(grid, "crc_failures") == 1
