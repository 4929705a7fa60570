"""Property test: restart recovery is equivalent to a clean transfer.

For any abort point, the resumed transfer must deliver a file identical in
size and content identity to an uninterrupted transfer, and the total
bytes on the wire must equal the file size (restart markers waste nothing).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gridftp import TransferError
from repro.netsim.units import MB

from tests.gridftp.conftest import TwoSiteGrid


@settings(max_examples=15, deadline=None)
@given(
    size_mb=st.integers(min_value=2, max_value=30),
    abort_fraction=st.floats(min_value=0.05, max_value=0.95),
)
def test_restart_resume_equivalent_to_clean_transfer(size_mb, abort_fraction):
    grid = TwoSiteGrid()
    size = size_mb * MB
    grid.fs["cern"].create("/store/f", size)
    grid.servers["cern"].failures.abort_after_bytes(
        "/store/f", abort_fraction * size
    )

    def scenario(sim=grid.sim, client=grid.client):
        session = yield from client.connect("cern")
        try:
            yield from client.get(session, "/store/f", "/recv/f")
        except TransferError as exc:
            marker = exc.restart_marker
            assert marker is not None
            yield from client.get(session, "/store/f", "/recv/f",
                                  restart=marker.ranges)
        yield from client.quit(session)

    grid.sim.run(until=grid.sim.spawn(scenario()))
    received = grid.fs["anl"].stat("/recv/f")
    original = grid.fs["cern"].stat("/store/f")
    # identical outcome to a clean transfer
    assert received.size == original.size
    assert received.crc == original.crc
    # restart wasted nothing: total wire bytes == file size
    total_wire = (
        grid.metrics.value("netsim.bytes_delivered")
        + grid.engine.stats["bytes_delivered_aborted"]
    )
    assert total_wire == pytest.approx(size, rel=0.01)
