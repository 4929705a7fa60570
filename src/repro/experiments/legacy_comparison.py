"""EXP-ABL1: GDMP 2.0 vs the GDMP 1.2 baseline (architecture ablation).

The paper's motivation for the second-generation architecture, quantified:
tuned parallel GridFTP vs one untuned FTP stream; restart markers vs
full-retransfer-on-failure; the CRC check vs silently delivering a
corrupted file.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import print_table
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.legacy import LegacyGdmp
from repro.netsim.calibration import TUNED_BUFFER_BYTES
from repro.netsim.units import MB
from repro.objectdb import DatabaseFile


@dataclass(frozen=True)
class LegacyComparison:
    size_mb: int
    clean_v2_s: float
    clean_v12_s: float
    failure_v2_wire_mb: float      # bytes on the wire with a late failure
    failure_v12_wire_mb: float
    corruption_detected_v2: bool
    corruption_detected_v12: bool

    @property
    def clean_speedup(self) -> float:
        return self.clean_v12_s / self.clean_v2_s

    @property
    def failure_waste_ratio(self) -> float:
        return self.failure_v12_wire_mb / self.failure_v2_wire_mb


def _grid():
    return DataGrid(
        [
            GdmpConfig("cern", tcp_buffer=TUNED_BUFFER_BYTES, parallel_streams=3),
            GdmpConfig("anl", tcp_buffer=TUNED_BUFFER_BYTES, parallel_streams=3),
        ]
    )


def _publish_objy(grid, lfn: str, size_mb: int):
    cern = grid.site("cern")
    db = DatabaseFile(500 + hash(lfn) % 1000, lfn)
    container = db.create_container()
    n_objects = max(1, int(size_mb))
    for i in range(n_objects):
        db.new_object(container, "digi", size_mb * MB / n_objects, f"{lfn}/{i}")
    cern.federation.declare_type("digi")
    grid.run(
        until=cern.client.produce_and_publish(
            lfn, size_mb * MB, payload=db, filetype="objectivity", schema="digi"
        )
    )


def run(size_mb: int = 25) -> LegacyComparison:
    # clean transfers
    """Measure GDMP 2.0 vs the 1.2 baseline on clean/failed/corrupted transfers."""
    grid = _grid()
    _publish_objy(grid, "clean.db", size_mb)
    v2_clean = grid.run(until=grid.site("anl").client.replicate("clean.db"))

    grid = _grid()
    _publish_objy(grid, "clean.db", size_mb)
    v12_clean = grid.run(
        until=LegacyGdmp(grid, "anl").replicate("clean.db", "cern")
    )

    # late failure: disconnect at 80% of the file.  Wire bytes = everything
    # the network actually carried (completed + aborted-attempt bytes).
    def failed_wire(version: str) -> float:
        grid = _grid()
        _publish_objy(grid, "flaky.db", size_mb)
        grid.site("cern").gridftp_server.failures.abort_after_bytes(
            "/storage/flaky.db", 0.8 * size_mb * MB
        )
        if version == "v2":
            grid.run(until=grid.site("anl").client.replicate("flaky.db"))
        else:
            grid.run(until=LegacyGdmp(grid, "anl").replicate("flaky.db", "cern"))
        return (
            grid.metrics.value("netsim.bytes_delivered")
            + grid.engine.stats["bytes_delivered_aborted"]
        )

    # corruption: does the receiver end up with a correct file?
    def corruption_detected(version: str) -> bool:
        grid = _grid()
        _publish_objy(grid, "bad.db", size_mb)
        grid.site("cern").gridftp_server.failures.corrupt_next("/storage/bad.db")
        if version == "v2":
            grid.run(until=grid.site("anl").client.replicate("bad.db"))
        else:
            grid.run(until=LegacyGdmp(grid, "anl").replicate("bad.db", "cern"))
        received = grid.site("anl").fs.stat("/storage/bad.db")
        original = grid.site("cern").fs.stat("/storage/bad.db")
        return received.crc == original.crc  # True = corruption was cured

    return LegacyComparison(
        size_mb=size_mb,
        clean_v2_s=v2_clean.transfer_duration,
        clean_v12_s=v12_clean.duration,
        failure_v2_wire_mb=failed_wire("v2") / 1e6,
        failure_v12_wire_mb=failed_wire("v12") / 1e6,
        corruption_detected_v2=corruption_detected("v2"),
        corruption_detected_v12=corruption_detected("v12"),
    )


def report(result: LegacyComparison) -> None:
    """Print the ablation table."""
    print_table(
        ["scenario", "GDMP 2.0", "GDMP 1.2 baseline"],
        [
            [
                f"clean {result.size_mb} MB transfer (s)",
                result.clean_v2_s,
                result.clean_v12_s,
            ],
            [
                "wire bytes with failure at 80% (MB)",
                result.failure_v2_wire_mb,
                result.failure_v12_wire_mb,
            ],
            [
                "corrupted transfer delivered correct file",
                "yes" if result.corruption_detected_v2 else "NO",
                "yes" if result.corruption_detected_v12 else "NO",
            ],
        ],
        "EXP-ABL1 — second-generation architecture vs GDMP 1.2",
    )
    print(
        f"clean transfer speedup: {result.clean_speedup:.1f}x; "
        f"failure retransmission waste: {result.failure_waste_ratio:.2f}x"
    )
    print()
