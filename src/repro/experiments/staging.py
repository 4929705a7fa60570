"""EXP-MSS: §4.4 stage-on-demand.

"If a remote site requests a replica from another remote site where the
file is not available in the disk pool, GDMP initializes the staging
process from tape to disk.  The GDMP server then informs the remote site
when the file is present locally on disk and at that time performs
automatically the disk-to-disk file transfer."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import export_telemetry, print_table
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB

__all__ = ["StagingResult", "run", "report"]


@dataclass(frozen=True)
class StagingResult:
    size_mb: int
    warm: object   # ReplicationReport, file already on the source's disk
    cold: object   # ReplicationReport, file staged from tape first

    @property
    def staging_penalty(self) -> float:
        return self.cold.stage_wait - self.warm.stage_wait


def run(size_mb: int = 20, seed: int = 2001,
        metrics_json: str | None = None,
        trace_chrome: str | None = None,
        show_report: bool = False) -> StagingResult:
    """Replicate a disk-warm and a tape-cold file; returns both reports.
    The telemetry keywords export the grid's metrics/trace afterwards."""
    grid = DataGrid(
        [GdmpConfig("cern", has_mss=True), GdmpConfig("anl")], seed=seed
    )
    cern, anl = grid.site("cern"), grid.site("anl")
    for lfn in ("warm.db", "cold.db"):
        grid.run(until=cern.client.produce_and_publish(lfn, size_mb * MB))
    # archive cold.db and purge it from the disk pool
    grid.run(until=cern.storage.archive("/storage/cold.db"))
    cern.fs.delete("/storage/cold.db")

    warm = grid.run(until=anl.client.replicate("warm.db"))
    cold = grid.run(until=anl.client.replicate("cold.db"))
    export_telemetry(
        grid.metrics,
        grid.tracelog,
        metrics_json=metrics_json,
        trace_chrome=trace_chrome,
        show_report=show_report,
    )
    return StagingResult(size_mb=size_mb, warm=warm, cold=cold)


def report(result: StagingResult) -> None:
    """Print the warm/cold comparison."""
    print_table(
        ["scenario", "stage wait (s)", "transfer (s)", "total (s)"],
        [
            [
                "warm (on source disk)",
                result.warm.stage_wait,
                result.warm.transfer_duration,
                result.warm.total_duration,
            ],
            [
                "cold (staged from tape)",
                result.cold.stage_wait,
                result.cold.transfer_duration,
                result.cold.total_duration,
            ],
        ],
        f"EXP-MSS — §4.4 stage-on-demand, {result.size_mb} MB file",
    )
    print(f"staging penalty: {result.staging_penalty:.1f} s "
          "(tape mount + seek + stream)")
    print()
