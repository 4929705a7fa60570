"""EXP-GDMP: the §4.1 end-to-end replication pipeline, including failure
recovery — "we use the built-in error correction in GridFTP plus an
additional CRC error check ... and use GridFTP's error detection and
restart capabilities to restart interrupted and corrupted file transfers."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import export_telemetry, print_table
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.calibration import TUNED_BUFFER_BYTES
from repro.netsim.units import MB

__all__ = ["PipelineRuns", "run", "report"]


@dataclass(frozen=True)
class PipelineRuns:
    size_mb: int
    clean: object          # ReplicationReport
    with_abort: object     # ReplicationReport after an injected disconnect
    with_corruption: object  # ReplicationReport after an injected corruption


def run(size_mb: int = 25, seed: int = 2001,
        trace_path: str | None = None,
        metrics_json: str | None = None,
        trace_chrome: str | None = None,
        show_report: bool = False) -> PipelineRuns:
    """Replicate with no failure, an injected disconnect, and an injected
    corruption.  With ``trace_path`` set, the grid's request-trace log
    (every RPC, GridFTP command, transfer, and catalog update span) is
    dumped there as JSON; ``metrics_json`` / ``trace_chrome`` /
    ``show_report`` export the grid's telemetry (see
    :func:`repro.experiments.common.export_telemetry`)."""
    grid = DataGrid(
        [
            GdmpConfig("cern", tcp_buffer=TUNED_BUFFER_BYTES, parallel_streams=3),
            GdmpConfig("anl", tcp_buffer=TUNED_BUFFER_BYTES, parallel_streams=3),
        ],
        seed=seed,
    )
    cern, anl = grid.site("cern"), grid.site("anl")
    for lfn in ("clean.db", "abort.db", "corrupt.db"):
        grid.run(until=cern.client.produce_and_publish(lfn, size_mb * MB))

    clean = grid.run(until=anl.client.replicate("clean.db"))
    cern.gridftp_server.failures.abort_after_bytes(
        "/storage/abort.db", size_mb * MB / 2
    )
    with_abort = grid.run(until=anl.client.replicate("abort.db"))
    cern.gridftp_server.failures.corrupt_next("/storage/corrupt.db")
    with_corruption = grid.run(until=anl.client.replicate("corrupt.db"))
    if trace_path is not None:
        grid.tracelog.dump_json(trace_path)
        print(f"wrote {len(grid.tracelog)} trace spans to {trace_path}")
    export_telemetry(
        grid.metrics,
        grid.tracelog,
        metrics_json=metrics_json,
        trace_chrome=trace_chrome,
        show_report=show_report,
    )
    return PipelineRuns(
        size_mb=size_mb,
        clean=clean,
        with_abort=with_abort,
        with_corruption=with_corruption,
    )


def report(result: PipelineRuns) -> None:
    """Print the three-scenario pipeline table."""
    rows = []
    for label, rep in (
        ("clean", result.clean),
        ("mid-transfer disconnect", result.with_abort),
        ("corruption (CRC mismatch)", result.with_corruption),
    ):
        rows.append(
            [
                label,
                rep.total_duration,
                rep.transfer_duration,
                rep.attempts,
                rep.crc_retries,
                rep.throughput * 8 / 1e6,
            ]
        )
    print_table(
        [
            "scenario",
            "total (s)",
            "transfer (s)",
            "attempts",
            "crc retries",
            "goodput (Mbps)",
        ],
        rows,
        f"EXP-GDMP — {result.size_mb} MB replication pipeline with failure "
        "injection",
    )
    print()
