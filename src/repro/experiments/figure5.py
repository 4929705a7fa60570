"""Figure 5: GridFTP transfer rate vs number of parallel streams,
default (untuned, 64 KiB) TCP buffers.

Paper series: files of 1, 25, 50 and 100 MB; 1-10 streams; "the curves for
the larger files going up almost linearly with the number of streams,
reaching a peak at around 23 Mbps for 9 streams" while the 1 MB curve stays
low (slow start + per-transfer setup dominate).
"""

from __future__ import annotations

from repro.experiments.common import print_table
from repro.experiments.testbed import extended_get, gridftp_testbed
from repro.netsim.calibration import DEFAULT_BUFFER_BYTES, TestbedParams
from repro.netsim.units import MB

__all__ = ["FILE_SIZES_MB", "STREAM_COUNTS", "run", "report"]

FILE_SIZES_MB = (1, 25, 50, 100)
STREAM_COUNTS = tuple(range(1, 11))
BUFFER = DEFAULT_BUFFER_BYTES


def run(
    file_sizes_mb=FILE_SIZES_MB,
    stream_counts=STREAM_COUNTS,
    buffer: int = BUFFER,
    seed: int = 2001,
    repeats: int = 1,
) -> dict[int, dict[int, float]]:
    """-> {file_size_mb: {streams: rate_mbps}}.  Each point runs on a fresh
    testbed (independent measurements, as in the paper); ``repeats`` > 1
    averages over independent loss realizations (seed, seed+1, ...).
    """
    series: dict[int, dict[int, float]] = {}
    for size_mb in file_sizes_mb:
        for streams in stream_counts:
            rates = [
                extended_get(
                    gridftp_testbed(TestbedParams(seed=seed + repeat)),
                    size_mb * MB, streams, buffer,
                )
                for repeat in range(repeats)
            ]
            series.setdefault(size_mb, {})[streams] = sum(rates) / len(rates)
    return series


def report(series: dict[int, dict[int, float]], title: str | None = None) -> None:
    """Print the Figure 5 table (streams x file sizes)."""
    sizes = sorted(series)
    stream_counts = sorted(next(iter(series.values())))
    rows = [
        [streams, *(series[size][streams] for size in sizes)]
        for streams in stream_counts
    ]
    print_table(
        ["streams", *(f"{s} MB file (Mbps)" for s in sizes)],
        rows,
        title or
        "Figure 5 — GridFTP transfer rates, default TCP buffers (64 KiB)",
    )
