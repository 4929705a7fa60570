"""Figure 6: the Figure 5 experiments "but with TCP buffers tuned to 1 MB.
Results are similar, except that peak performance is achieved with just 3
streams."
"""

from __future__ import annotations

from repro.experiments import figure5
from repro.netsim.calibration import TUNED_BUFFER_BYTES

__all__ = ["run", "report"]


def run(
    file_sizes_mb=figure5.FILE_SIZES_MB,
    stream_counts=figure5.STREAM_COUNTS,
    seed: int = 2001,
    repeats: int = 1,
) -> dict[int, dict[int, float]]:
    """The Figure 5 sweep with 1 MiB tuned buffers."""
    return figure5.run(
        file_sizes_mb, stream_counts, buffer=TUNED_BUFFER_BYTES, seed=seed,
        repeats=repeats,
    )


def report(series) -> None:
    """Print the Figure 6 table."""
    figure5.report(
        series,
        title="Figure 6 — GridFTP transfer rates, TCP buffers tuned to 1 MB",
    )
