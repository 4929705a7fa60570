"""EXP-BDP: the §6 buffer formula — optimal TCP buffer = RTT x bottleneck.

"If the buffers are too small, the TCP congestion window will never fully
open up.  If the buffers are too large, the sender can overrun the
receiver, and the TCP window will shut down."

The experiment measures the link with the simulated ping and pipechar
(exactly the paper's method), computes the formula's prediction, then
sweeps the buffer size and reports where throughput actually peaks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import print_table
from repro.experiments.testbed import extended_get, gridftp_testbed
from repro.netsim.calibration import TestbedParams
from repro.netsim.tools import ping, pipechar
from repro.netsim.tuning import optimal_buffer_size
from repro.netsim.units import KiB, MB

__all__ = ["BufferSweep", "run", "report"]

BUFFER_SIZES = tuple(
    k * KiB for k in (16, 32, 64, 128, 256, 384, 512, 768, 1024, 2048, 4096)
)


@dataclass(frozen=True)
class BufferSweep:
    measured_rtt: float
    measured_bottleneck: float       # available bandwidth from pipechar
    formula_buffer: int              # RTT x bandwidth
    rates: dict[int, float]          # buffer bytes -> Mbps (1 stream, 100 MB)

    @property
    def best_buffer(self) -> int:
        return max(self.rates, key=self.rates.get)


def run(
    buffer_sizes=BUFFER_SIZES,
    file_size_mb: int = 100,
    streams: int = 1,
    seed: int = 2001,
) -> BufferSweep:
    """Measure throughput across buffer sizes; returns the sweep with the formula prediction."""
    buffer_sizes = tuple(buffer_sizes)
    probe = gridftp_testbed(TestbedParams(seed=seed))
    rtt = ping(probe.topology, "anl", "cern").rtt
    bottleneck = pipechar(probe.topology, "anl", "cern").available_bandwidth
    formula = optimal_buffer_size(rtt, bottleneck)
    # every point is measured on a fresh testbed of the same seed
    rates = {
        buffer: extended_get(
            gridftp_testbed(TestbedParams(seed=seed)),
            file_size_mb * MB, streams, buffer,
        )
        for buffer in buffer_sizes
    }
    return BufferSweep(
        measured_rtt=rtt,
        measured_bottleneck=bottleneck,
        formula_buffer=formula,
        rates=rates,
    )


def report(sweep: BufferSweep) -> None:
    """Print the sweep table and the formula-vs-measured comparison."""
    rows = [[b // KiB, rate] for b, rate in sorted(sweep.rates.items())]
    print_table(
        ["buffer (KiB)", "rate (Mbps)"],
        rows,
        "EXP-BDP — single-stream throughput vs TCP buffer size, 100 MB file",
    )
    print(
        f"measured: RTT = {sweep.measured_rtt * 1000:.1f} ms, bottleneck = "
        f"{sweep.measured_bottleneck * 8 / 1e6:.1f} Mbps (ping + pipechar)"
    )
    print(
        f"formula:  optimal buffer = RTT x bandwidth = "
        f"{sweep.formula_buffer / KiB:.0f} KiB"
    )
    print(f"measured: best buffer in sweep = {sweep.best_buffer // KiB} KiB")
    print()
