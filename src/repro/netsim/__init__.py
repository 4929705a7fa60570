"""Wide-area network simulation substrate.

Implements the network the paper measured GridFTP on: links with capacity,
propagation delay, a FIFO bottleneck queue, constant-rate cross-traffic and
random packet loss, plus a fluid-level TCP Reno model advanced in per-RTT
rounds.  The :class:`~repro.netsim.engine.NetworkEngine` integrates active
flows with the discrete-event kernel; :mod:`repro.netsim.tools` provides the
simulated ``ping`` / ``pipechar`` / ``iperf`` used by the §6 tuning workflow.
"""

from repro.netsim.calibration import TestbedParams, cern_anl_testbed
from repro.netsim.engine import Flow, NetworkEngine, SharedBytePool
from repro.netsim.link import Link
from repro.netsim.tcp import CongestionState, TcpParams, TcpState
from repro.netsim.tools import iperf, ping, pipechar
from repro.netsim.topology import Host, Topology
from repro.netsim.tuning import optimal_buffer_size, recommend_streams
from repro.netsim.units import (
    GB,
    GiB,
    KB,
    KiB,
    MB,
    MiB,
    fmt_bytes,
    fmt_rate_mbps,
    mbps,
    to_mbps,
)

__all__ = [
    "CongestionState",
    "Flow",
    "GB",
    "GiB",
    "Host",
    "KB",
    "KiB",
    "Link",
    "MB",
    "MiB",
    "NetworkEngine",
    "SharedBytePool",
    "TcpParams",
    "TcpState",
    "TestbedParams",
    "Topology",
    "cern_anl_testbed",
    "fmt_bytes",
    "fmt_rate_mbps",
    "iperf",
    "mbps",
    "optimal_buffer_size",
    "ping",
    "pipechar",
    "recommend_streams",
    "to_mbps",
]
