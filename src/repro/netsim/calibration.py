"""Frozen calibration of the paper's CERN–ANL testbed.

§6 of the paper: "The test environment consisted of a 45 Mbps link between
CERN and ANL with a RTT of 125 milliseconds."  The link was a *production*
link — 2001-era trans-Atlantic research links carried substantial background
traffic, which is why the measured plateau is ≈23 Mbps rather than 45.

These constants are calibrated **once** so that the simulated testbed
reproduces the paper's Figure 5/6 shapes, then frozen; individual benchmarks
must not re-tune them.

Calibration notes
-----------------
* ``CROSS_TRAFFIC_MBPS = 20`` leaves ≈25 Mbps available, putting the
  multi-stream plateau at ≈23 Mbps as in both figures.
* ``RANDOM_LOSS`` (6e-5/packet) barely touches 64 KiB-window streams
  (≈0.1%/RTT) but AIMD-limits a single tuned 1 MiB-buffer stream to
  ≈60–75% of the available bandwidth, so 2–3 tuned streams gain the
  additional ≈25% the paper reports.
* ``QUEUE_CAPACITY = 128 KiB`` sets the overflow point for tuned streams a
  little above the ≈390 KB available-bandwidth-delay product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import KiB, mbps
from repro.simulation.kernel import Simulator
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["TestbedParams", "cern_anl_testbed"]

LINK_CAPACITY_MBPS = 45.0
RTT_SECONDS = 0.125
CROSS_TRAFFIC_MBPS = 20.0
QUEUE_CAPACITY_BYTES = 128 * KiB
RANDOM_LOSS_PER_PACKET = 6.0e-5
LAN_CAPACITY_MBPS = 1000.0
LAN_DELAY_SECONDS = 0.0005
DEFAULT_BUFFER_BYTES = 64 * KiB       # "default TCP buffers ... typically 64 KB"
TUNED_BUFFER_BYTES = 1024 * KiB       # "TCP buffers tuned to 1 MB"


@dataclass(frozen=True)
class TestbedParams:
    """Parameters of the simulated CERN–ANL environment."""

    __test__ = False  # not a pytest test class despite the name

    capacity_mbps: float = LINK_CAPACITY_MBPS
    rtt: float = RTT_SECONDS
    cross_traffic_mbps: float = CROSS_TRAFFIC_MBPS
    queue_capacity: float = QUEUE_CAPACITY_BYTES
    loss_rate: float = RANDOM_LOSS_PER_PACKET
    seed: int = 2001
    extra_sites: tuple[str, ...] = field(default=())


def cern_anl_testbed(
    params: TestbedParams | None = None,
    metrics: MetricsRegistry = NO_METRICS,
) -> tuple[Simulator, Topology, NetworkEngine]:
    """Build the simulated testbed of §6: CERN and ANL joined by one WAN link.

    Additional sites named in ``params.extra_sites`` are attached to CERN via
    identical WAN links (used by the multi-site examples; the Fig. 5/6
    benches use only the CERN–ANL pair).
    """
    params = params or TestbedParams()
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("cern"))
    topo.add_host(Host("anl"))
    topo.connect(
        "cern",
        "anl",
        Link(
            name="wan-cern-anl",
            capacity=mbps(params.capacity_mbps),
            delay=params.rtt / 2.0,
            queue_capacity=params.queue_capacity,
            cross_traffic=mbps(params.cross_traffic_mbps),
            loss_rate=params.loss_rate,
        ),
    )
    for site in params.extra_sites:
        topo.add_host(Host(site))
        topo.connect(
            "cern",
            site,
            Link(
                name=f"wan-cern-{site}",
                capacity=mbps(params.capacity_mbps),
                delay=params.rtt / 2.0,
                queue_capacity=params.queue_capacity,
                cross_traffic=mbps(params.cross_traffic_mbps),
                loss_rate=params.loss_rate,
            ),
        )
    engine = NetworkEngine(sim, topo, seed=params.seed, metrics=metrics)
    return sim, topo, engine
