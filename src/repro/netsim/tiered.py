"""MONARC-style tiered topologies: T0 -> T1 -> T2 trees.

The "Simulation Study for T0/T1 Data Replication" line of work (Legrand
et al., PAPERS.md) models the LHC computing grid as a tree: one Tier-0
centre (CERN) feeding a handful of national Tier-1 centres over fat
transatlantic backbones, each T1 fanning out to regional Tier-2 sites
over slimmer links.  Minimum-delay routing on it is *unique* — a T2
reaches a sibling region through its T1 and the T1 mesh, never over two
paths of equal delay — which both matches the static routing of the era
and keeps shortest-path selection free of equal-cost ties (a
determinism property the experiments lean on).

:func:`tiered_grid_spec` produces the site list and the ``wan_links``
specs :class:`~repro.gdmp.grid.DataGrid` accepts.  The T1s are meshed
over full-duplex circuits, and each T2 hangs off its T1 on one
symmetric tail.  A caller picks the tree's shape, its backbone and its
loss rate; every other link figure is a module constant.  An asymmetric
tail (a T2 uplink far slimmer than its downlink) is built by handing
``DataGrid`` a ``(t1, t2, down, up)`` spec directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .link import Link
from .units import mbps

__all__ = ["TieredSpec", "tiered_grid_spec"]

#: the Tier-0 site
T0 = "t0-cern"
#: T0 <-> T1 backbone one-way delay (transatlantic)
BACKBONE_DELAY = 0.030
#: T1 <-> T2 tail (regional distribution): capacity, delay, cross-traffic
T2_MBPS = 45.0
T2_DELAY = 0.010
T2_CROSS_MBPS = 5.0
#: direct T1 <-> T1 mesh circuits.  The real LHC topology meshes the
#: national centres; a slimmer, longer mesh path gives replica selection
#: a genuine alternative to the T0 backbone — on a pure tree the last hop
#: is always shared, so no selection policy can route around congestion
MESH_MBPS = 45.0
MESH_DELAY = 0.040
MESH_CROSS_MBPS = 10.0
#: every link's queue, bytes
QUEUE_CAPACITY = 256 * 1024


@dataclass(frozen=True)
class TieredSpec:
    """Shape, backbone and loss rate of a T0/T1/T2 tree."""

    t1_count: int = 2
    t2_per_t1: int = 2
    #: T0 <-> T1 backbone (symmetric fat pipe)
    backbone_mbps: float = 155.0
    backbone_cross_mbps: float = 20.0
    loss_rate: float = 0.0

    def __post_init__(self):
        if self.t1_count < 1:
            raise ValueError("need at least one T1 site")
        if self.t2_per_t1 < 0:
            raise ValueError("t2_per_t1 must be >= 0")


@dataclass(frozen=True)
class TieredGridSpec:
    """A built tree: the site names plus the DataGrid ``wan_links``."""

    t0: str
    t1_sites: Tuple[str, ...]
    t2_sites: Tuple[str, ...]
    wan_links: Tuple[tuple, ...]
    #: t2 site -> its parent t1
    parents: dict = field(default_factory=dict)

    @property
    def sites(self) -> Tuple[str, ...]:
        return (self.t0,) + self.t1_sites + self.t2_sites


def tiered_grid_spec(spec: Optional[TieredSpec] = None) -> TieredGridSpec:
    """Expand a :class:`TieredSpec` into sites and ``wan_links`` specs."""
    spec = spec or TieredSpec()

    def link(name, mbps_, delay, cross_mbps):
        return Link(
            name=name,
            capacity=mbps(mbps_),
            delay=delay,
            queue_capacity=QUEUE_CAPACITY,
            cross_traffic=mbps(cross_mbps),
            loss_rate=spec.loss_rate,
        )

    t1_sites = tuple(f"t1-{i}" for i in range(spec.t1_count))
    t2_sites: list[str] = []
    links: list[tuple] = []
    parents: dict[str, str] = {}
    for t1 in t1_sites:
        links.append((T0, t1, link(
            f"bb-{T0}-{t1}", spec.backbone_mbps, BACKBONE_DELAY,
            spec.backbone_cross_mbps,
        )))
    # full-duplex circuits: a distinct link per direction, so the two
    # regions' opposing mesh flows don't contend with each other
    for i, a in enumerate(t1_sites):
        for b in t1_sites[i + 1:]:
            links.append((a, b, *(
                link(f"t1x-{x}-{y}", MESH_MBPS, MESH_DELAY, MESH_CROSS_MBPS)
                for x, y in ((a, b), (b, a))
            )))
    for i, t1 in enumerate(t1_sites):
        for j in range(spec.t2_per_t1):
            t2 = f"t2-{i}{chr(ord('a') + j)}"
            t2_sites.append(t2)
            parents[t2] = t1
            links.append((t1, t2, link(
                f"dl-{t1}-{t2}", T2_MBPS, T2_DELAY, T2_CROSS_MBPS,
            )))
    return TieredGridSpec(
        t0=T0,
        t1_sites=t1_sites,
        t2_sites=tuple(t2_sites),
        wan_links=tuple(links),
        parents=parents,
    )
