"""EXP-OBJ3: §5.3 — object replication server overhead.

Two views of the same observation:

* the resource table: per network byte, object serving charges more CPU,
  disk, and databus than file serving — harmless against a 45 Mbps WAN,
  binding against a high-end NIC; splitting the copier onto another box
  restores throughput;
* a timed check on the simulator: with a slow copier co-located, an object
  replication cycle saturates below what plain file replication of the
  same bytes achieves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import print_table
from repro.objectrep.overhead import (
    ServerCostModel,
    ServerResources,
    achievable_network_rate,
)

__all__ = ["OverheadResult", "run", "report"]

MODES = (
    ("file serving", ServerCostModel.file_serving()),
    ("object serving (co-located copier)", ServerCostModel.object_serving()),
    ("object serving (copier on separate box)",
     ServerCostModel.object_serving_split()),
)


@dataclass(frozen=True)
class OverheadResult:
    resources: ServerResources
    wan_rate: float                       # the paper's 45 Mbps testbed WAN
    rates: dict[str, float]               # mode -> achievable bytes/s

    @property
    def degradation_at_nic(self) -> float:
        """Fraction of file-serving throughput lost when serving objects
        from the same box into a high-end NIC."""
        return 1.0 - self.rates[MODES[1][0]] / self.rates[MODES[0][0]]

    @property
    def wan_unaffected(self) -> bool:
        """Against the 45 Mbps WAN, every mode keeps up (§5.3: "the object
        copying actions in the server do not form a bottleneck")."""
        return all(rate >= self.wan_rate for rate in self.rates.values())


def run(resources: ServerResources | None = None) -> OverheadResult:
    """Compute achievable network rates for each serving mode."""
    resources = resources or ServerResources()
    rates = {
        name: achievable_network_rate(resources, cost) for name, cost in MODES
    }
    return OverheadResult(resources=resources, wan_rate=45e6 / 8, rates=rates)


def report(result: OverheadResult) -> None:
    """Print the per-mode resource table."""
    rows = []
    for (name, cost) in MODES:
        rate = result.rates[name]
        rows.append(
            [
                name,
                cost.cpu_per_byte,
                cost.disk_per_byte,
                cost.bus_per_byte,
                rate * 8 / 1e6,
                "yes" if rate >= result.wan_rate else "NO",
            ]
        )
    print_table(
        [
            "serving mode",
            "cpu/B",
            "disk B/B",
            "bus B/B",
            "max NIC rate (Mbps)",
            "keeps 45 Mbps WAN full",
        ],
        rows,
        "EXP-OBJ3 — §5.3 server resources per network byte",
    )
    print(
        f"high-end NIC degradation, co-located copier: "
        f"{result.degradation_at_nic:.0%} of file-serving throughput lost"
    )
    print(f"45 Mbps WAN unaffected in all modes: {result.wan_unaffected}")
    print()
