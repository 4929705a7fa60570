"""EXP-CR: the §4.2 future work realized — catalog replication ablation.

Compares the paper's central single-LDAP deployment with a primary +
read-replica deployment: read latency collapses from one WAN round trip to
local, writes stay at one WAN round trip, and the price is an eventual-
consistency staleness window of roughly one propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import print_table
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.catalog_replication import enable_catalog_replication
from repro.netsim.units import MB

__all__ = ["CatalogReplicationResult", "run", "report"]


@dataclass(frozen=True)
class CatalogReplicationResult:
    central_read: float        # s/op, remote site against the central catalog
    replicated_read: float     # s/op, same site against its local replica
    replicated_write: float    # s/op, write via the primary
    staleness_window: float    # s from write-ack to replica convergence

    @property
    def read_speedup(self) -> float:
        return self.central_read / self.replicated_read


def _timed(grid, factory, count) -> float:
    start = grid.sim.now
    for i in range(count):
        grid.run(until=factory(i))
    return (grid.sim.now - start) / count


def run(lookups: int = 20, seed: int = 2001) -> CatalogReplicationResult:
    # --- central deployment (the paper's) ---------------------------------
    """Compare central vs replicated catalog deployments."""
    central = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("caltech")], catalog_host="cern",
        seed=seed,
    )
    cern = central.site("cern")
    # this experiment measures raw deployment latency: the repeated reads
    # must each pay the round trip, not hit the client-side location cache
    central.site("caltech").client.catalog.cache_enabled = False
    central.run(until=cern.client.produce_and_publish("f.db", 1 * MB))
    central_read = _timed(
        central,
        lambda i: central.site("caltech").client.catalog.locations("f.db"),
        lookups,
    )

    # --- replicated deployment ----------------------------------------------
    replicated = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("caltech")], catalog_host="cern",
        seed=seed,
    )
    replicas = enable_catalog_replication(replicated, ["caltech"])
    replicated.site("caltech").client.catalog.cache_enabled = False
    cern = replicated.site("cern")
    replicated.run(until=cern.client.produce_and_publish("f.db", 1 * MB))
    replicated.run()  # propagate
    replicated_read = _timed(
        replicated,
        lambda i: replicated.site("caltech").client.catalog.locations("f.db"),
        lookups,
    )
    catalog = replicated.site("caltech").client.catalog
    writes = (
        lambda lfn, site: catalog.add_replicas([lfn], site),
        catalog.remove_replica,
    )
    replicated_write = _timed(
        replicated, lambda i: writes[i]("f.db", "caltech"), len(writes)
    )

    # --- staleness: write-ack to replica convergence ---------------------------
    ack_time = replicated.sim.now
    replicated.run(until=cern.client.produce_and_publish("late.db", 1 * MB))
    ack_time = replicated.sim.now
    replica = replicas["caltech"]
    stale_at_ack = not replica.catalog.lfn_exists("late.db")
    replicated.run()
    staleness = (replicated.sim.now - ack_time) if stale_at_ack else 0.0

    return CatalogReplicationResult(
        central_read=central_read,
        replicated_read=replicated_read,
        replicated_write=replicated_write,
        staleness_window=staleness,
    )


def report(result: CatalogReplicationResult) -> None:
    """Print the deployment comparison and staleness window."""
    print_table(
        ["deployment / operation", "latency (ms)"],
        [
            ["central catalog, WAN read", result.central_read * 1000],
            ["replicated catalog, local read", result.replicated_read * 1000],
            ["replicated catalog, write (via primary)",
             result.replicated_write * 1000],
        ],
        "EXP-CR — catalog replication (§4.2 future work)",
    )
    print(f"read speedup from a local replica: {result.read_speedup:.0f}x")
    print(f"staleness window after a write ack: "
          f"{result.staleness_window * 1000:.0f} ms")
    print()
