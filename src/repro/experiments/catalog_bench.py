"""EXP-CAT: replica catalog operation latency against the central LDAP
server (§4.2: "for simplicity, [we] use a central replica catalog and a
single LDAP server" — tested from CERN, Caltech, and SLAC).

A site co-located with the catalog pays only local processing; every other
site pays a WAN round trip per operation — the cost that motivates the
paper's future work on distributing the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import print_table
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB

__all__ = ["CatalogLatency", "run", "report"]


@dataclass(frozen=True)
class CatalogLatency:
    publishes: int
    local_publish: float      # seconds per op, caller at the catalog host
    remote_publish: float     # seconds per op, caller across the WAN
    remote_lookup: float      # locations() per op across the WAN
    remote_search: float      # filtered search per op across the WAN


def run(publishes: int = 20, seed: int = 2001) -> CatalogLatency:
    """Time catalog operations local vs across the WAN."""
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("caltech"), GdmpConfig("slac")],
        catalog_host="cern",
        seed=seed,
    )
    cern, caltech = grid.site("cern"), grid.site("caltech")

    def timed_ops(site, op_factory, count):
        start = grid.sim.now
        for i in range(count):
            grid.run(until=op_factory(i))
        return (grid.sim.now - start) / count

    local_publish = timed_ops(
        cern,
        lambda i: cern.client.produce_and_publish(f"local{i}.db", 1 * MB),
        publishes,
    )
    remote_publish = timed_ops(
        caltech,
        lambda i: caltech.client.produce_and_publish(f"remote{i}.db", 1 * MB),
        publishes,
    )
    remote_lookup = timed_ops(
        caltech,
        lambda i: caltech.client.catalog.locations(f"remote{i % publishes}.db"),
        publishes,
    )
    remote_search = timed_ops(
        caltech,
        lambda i: caltech.client.catalog.search("(lfn=remote*)"),
        5,
    )
    return CatalogLatency(
        publishes=publishes,
        local_publish=local_publish,
        remote_publish=remote_publish,
        remote_lookup=remote_lookup,
        remote_search=remote_search,
    )


def report(result: CatalogLatency) -> None:
    """Print the latency table."""
    print_table(
        ["operation", "latency (ms)"],
        [
            ["publish, caller at catalog host", result.local_publish * 1000],
            ["publish, caller across WAN", result.remote_publish * 1000],
            ["locations lookup across WAN", result.remote_lookup * 1000],
            ["filtered search across WAN", result.remote_search * 1000],
        ],
        "EXP-CAT — central replica catalog operation latency",
    )
    print(
        f"WAN penalty on publish: "
        f"{result.remote_publish / result.local_publish:.1f}x"
    )
    print()
