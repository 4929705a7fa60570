"""EXP-AMS: remote object access vs replication (§2.1 / §5.2 rationale).

"The use of wide-area object granularity access and replication protocols
is considered unattractive, as large wide-area overheads have been
observed in existing implementations of such protocols."

The experiment reads the same sparse selection three ways:

1. AMS-style remote access across the 125 ms WAN (page-per-round-trip);
2. object replication first, then local reads;
3. as a reference, what the remote reads would cost on a LAN — the
   low-latency assumption the persistency layer was built under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import print_table
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.channels import MessageNetwork
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import mbps
from repro.objectdb import EventStoreBuilder, Federation, ObjectTypeSpec
from repro.objectdb.ams import AmsPageServer, RemoteObjectReader
from repro.objectdb.persistency import ObjectReader
from repro.objectrep import GlobalObjectIndex, ObjectReplicator, select_events
from repro.simulation import Simulator

__all__ = ["RemoteAccessResult", "run", "report"]

AOD = (ObjectTypeSpec("aod", 10_000.0),)


@dataclass(frozen=True)
class RemoteAccessResult:
    objects: int
    wan_remote_access_s: float
    lan_remote_access_s: float
    replicate_then_read_s: float

    @property
    def wan_penalty_vs_replication(self) -> float:
        return self.wan_remote_access_s / self.replicate_then_read_s


def _remote_access_time(delay: float, oids, federation: Federation) -> float:
    """Time to read ``oids`` out of ``federation`` through AMS over a link
    with one-way ``delay``."""
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("store"))
    topo.add_host(Host("client"))
    topo.connect("store", "client",
                 Link("l", capacity=mbps(45), delay=delay,
                      cross_traffic=mbps(20)))
    msgnet = MessageNetwork(sim, topo)
    server = AmsPageServer(sim, msgnet, topo.host("store"), federation)
    reader = RemoteObjectReader(sim, msgnet, topo.host("client"), server)
    start = sim.now
    sim.run(until=reader.read_many(oids))
    return sim.now - start


def run(n_events: int = 2000, fraction: float = 0.05, seed: int = 17
        ) -> RemoteAccessResult:
    """Time remote access (WAN and LAN) vs replicate-then-read."""
    rng = np.random.Generator(np.random.PCG64(seed))
    selected = select_events(list(range(n_events)), fraction, rng)

    # One store serves all three legs: its objects are read-only (§2.2),
    # the AMS server and the object copier only read it, and cern attaches
    # its files with their db ids, so one oid list is valid everywhere.
    total_events = n_events * 10  # the selection probes a larger store
    store = Federation("cms", site="store")
    catalog = EventStoreBuilder(seed=seed).build(
        store, n_events=total_events, types=AOD, events_per_file=500
    )
    oids = catalog.oids_for(selected, "aod")

    wan_time = _remote_access_time(0.0625, oids, store)
    lan_time = _remote_access_time(0.0005, oids, store)

    # replicate-then-read over the same WAN
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")], seed=seed)
    cern = grid.site("cern")
    for spec in AOD:
        cern.federation.declare_type(spec.name)
    for name in store.database_names:
        cern.federation.attach(store.database(name))
    index = GlobalObjectIndex()
    for name in cern.federation.database_names:
        index.record_file("cern", cern.federation.database(name))
    start = grid.sim.now
    keys = [f"{e}/aod" for e in selected]
    grid.run(
        until=ObjectReplicator(grid, "anl", index).replicate_objects(
            keys, chunk_objects=500
        )
    )
    local_reader = ObjectReader(grid.site("anl").federation)
    for key in keys:
        obj = grid.site("anl").federation.find_by_key(key)
        local_reader.read(obj.oid)
    replicate_time = grid.sim.now - start

    return RemoteAccessResult(
        objects=len(selected),
        wan_remote_access_s=wan_time,
        lan_remote_access_s=lan_time,
        replicate_then_read_s=replicate_time,
    )


def report(result: RemoteAccessResult) -> None:
    """Print the three-strategy comparison."""
    print_table(
        ["access strategy", "time (s)"],
        [
            ["AMS remote access over the WAN (125 ms RTT)",
             result.wan_remote_access_s],
            ["AMS remote access on a LAN (1 ms RTT)",
             result.lan_remote_access_s],
            ["object-replicate to the client site, read locally",
             result.replicate_then_read_s],
        ],
        f"EXP-AMS — reading {result.objects} sparse 10 KB objects",
    )
    print(
        f"WAN remote access is {result.wan_penalty_vs_replication:.1f}x "
        "slower than replicate-then-read — the §5.2 rationale"
    )
    print()
