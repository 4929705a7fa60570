#!/usr/bin/env python
"""A physics analysis with object replication (§5 of the paper).

CERN holds an event store (events with tag/aod objects clustered into
database files).  A physicist at ANL runs a two-step selection funnel; the
surviving events' 10 KB AOD objects must move to ANL, which has the CPU.
The example compares what file replication would have shipped against what
the object replication cycle actually moves, then runs the cycle and reads
an object at the destination.

Run:  python examples/hep_analysis.py
"""

from repro.gdmp import DataGrid, GdmpConfig
from repro.objectdb import (
    EventStoreBuilder,
    ObjectReader,
    ObjectTypeSpec,
    TagDatabase,
)
from repro.objectrep import (
    GlobalObjectIndex,
    ObjectReplicator,
    compare_replication_strategies,
)

N_EVENTS = 20_000  # scaled from the paper's 10^9 (ratios are scale-free)
TYPES = (
    ObjectTypeSpec("tag", 100.0, upstream="aod"),
    ObjectTypeSpec("aod", 10_000.0),
)


def main() -> None:
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    cern, anl = grid.site("cern"), grid.site("anl")

    # --- production: the event store lives at CERN --------------------------
    catalog = EventStoreBuilder(seed=1).build(
        cern.federation, n_events=N_EVENTS, types=TYPES, events_per_file=1000
    )
    index = GlobalObjectIndex()
    for name in cern.federation.database_names:
        index.record_file("cern", cern.federation.database(name))
    print(
        f"event store at cern: {N_EVENTS} events, "
        f"{cern.federation.object_count} objects in "
        f"{len(cern.federation.database_names)} files "
        f"({cern.federation.total_bytes / 1e6:.0f} MB)"
    )

    # --- analysis funnel: physics cuts on the event tags ----------------------
    # "One separates the interesting from the uninteresting events by
    # looking at the properties of some of the stored objects" (§5.1)
    tags = TagDatabase.generate(N_EVENTS, seed=7)
    funnel = [
        ("preselection", ["njets >= 3"]),
        ("signal region", ["njets >= 3", "met > 55", "lepton_pt > 35"]),
    ]
    selected = catalog.event_numbers
    for name, cuts in funnel:
        selected = sorted(set(selected) & set(tags.select(cuts)))
        print(f"  {name} ({' AND '.join(cuts)}): {len(selected)} events survive")

    # --- §5.1: what would each strategy ship? --------------------------------
    comparison = compare_replication_strategies(
        cern.federation, catalog, selected, "aod"
    )
    print(
        f"file replication would ship "
        f"{comparison.file_strategy.bytes_moved / 1e6:.0f} MB "
        f"({comparison.file_strategy.efficiency:.1%} useful); "
        f"object replication ships "
        f"{comparison.object_strategy.bytes_moved / 1e6:.1f} MB "
        f"-> {comparison.ratio:.0f}x saving"
    )
    print(
        "probability an existing file is >50% selected: "
        f"{comparison.majority_probability:.2e}"
    )

    # --- the object replication cycle ------------------------------------------
    keys = [f"{event}/aod" for event in selected]
    replicator = ObjectReplicator(grid, "anl", index)
    report = grid.run(
        until=replicator.replicate_objects(keys, chunk_objects=100, pipelined=True)
    )
    print(
        f"object replication: {report.objects_moved} objects "
        f"({report.wire_bytes / 1e6:.1f} MB on the wire) in "
        f"{report.duration:.1f}s via {report.files_created} new files; "
        f"copier busy {report.copy_time:.2f}s"
    )

    # --- the physicist reads objects locally at ANL ------------------------------
    reader = ObjectReader(anl.federation)
    first = anl.federation.find_by_key(keys[0])
    obj = reader.read(first.oid)
    print(
        f"anl reads {obj.logical_key} ({obj.size / 1000:.0f} KB) locally — "
        f"{reader.page_reads} page reads"
    )
    # the new files are first-class grid files
    print(f"anl now exports {len(anl.server.held)} object-extract files "
          "(future extraction sources)")


if __name__ == "__main__":
    main()
