#!/usr/bin/env python
"""Associated files and consistency policies (§2.2 of the paper).

Two Objectivity files are coupled by a navigational association (AOD
objects point at their raw-data upstream objects in another file).
Replicating only the AOD file breaks navigation at the destination — the
exact failure mode §2.1 describes.  An application-level consistency
policy derives the file-association graph from the federation and steers
the replication layer to move the closure together.

Also shows the §4.2 future work in action: with a read replica of the
replica catalog at the destination site, every catalog lookup during
replication is local instead of a 125 ms WAN round trip.

Run:  python examples/associated_files.py
"""

from repro.gdmp import (
    AssociatedFilesPolicy,
    DataGrid,
    FileAssociationGraph,
    GdmpConfig,
)
from repro.gdmp.catalog_replication import enable_catalog_replication
from repro.objectdb import DatabaseFile, NavigationError


def build_coupled_files(cern):
    """An AOD file whose objects navigate into a raw-data file."""
    cern.federation.declare_type("aod")
    cern.federation.declare_type("raw")
    raw_db = DatabaseFile(401, "raw.2001.db")
    raw_container = raw_db.create_container()
    aod_db = DatabaseFile(402, "aod.2001.db")
    aod_container = aod_db.create_container()
    for event in range(50):
        raw = raw_db.new_object(raw_container, "raw", 1_000_000, f"{event}/raw")
        aod = aod_db.new_object(aod_container, "aod", 10_000, f"{event}/aod")
        aod.associate("upstream", raw.oid)
    return aod_db, raw_db


def main() -> None:
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    enable_catalog_replication(grid, ["anl"])  # local catalog reads at ANL
    cern, anl = grid.site("cern"), grid.site("anl")

    aod_db, raw_db = build_coupled_files(cern)
    for db in (aod_db, raw_db):
        grid.run(
            until=cern.client.produce_and_publish(
                db.name, db.size, payload=db,
                filetype="objectivity", schema="aod;raw",
            )
        )
        cern.federation.attach(db)
    grid.run()  # let catalog writes propagate to the ANL replica
    print(f"cern published {aod_db.name} ({aod_db.size/1e6:.1f} MB) and "
          f"{raw_db.name} ({raw_db.size/1e6:.1f} MB), coupled by associations")

    # --- naive replication: only the AOD file ---------------------------------
    grid.run(until=anl.client.replicate(aod_db.name))
    aod = anl.federation.find_by_key("0/aod")
    try:
        anl.federation.navigate(aod, "upstream")
    except NavigationError as exc:
        print(f"naive replication: navigation broken at anl — {exc}")

    # roll the naive copy back
    grid.run(until=anl.client.catalog.remove_replica(aod_db.name, "anl"))
    anl.federation.detach(aod_db.name)
    anl.fs.delete(f"/storage/{aod_db.name}")
    del anl.server.held[aod_db.name]
    grid.run()

    # --- policy-steered replication: the closure travels together ---------------
    graph = FileAssociationGraph.from_federation(cern.federation)
    print(f"derived association graph: {aod_db.name} requires "
          f"{sorted(graph.requires(aod_db.name))}")
    policy = AssociatedFilesPolicy(graph)
    reports = grid.run(until=anl.client.replicate_set(
        policy.replication_set(aod_db.name), skip_held=True
    ))
    print("consistent replication moved, dependencies first:",
          [r.lfn for r in reports])

    aod = anl.federation.find_by_key("0/aod")
    raw = anl.federation.navigate(aod, "upstream")[0]
    print(f"navigation preserved at anl: {aod.logical_key} -> "
          f"{raw.logical_key} ({raw.size/1e6:.1f} MB object)")


if __name__ == "__main__":
    main()
