#!/usr/bin/env python
"""Multi-site production with MSS staging and failure recovery.

The deployment scenario of Figure 3: CERN produces Objectivity database
files (archived to its tape MSS); two regional centers subscribe and
auto-replicate every published file.  The example injects a mid-transfer
disconnect and a corruption, shows GDMP recovering via restart markers and
the CRC check, and finishes with the failure-recovery catalog diff.

Run:  python examples/multisite_production.py
"""

from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.objectdb import DatabaseFile


def make_database(db_id: int, n_objects: int) -> DatabaseFile:
    db = DatabaseFile(db_id, f"prod{db_id}.db")
    container = db.create_container("digis")
    for i in range(n_objects):
        db.new_object(container, "digi", 100_000, f"{db_id}/{i}/digi")
    return db


def main() -> None:
    grid = DataGrid(
        [
            GdmpConfig("cern", has_mss=True),
            GdmpConfig("anl", auto_replicate=True),
            GdmpConfig("caltech", auto_replicate=True),
        ]
    )
    cern = grid.site("cern")
    for consumer in ("anl", "caltech"):
        grid.run(until=grid.site(consumer).client.subscribe_to("cern"))
    print("anl and caltech subscribed to cern (auto-replicate on)")

    # inject failures for the second file before production begins
    cern.gridftp_server.failures.abort_after_bytes("/storage/prod2.db", 4 * MB)
    cern.gridftp_server.failures.corrupt_next("/storage/prod3.db")

    # --- production run: three Objectivity files published over time -----------
    def production(sim):
        for db_id in (1, 2, 3):
            db = make_database(db_id, n_objects=100)  # ~10 MB each
            cern.federation.declare_type("digi")
            yield cern.client.produce_and_publish(
                f"prod{db_id}.db",
                db.size,
                payload=db,
                filetype="objectivity",
                schema="digi",
            )
            print(f"[{sim.now:8.2f}s] cern published prod{db_id}.db "
                  f"({db.size / 1e6:.1f} MB)")
            # archive to tape; the disk copy stays as the serving cache
            yield cern.storage.archive(f"/storage/prod{db_id}.db")
            yield sim.timeout(30.0)

    grid.sim.spawn(production(grid.sim), name="production-run")
    grid.run()  # drain: production + all auto-replications complete

    for name in ("anl", "caltech"):
        site = grid.site(name)
        restarts = grid.metrics.value("gdmp.mover.restarts", site=name)
        crc_failures = grid.metrics.value("gdmp.mover.crc_failures", site=name)
        print(
            f"[{grid.sim.now:8.2f}s] {name}: holds {sorted(site.server.held)}; "
            f"federation files attached: {len(site.federation.database_names)}; "
            f"restarts={restarts:.0f}, crc retries={crc_failures:.0f}"
        )
        assert sorted(site.server.held) == ["prod1.db", "prod2.db", "prod3.db"]

    # --- a late joiner recovers via the remote catalog diff ----------------------
    # caltech lost a replica (simulate by wiping one holding record)
    caltech = grid.site("caltech")
    caltech.fs.delete("/storage/prod1.db")
    del caltech.server.held["prod1.db"]
    grid.run(until=caltech.client.catalog.remove_replica("prod1.db", "caltech"))
    caltech.federation.detach("prod1.db")
    reports = grid.run(until=caltech.client.replicate_missing_from("cern"))
    print(
        f"[{grid.sim.now:8.2f}s] caltech recovered "
        f"{[r.lfn for r in reports]} via get_catalog diff "
        f"(stage wait {reports[0].stage_wait:.1f}s — prod1 came from tape? "
        f"{'yes' if reports[0].stage_wait > 40 else 'no, still cached'})"
    )

    # tape archive state at cern
    print(
        f"cern MSS: {cern.mss.stats['migrated_files']} files "
        f"archived, {cern.mss.stats['staged_files']} staged back"
    )


if __name__ == "__main__":
    main()
