#!/usr/bin/env python
"""Back-to-back simulation determinism gate.

Runs a small grid scenario twice *in the same process* and diffs a full
fingerprint of each run: the trace log (every span, id, and timestamp),
the catalog contents, service endpoint names, the grid's metrics-registry
snapshot, the ``stats`` of every site's servers and clients (what the
registry does not carry), and the rendered Prometheus text exposition.

This is the regression net for global-state leaks: a module-level counter
(id sequences, endpoint serials) advances across runs and shows up here as
a fingerprint diff even though each run is individually "deterministic".
All id sequences must be scoped per-Simulator for this gate to pass.

Usage:  PYTHONPATH=src python tools/determinism_check.py [-v]
"""

from __future__ import annotations

import json
import sys

from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.objectrep.index_service import IndexService
from repro.telemetry import to_prometheus_text
from repro.workload.production import ProductionRun


def run_scenario() -> dict:
    """One small grid workload touching every id-allocating subsystem:
    a production run (db ids), publish/subscribe + replicate (request ids,
    reply-service names, trace ids), and an index snapshot (snapshot
    serials)."""
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    cern, anl = grid.site("cern"), grid.site("anl")

    grid.run(until=anl.client.subscribe_to("cern"))
    production = ProductionRun(
        cern, n_files=3, mean_file_size=2 * MB, interval=1.0, seed=7
    )
    grid.run(until=production.start())
    report = grid.run(
        until=anl.client.replicate(sorted(cern.server.held)[0])
    )
    index = IndexService(cern)
    grid.run(until=index.publish_snapshot())

    return {
        "sim_now": grid.sim.now,
        "trace_spans": grid.tracelog.to_records(),
        "catalog_lfns": sorted(grid.catalog_backend.list_lfns()),
        "replicated": {
            "lfn": report.lfn,
            "source": report.source,
            "duration": report.total_duration,
        },
        "reply_services": {
            name: [
                site.request_client.reply_service,
                site.gridftp_client.bus.reply_service,
            ]
            for name, site in sorted(grid.sites.items())
        },
        # the mover has no ``stats``: all it counts is in the registry
        "stats": {
            name: {
                "request_server": site.request_server.stats,
                "request_client": site.request_client.stats,
                "gridftp_server": site.gridftp_server.stats,
                "gridftp_client": site.gridftp_client.bus.stats,
                "gdmp_server": site.server.stats,
                "gdmp_client": site.client.stats,
            }
            for name, site in sorted(grid.sites.items())
        },
        "metrics": grid.metrics.snapshot(),
        "prometheus": to_prometheus_text(grid.metrics),
    }


def main(argv: list[str]) -> int:
    verbose = "-v" in argv
    first = run_scenario()
    second = run_scenario()
    first_doc = json.dumps(first, indent=2, sort_keys=True)
    second_doc = json.dumps(second, indent=2, sort_keys=True)
    if first_doc == second_doc:
        print(
            "determinism_check: OK — two back-to-back runs produced "
            f"identical fingerprints ({len(first['trace_spans'])} trace "
            f"spans, {len(first['catalog_lfns'])} catalog entries)"
        )
        return 0
    print("determinism_check: FAILED — back-to-back runs diverged")
    a_lines = first_doc.splitlines()
    b_lines = second_doc.splitlines()
    shown = 0
    for i, (a, b) in enumerate(zip(a_lines, b_lines)):
        if a != b:
            print(f"  line {i}: run1 {a!r}  !=  run2 {b!r}")
            shown += 1
            if shown >= 10 and not verbose:
                print("  ... (rerun with -v for the full diff)")
                break
    if len(a_lines) != len(b_lines):
        print(f"  fingerprint sizes differ: {len(a_lines)} vs {len(b_lines)} lines")
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
