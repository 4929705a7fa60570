"""EXP-SCALE: catalog scalability — indexes, filter plans, batched RPCs.

The paper's follow-ups ("Grid Data Management in Action", 2003) found the
LDAP replica catalog to be the first component that collapsed under
production load: every filter evaluation was a full scan, and every GDMP
operation paid one WAN round trip per file.  This experiment measures both
fixes at production scale:

* **in-memory scaling** — register 10k/100k/1M logical files through
  ``publish_bulk`` and compare equality-filter searches through the
  attribute index (plan) against the retained naive full scan
  (:meth:`~repro.catalog.ldapsim.LdapDirectory.search_naive`);
* **WAN batching** — replicate a 100-file transfer set per-file (2 catalog
  envelopes per file) versus :meth:`~repro.gdmp.client.GdmpClient.replicate_set`
  (2 envelopes per *set*), counting ``catalog.*`` client spans in the
  TraceLog.

The search timings are wall-clock (the catalog is an in-memory data
structure); the envelope counts come from the deterministic simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.catalog.gdmp_catalog import GdmpCatalog
from repro.experiments.common import print_table
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB

__all__ = ["ScaleRow", "CatalogScaleResult", "run", "report"]

#: files carry a run-number attribute with this many distinct values, so
#: equality searches are selective but not unique
RUN_VALUES = 512


@dataclass(frozen=True)
class ScaleRow:
    """Measurements for one catalog population size."""

    n_files: int
    register_rate: float       # files/s through publish_bulk (wall clock)
    indexed_search_s: float    # s/op, equality filter through the index plan
    naive_search_s: float      # s/op, same filter via the naive full scan
    lfn_lookup_s: float        # s/op, unique-key (lfn=...) indexed search

    @property
    def search_speedup(self) -> float:
        """Naive-scan time over indexed time for the same equality filter."""
        return (
            self.naive_search_s / self.indexed_search_s
            if self.indexed_search_s > 0
            else float("inf")
        )


@dataclass(frozen=True)
class CatalogScaleResult:
    rows: list
    n_replicated: int          # files in the envelope-count transfer set
    per_file_envelopes: int    # catalog client spans, one replicate() per file
    batched_envelopes: int     # catalog client spans, one replicate_set()

    @property
    def envelope_reduction(self) -> float:
        """How many times fewer catalog round trips the batched path pays."""
        return (
            self.per_file_envelopes / self.batched_envelopes
            if self.batched_envelopes > 0
            else float("inf")
        )


def build_catalog(n_files: int, batch: int = 20_000) -> tuple[GdmpCatalog, float]:
    """A catalog populated with ``n_files`` logical files; returns
    (catalog, build wall-clock seconds)."""
    catalog = GdmpCatalog()
    start = time.perf_counter()
    base = 0
    while base < n_files:
        count = min(batch, n_files - base)
        catalog.publish_bulk(
            "cern",
            [
                {
                    "size": 1.0,
                    "modified": 0.0,
                    "crc": i,
                    "lfn": f"file.{i:07d}",
                    "attributes": {
                        "run": f"run{i % RUN_VALUES}",
                        "filetype": "objectivity",
                    },
                }
                for i in range(base, base + count)
            ],
        )
        base += count
    return catalog, time.perf_counter() - start


def _searches_per_sec(search_fn, filters: list[str], reps: int) -> float:
    """Wall-clock seconds per search, cycling through ``filters``."""
    start = time.perf_counter()
    for i in range(reps):
        search_fn(filters[i % len(filters)])
    return (time.perf_counter() - start) / reps


def measure_size(
    n_files: int, searches: int = 64, naive_searches: int = 3
) -> ScaleRow:
    """Register ``n_files`` and time indexed vs naive equality searches."""
    catalog, build_wall = build_catalog(n_files)
    rc = catalog.catalog
    directory = rc.directory
    base_dn = rc.collection_dn(catalog.collection)
    run_filters = [
        f"(&(objectClass=GlobusReplicaLogicalFile)(run=run{k % RUN_VALUES}))"
        for k in range(0, 97, 7)
    ]
    lfn_filters = [
        f"(lfn=file.{(k * 257) % n_files:07d})" for k in range(31)
    ]
    # sanity: the index plan and the naive scan agree before we time them
    probe = run_filters[0]
    assert [e.dn for e in directory.search(base_dn, probe, scope="one")] == [
        e.dn for e in directory.search_naive(base_dn, probe, scope="one")
    ]
    indexed = _searches_per_sec(
        lambda f: directory.search(base_dn, f, scope="one"),
        run_filters,
        searches,
    )
    lfn_lookup = _searches_per_sec(
        lambda f: directory.search(base_dn, f, scope="one"),
        lfn_filters,
        searches,
    )
    naive = _searches_per_sec(
        lambda f: directory.search_naive(base_dn, f, scope="one"),
        run_filters,
        max(1, naive_searches),
    )
    return ScaleRow(
        n_files=n_files,
        register_rate=n_files / build_wall if build_wall > 0 else float("inf"),
        indexed_search_s=indexed,
        naive_search_s=naive,
        lfn_lookup_s=lfn_lookup,
    )


def _catalog_envelopes(grid) -> int:
    """Catalog RPC envelopes sent so far (client-side ``catalog.*`` spans)."""
    return sum(
        1
        for span in grid.tracelog.spans(kind="client")
        if ":catalog." in span.name
    )


def measure_envelopes(
    n_files: int = 100, file_size: float = 0.5 * MB, seed: int = 2001
) -> tuple[int, int]:
    """Catalog envelopes for an ``n_files`` transfer set, per-file vs
    batched.  Returns (per_file_envelopes, batched_envelopes)."""

    def published_grid() -> DataGrid:
        grid = DataGrid(
            [GdmpConfig("cern"), GdmpConfig("caltech")],
            catalog_host="cern",
            seed=seed,
        )
        cern = grid.site("cern")
        specs = []
        for i in range(n_files):
            lfn = f"set.{i:04d}.db"
            path = cern.client.config.storage_path(lfn)
            cern.client.storage.pool.ensure_space(file_size)
            cern.client.storage.fs.create(path, file_size, now=grid.sim.now)
            specs.append({"lfn": lfn, "path": path})
        grid.run(until=cern.client.publish_set(specs))
        return grid

    lfns = [f"set.{i:04d}.db" for i in range(n_files)]

    grid = published_grid()
    caltech = grid.site("caltech")
    before = _catalog_envelopes(grid)
    for lfn in lfns:
        grid.run(until=caltech.client.replicate(lfn))
    per_file = _catalog_envelopes(grid) - before

    grid = published_grid()
    caltech = grid.site("caltech")
    before = _catalog_envelopes(grid)
    grid.run(until=caltech.client.replicate_set(lfns))
    batched = _catalog_envelopes(grid) - before
    return per_file, batched


def run(
    sizes=(10_000, 100_000),
    searches: int = 64,
    naive_searches: int = 3,
    replicate_files: int = 100,
    seed: int = 2001,
) -> CatalogScaleResult:
    """Measure catalog scaling and RPC batching (the default sizes keep
    ``experiments all`` fast; the million-file point takes ~90 s to build
    — get it with ``sizes=(10_000, 100_000, 1_000_000)``)."""
    rows = [
        measure_size(n, searches=searches, naive_searches=naive_searches)
        for n in sizes
    ]
    per_file, batched = measure_envelopes(n_files=replicate_files, seed=seed)
    return CatalogScaleResult(
        rows=rows,
        n_replicated=replicate_files,
        per_file_envelopes=per_file,
        batched_envelopes=batched,
    )


def report(result: CatalogScaleResult) -> None:
    """Print the scaling table and the envelope comparison."""
    print_table(
        ["files", "register (files/s)", "indexed eq (µs)", "naive eq (ms)",
         "speedup", "lfn lookup (µs)"],
        [
            [
                row.n_files,
                row.register_rate,
                row.indexed_search_s * 1e6,
                row.naive_search_s * 1e3,
                row.search_speedup,
                row.lfn_lookup_s * 1e6,
            ]
            for row in result.rows
        ],
        "EXP-SCALE — catalog search/register throughput vs population",
    )
    print(
        f"catalog envelopes for a {result.n_replicated}-file replicate: "
        f"{result.per_file_envelopes} per-file vs "
        f"{result.batched_envelopes} batched "
        f"({result.envelope_reduction:.0f}x fewer round trips)"
    )
    print()
