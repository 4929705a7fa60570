"""EXP-SCALE — catalog indexes, filter plans, and batched RPC envelopes.

The production-scale claims this PR makes measurable: equality searches
answered through the attribute index beat the naive full scan by ≥50x at
100k entries, and a 100-file transfer set pays ≥5x fewer catalog round
trips through ``replicate_set`` than through per-file ``replicate`` calls.

``tools/perf_report.py --suite catalog [--smoke] --output -`` prints the
record and gates it (recorded floors, microsecond unique-key lookups, an
indexed path that does not grow with the population).
"""

from __future__ import annotations

from repro.experiments import catalog_scale

__all__ = ["run_bench"]

#: pytest/CI sizes: big enough that the scan/index gap is unambiguous,
#: small enough to build in well under a second
SMOKE_SIZES = (2_000, 10_000)
FULL_SIZES = (10_000, 100_000)


def run_bench(smoke: bool = False) -> catalog_scale.CatalogScaleResult:
    """The experiment at CI (smoke) or record (full) sizes."""
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    return catalog_scale.run(
        sizes=sizes,
        searches=32 if smoke else 64,
        naive_searches=2 if smoke else 3,
    )
