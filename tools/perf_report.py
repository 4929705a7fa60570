"""Regenerate and gate the performance records, one suite at a time::

    PYTHONPATH=src python tools/perf_report.py --suite NAME|all
                                               [--smoke] [--output PATH|-]

Each row of ``SUITES`` is one record: what measures it, the ``BENCH_*``
file it is written to, which of its metrics are gated (recorded floors,
held to within ``TOLERANCE``; hard bounds and ceilings, which tolerance
does not soften; chaos legs that must have converged), its protocol text
and its summary line.  One ``build`` assembles a record, one ``check``
gates it, and the tool exits non-zero when any gated suite regressed.
Adding a plane's record is one row.

``--smoke`` runs shrunk scenarios (``tools/ci_check.sh`` runs ``--suite
all --smoke --output -``); it never overwrites a committed record unless
``--output`` says so.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_catalog_scale  # noqa: E402
import bench_chunks  # noqa: E402
import bench_engine_microbench  # noqa: E402
import bench_flow_scale  # noqa: E402
import bench_rls  # noqa: E402
import bench_weather  # noqa: E402
import bench_workload  # noqa: E402
from repro.experiments import figure5, figure6  # noqa: E402

#: fail loudly when a gated metric drops more than this below its floor
TOLERANCE = 0.20

MEDIAN_REPS = 5

OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
       "<": operator.lt}


@dataclass(frozen=True)
class Bound:
    """A hard acceptance bound or ceiling; no tolerance applied."""

    metric: str                 # dotted path into the record's ``current``
    op: str                     # one of OPS
    limit: float
    of: str | None = None       # limit is in units of this other metric
    modes: tuple = ("full", "smoke")

    def __str__(self) -> str:
        scale = f" x {self.of}" if self.of else ""
        only = "" if len(self.modes) > 1 else f" ({self.modes[0]} mode)"
        return f"{self.metric} {self.op} {self.limit:g}{scale}{only}"


@dataclass(frozen=True)
class Suite:
    """One performance record."""

    #: smoke -> the record's body: ``current`` plus any sibling keys
    measure: Callable[[bool], dict]
    output: str                     # BENCH file at the repo root
    protocol: dict                  # how the numbers were taken
    #: record lines worth a glance, from the finished record
    summary: Callable[[dict], Iterable[str]]
    section: str | None = None      # merge under this key of ``output``
    #: gated metric -> dotted path to hoist it from, to ``current``'s top
    hoist: tuple = ()
    #: mode -> gated metric -> recorded conservative floor
    floors: dict | None = None
    bounds: tuple = ()
    #: keys of ``current`` whose ``converged`` must be true
    legs: tuple = ()


def dig(record, path: str):
    """Follow a dotted path of dict keys and list indices; None where
    the record ends early."""
    for key in path.split("."):
        try:
            record = record[int(key) if isinstance(record, list) else key]
        except (KeyError, IndexError, TypeError):
            return None
    return record


def lines(*templates: str) -> Callable[[dict], Iterable[str]]:
    """A summary that formats each template with the record's ``current``."""
    return lambda record: (
        template.format_map(record["current"]) for template in templates
    )


def bench(module) -> Callable[[bool], dict]:
    """A measure that records the module's ``run_bench`` as ``current``."""
    return lambda smoke: {"current": dict(module.run_bench(smoke=smoke))}


# -- netsim: engine microbench + figure sweeps ------------------------------

#: Seed-tree numbers recorded with this same protocol (median of 5 after a
#: warm-up run, single CPU) before the engine fast path landed.  The fine
#: tick counts of both trees are identical (the optimization is
#: bit-exact), so baseline ticks/sec derive from the same tick totals.
NETSIM_BASELINE = {
    "recorded": True,
    "figure5_s": 0.3550,
    "figure6_s": 0.2663,
    "micro_lossy_s": 0.04147,
    "micro_clean_s": 0.08637,
}


def _median_wall(fn) -> float:
    times = []
    for _ in range(MEDIAN_REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_netsim(smoke: bool) -> dict:
    """The flow-engine microbench scenarios and (full mode) the Figure
    5/6 sweep harnesses, against the recorded pre-optimization numbers."""
    # Per scenario, keep the run with the median wall — single-sample
    # micro walls are too noisy to record (occasional 1.5x outliers).
    runs = [
        bench_engine_microbench.run_all(smoke=smoke)
        for _ in range(MEDIAN_REPS)
    ]
    micro = []
    for idx in range(len(runs[0])):
        ranked = sorted((run[idx] for run in runs),
                        key=lambda s: s["wall_s"])
        micro.append(ranked[len(ranked) // 2])
    current: dict = {"micro": micro}
    speedup: dict = {}
    if not smoke:
        base = NETSIM_BASELINE
        figure5.run()  # warm imports and caches outside the timed region
        fig5 = current["figure5_s"] = _median_wall(figure5.run)
        fig6 = current["figure6_s"] = _median_wall(figure6.run)
        speedup["figure5"] = base["figure5_s"] / fig5
        speedup["figure6"] = base["figure6_s"] / fig6
        speedup["figures_combined"] = (
            (base["figure5_s"] + base["figure6_s"]) / (fig5 + fig6)
        )
        by_name = {s["scenario"]: s for s in micro}
        for key, scenario in (("micro_lossy", "lossy_testbed"),
                              ("micro_clean", "clean_stretch")):
            if scenario in by_name:
                speedup[key] = base[f"{key}_s"] / by_name[scenario]["wall_s"]
    return {"baseline": NETSIM_BASELINE, "current": current,
            "speedup": speedup}


# -- catalog ----------------------------------------------------------------

#: Conservative floors measured at record generation (measured values ran
#: 1.2-2x above these on the reference 1-CPU box, so the 20% gate has
#: honest headroom against timer noise while still catching an index or
#: batching regression, which collapses these ratios by orders of
#: magnitude).  ``envelope_reduction`` is deterministic (simulated RPC
#: counts), so its floor is exact.
CATALOG_FLOORS = {
    "full": {"search_speedup_10000": 150.0, "search_speedup_100000": 200.0,
             "envelope_reduction": 100.0},
    "smoke": {"search_speedup_2000": 90.0, "search_speedup_10000": 90.0,
              "envelope_reduction": 100.0},
}


def measure_catalog(smoke: bool) -> dict:
    """Index-plan search speedup, register throughput, batched-RPC
    envelope counts (``benchmarks/bench_catalog_scale.py``)."""
    result = bench_catalog_scale.run_bench(smoke=smoke)
    current: dict = {
        "mode": "smoke" if smoke else "full",
        "rows": [
            {
                "n_files": row.n_files,
                "register_files_per_s": row.register_rate,
                "indexed_search_s": row.indexed_search_s,
                "naive_search_s": row.naive_search_s,
                "lfn_lookup_s": row.lfn_lookup_s,
                "search_speedup": row.search_speedup,
            }
            for row in result.rows
        ],
        "replicate_files": result.n_replicated,
        "per_file_envelopes": result.per_file_envelopes,
        "batched_envelopes": result.batched_envelopes,
        "envelope_reduction": result.envelope_reduction,
    }
    for row in result.rows:
        current[f"search_speedup_{row.n_files}"] = row.search_speedup
    return {"current": current}


def summarize_catalog(record: dict):
    for row in record["current"]["rows"]:
        yield (f"{row['n_files']} files: search speedup "
               f"{row['search_speedup']:.0f}x, register "
               f"{row['register_files_per_s']:.0f} files/s")
    yield f"envelope reduction: {record['current']['envelope_reduction']:.0f}x"


# -- telemetry ----------------------------------------------------------------

def measure_telemetry(smoke: bool) -> dict:
    """The same gdmp replication scenario with the metrics registry
    recording and keeping nothing (``DataGrid(metrics=False)``).  The
    instrumentation is event-driven and observational, so the overhead
    ratio should stay near 1.0; the record keeps that honest."""
    from repro.gdmp import DataGrid, GdmpConfig
    from repro.netsim.calibration import TUNED_BUFFER_BYTES
    from repro.netsim.units import MB

    size_mb = 5 if smoke else 25
    n_files = 2 if smoke else 20
    reps = 3 if smoke else MEDIAN_REPS

    def scenario(metrics: bool) -> dict:
        grid = DataGrid(
            [
                GdmpConfig("cern", tcp_buffer=TUNED_BUFFER_BYTES,
                           parallel_streams=3),
                GdmpConfig("anl", tcp_buffer=TUNED_BUFFER_BYTES,
                           parallel_streams=3),
            ],
            metrics=metrics,
        )
        cern, anl = grid.site("cern"), grid.site("anl")
        for i in range(n_files):
            lfn = f"f{i:03d}.db"
            grid.run(until=cern.client.produce_and_publish(lfn, size_mb * MB))
            grid.run(until=anl.client.replicate(lfn))
        return {
            "sim_now": grid.sim.now,
            "series": len(grid.metrics),
        }

    def timed(metrics: bool) -> tuple[float, dict]:
        walls = []
        facts = {}
        for _ in range(reps):
            start = time.perf_counter()
            facts = scenario(metrics)
            walls.append(time.perf_counter() - start)
        return statistics.median(walls), facts

    scenario(True)  # warm imports/caches outside the timed region
    with_s, with_facts = timed(True)
    without_s, without_facts = timed(False)
    if with_facts["sim_now"] != without_facts["sim_now"]:
        raise AssertionError(
            "telemetry changed the simulated outcome: "
            f"{with_facts['sim_now']} != {without_facts['sim_now']}"
        )
    return {"current": {
        "mode": "smoke" if smoke else "full",
        "with_registry_s": with_s,
        "without_registry_s": without_s,
        "overhead_ratio": with_s / without_s if without_s > 0 else 1.0,
        "metric_series": with_facts["series"],
        "sim_now": with_facts["sim_now"],
    }}


# -- recorded floors of the gated planes --------------------------------------

#: Conservative floors for the 10k-flow / 1k-link island scenario (see
#: ``benchmarks/bench_flow_scale.py``).  The reference box measured
#: ~1.5-2x above these, so the 20% gate has honest headroom against timer
#: noise while still catching a vectorization regression (falling back to
#: per-object ticking collapses the rate by an order of magnitude).
#: ``per_flow_ratio`` is the scenario's per-flow tick rate over the
#: 4-stream clean microbench's — and the reference runs the *scalar*
#: kernel under the auto cutover (4 flows) with most ticks
#: stretch-settled, so it sets a deliberately fast bar: the reference box
#: measured ~0.27 full / ~0.55 smoke against the hard acceptance bound of
#: 0.1 (ISSUE 6: within 10x of the 4-stream clean microbench).
FLOW_SCALE_FLOORS = {
    "full": {"flow_ticks_per_s": 400_000.0, "per_flow_ratio": 0.2},
    "smoke": {"flow_ticks_per_s": 500_000.0, "per_flow_ratio": 0.35},
}

#: Conservative floors for the sustained generated-requests-per-wall-
#: second rate of the claim-based standing pipeline (see
#: ``benchmarks/bench_workload.py``).  The reference 1-CPU box measured
#: ~700k req/s full / ~230k req/s smoke, so the 20% gate has honest
#: headroom against timer noise while still catching the regression that
#: matters: any layer of the count-based admission path (Poisson tick
#: draws, multinomial category grid, multiplicity-map picks, keyed
#: coalescing) degrading to per-request queue traffic collapses the rate
#: by orders of magnitude.
WORKLOAD_FLOORS = {
    "full": {"requests_per_s": 250_000.0},
    "smoke": {"requests_per_s": 80_000.0},
}

#: Conservative floors for the two-tier replica location service (see
#: ``benchmarks/bench_rls.py``).  The wall-clock rate floors sit well
#: under the reference 1-CPU box's measurements so the 20% gate has
#: headroom against timer noise; ``aggregate_speedup`` additionally
#: carries a *hard* bound in full mode — 8x over the single-host catalog
#: at 10M entries / 10 sites is the claim PR 8 made, tolerance does not
#: soften it (smoke runs 4 sites, where the same claim scales to 2x).
RLS_FLOORS = {
    "full": {"aggregate_speedup": 8.0, "two_tier_per_s": 8_000.0,
             "candidate_per_s": 40_000.0},
    "smoke": {"aggregate_speedup": 2.0, "two_tier_per_s": 10_000.0,
              "candidate_per_s": 40_000.0},
}

#: The wall-clock observation-plane floors sit well under the reference
#: 1-CPU box's measurements (~215k observations/s, ~300k predictions/s
#: full mode) so the 20% gate has headroom against timer noise while
#: still catching the regression that matters: the streaming estimators
#: degrading to ring scans on the query path.  ``improvement`` (static
#: mean completion / smart mean under the diurnal congestion peak) is a
#: *deterministic* simulation output — the recorded floor is just under
#: the measured 1.32x, and the hard 1.05x bound is the acceptance claim
#: itself.
WEATHER_FLOORS = {
    "full": {"improvement": 1.30, "observations_per_s": 100_000.0,
             "forecasts_per_s": 100_000.0, "predictions_per_s": 120_000.0},
    "smoke": {"improvement": 1.30, "observations_per_s": 100_000.0,
              "forecasts_per_s": 100_000.0, "predictions_per_s": 120_000.0},
}

#: The coder floors sit ~2x under the reference 1-CPU box's measurements
#: (~245 MB/s encode, ~200 MB/s decode, ~290 MB/s reconstruct at 256 KiB
#: shards, k=4 m=2) so the 20% gate has headroom against timer noise
#: while still catching the regression that matters: the whole-shard
#: ``bytes.translate``/big-int XOR fast path degrading to per-byte
#: ``gf_mul`` loops, which collapses throughput by two orders of
#: magnitude.  ``repair_savings`` (whole-file re-replication bytes over
#: chunked repair bytes on the site_wipe leg) is a *deterministic*
#: simulation output — (k+L)/k vs L object-sizes = 1.333x at k=4, L=2 —
#: and the hard >1.0 bound (chunked repair moves strictly fewer bytes)
#: is the acceptance claim itself.
CHUNKS_FLOORS = {
    "full": {"encode_mb_s": 120.0, "decode_mb_s": 100.0,
             "reconstruct_mb_s": 140.0, "repair_savings": 1.30},
    "smoke": {"encode_mb_s": 120.0, "decode_mb_s": 100.0,
              "reconstruct_mb_s": 140.0, "repair_savings": 1.30},
}


SUITES = {
    "netsim": Suite(
        measure=measure_netsim,
        output="BENCH_netsim.json",
        protocol={
            "figures": f"median of {MEDIAN_REPS} runs after one warm-up",
            "micro": f"median-wall run of {MEDIAN_REPS} "
                     "bench_engine_microbench.run_all() calls",
            "baseline": "seed tree measured with the identical protocol",
        },
        summary=lambda record: (
            f"{name}: {factor:.2f}x"
            for name, factor in sorted(record["speedup"].items())
        ),
    ),
    "catalog": Suite(
        measure=measure_catalog,
        output="BENCH_catalog.json",
        protocol={
            "search": "wall-clock s/op, equality filters cycled over keys; "
                      "indexed plan vs retained naive full scan",
            "envelopes": "client-side catalog.* TraceLog spans for a "
                         "100-file replicate, per-file vs replicate_set "
                         "(deterministic simulation)",
        },
        summary=summarize_catalog,
        floors=CATALOG_FLOORS,
        bounds=(
            # unique-key lookups stay microsecond-scale regardless of size
            Bound("rows.0.lfn_lookup_s", "<", 1e-3),
            Bound("rows.1.lfn_lookup_s", "<", 1e-3),
            # a larger catalog must not slow the indexed path materially
            # (O(matches), not O(population))
            Bound("rows.1.indexed_search_s", "<", 20,
                  of="rows.0.indexed_search_s"),
        ),
    ),
    "telemetry": Suite(
        measure=measure_telemetry,
        output="BENCH_telemetry.json",
        protocol={
            "scenario": f"20x 25 MB gdmp replications, median of "
                        f"{MEDIAN_REPS} walls after one warm-up (smoke: "
                        "2x 5 MB, median of 3)",
            "invariant": "sim_now identical with and without the registry "
                         "(instrumentation is purely observational)",
        },
        summary=lines(
            "with registry:    {with_registry_s:.3f} s "
            "({metric_series} series)",
            "without registry: {without_registry_s:.3f} s",
            "overhead ratio:   {overhead_ratio:.2f}x",
        ),
        # the series-cardinality half of ROADMAP item 5's budget (48 full,
        # 47 smoke): a new family or label shows here before it shows as
        # wall time.  The wall-clock half has no floor yet — 6-56 ms walls
        # are noise-bound
        bounds=(Bound("metric_series", "<", 49),),
    ),
    # rides in BENCH_netsim.json next to the micro/figure record instead
    # of claiming its own file
    "flow_scale": Suite(
        measure=bench(bench_flow_scale),
        output="BENCH_netsim.json",
        section="flow_scale",
        protocol={
            "scenario": "disjoint two-hop chains, oversubscribed "
                        "bottlenecks, 20% lossy; one engine advances all "
                        "flows (bench_flow_scale.run_bench)",
            "metric": "flow-tick work units per wall second "
                      "(engine.flow_tick_count / wall)",
        },
        summary=lines(
            "{flow_scale[n_flows]} flows / {flow_scale[n_links]} links "
            "({flow_scale[kernel]} kernel): {flow_ticks_per_s:.0f} "
            "flow-ticks/s",
            "per-flow ratio vs clean microbench: {per_flow_ratio:.2f}x",
        ),
        hoist=(("flow_ticks_per_s", "flow_scale.flow_ticks_per_s"),),
        floors=FLOW_SCALE_FLOORS,
        bounds=(Bound("per_flow_ratio", ">=", 0.1),),
    ),
    "workload": Suite(
        measure=bench(bench_workload),
        output="BENCH_workload.json",
        protocol={
            "scenario": "EXP-WORKLOAD at a fixed seed: open-loop arrivals "
                        "through fair-share admission and the token bucket "
                        "into the claim-based standing pipeline "
                        "(bench_workload.run_bench; one million requests "
                        "in full mode)",
            "metric": "generated requests per wall second over the whole "
                      "run (arrival generation through queue-terminal)",
            "chaos": "a component_crash campaign leg must converge "
                     "exactly-once before the rate is recorded",
        },
        summary=lines(
            "{requests} requests in {wall_s:.2f} s wall "
            "({sim_duration_s:.0f} s simulated): {requests_per_s:.0f} req/s",
            "{queue_tasks} queue tasks, {coalesced} coalesced; chaos leg: "
            "{chaos[component_crashes]} crashes, "
            "converged={chaos[converged]}",
        ),
        floors=WORKLOAD_FLOORS,
        legs=("chaos",),
    ),
    "rls": Suite(
        measure=bench(bench_rls),
        output="BENCH_rls.json",
        protocol={
            "scenario": "central catalog at N entries vs one real LRC "
                        "shard at N/sites plus a fully-populated bloom "
                        "RLI; single-stream lookup rates, wall clock "
                        "(bench_rls.run_bench; 10M entries / 10 sites in "
                        "full mode)",
            "metric": "aggregate_speedup = sites x two-tier lookups/s "
                      "over the central catalog's info/s at equal total "
                      "entry count (shards are independent hosts over "
                      "disjoint populations)",
            "chaos": "an rli_blackhole campaign leg must converge with "
                     "lookups degrading to verify-on-use before the "
                     "rate is recorded",
        },
        summary=lines(
            "{entries:,} entries over {sites} sites: two-tier "
            "{two_tier_per_s:.0f} lookups/s per stream",
            "aggregate {aggregate_per_s:.0f}/s = {aggregate_speedup:.1f}x "
            "the central catalog; bloom fp {false_positive_rate:.4f}, "
            "digest compression {rli[digest_compression]:.0f}x",
            "chaos leg: {chaos[faults_injected]} faults, "
            "converged={chaos[converged]}",
        ),
        hoist=(("candidate_per_s", "rli.candidate_per_s"),
               ("false_positive_rate", "rli.false_positive_rate")),
        floors=RLS_FLOORS,
        bounds=(
            Bound("aggregate_speedup", ">=", 8.0, modes=("full",)),
            # the bloom's design point is 1%; past 5% the index is
            # saturated and every lookup starts paying broadcast-like
            # verify costs
            Bound("false_positive_rate", "<=", 0.05),
            # digests must beat shipping exact per-LFN updates
            Bound("rli.digest_compression", ">", 5),
            # the two-tier lookup must stay within striking distance of a
            # direct central hit: the whole design collapses if the index
            # tier costs a full extra catalog's worth of work per lookup
            Bound("two_tier_per_s", ">", 0.5, of="central.info_per_s"),
        ),
        legs=("chaos",),
    ),
    "weather": Suite(
        measure=bench(bench_weather),
        output="BENCH_weather.json",
        protocol={
            "scenario": "EXP-WEATHER at a fixed seed: smart (history-"
                        "blended) vs static (probe-only) replica selection "
                        "on a T0/T1/T2 tiered grid under a diurnal "
                        "congestion wave (bench_weather.run_bench)",
            "metric": "improvement = static mean completion time / smart "
                      "mean, deterministic simulation; observation-plane "
                      "rates are wall clock over the real estimators",
            "chaos": "a weather_blackhole campaign leg must converge "
                     "(probe fallbacks forced, degradation bounded, "
                     "history reconverged) before the margin is recorded "
                     "— so the margin is never bought by a policy that "
                     "falls over when its telemetry does",
        },
        summary=lines(
            "selection: smart {selection[smart_mean_s]:.2f} s vs static "
            "{selection[static_mean_s]:.2f} s mean completion = "
            "{improvement:.2f}x improvement "
            "({selection[history_selections]} history selections, "
            "{selection[probe_fallbacks]} probe fallbacks)",
            "observation plane: {observations_per_s:.0f} observations/s, "
            "{forecasts_per_s:.0f} forecasts/s, {predictions_per_s:.0f} "
            "predictions/s over {station[pairs]} pairs",
            "chaos leg: {chaos[faults_injected]} faults, "
            "{chaos[probe_fallbacks]} probe fallbacks, "
            "converged={chaos[converged]}",
        ),
        hoist=(("improvement", "selection.improvement"),
               ("observations_per_s", "station.observations_per_s"),
               ("forecasts_per_s", "station.forecasts_per_s"),
               ("predictions_per_s", "station.predictions_per_s")),
        floors=WEATHER_FLOORS,
        bounds=(Bound("improvement", ">=", 1.05),),
        legs=("selection", "chaos"),
    ),
    "chunks": Suite(
        measure=bench(bench_chunks),
        output="BENCH_chunks.json",
        protocol={
            "scenario": "GF(256) Reed-Solomon stripes (k=4, m=2) on real "
                        "shard bytes, plus EXP-CHUNKS at a fixed seed "
                        "under the chunk_corrupt and site_wipe campaigns "
                        "(bench_chunks.run_bench)",
            "metric": "coder MB/s are wall clock; repair_savings = "
                      "whole-file re-replication bytes / chunked repair "
                      "bytes on the site_wipe leg, deterministic "
                      "simulation",
            "chaos": "both campaign legs must converge (every damage "
                     "detected, every fetch byte-identical, queue "
                     "drained) before the savings are recorded",
        },
        summary=lines(
            "coder (k={coder[k]}, m={coder[m]}, {coder[shard_bytes]} B "
            "shards): encode {encode_mb_s:.0f} MB/s, decode "
            "{decode_mb_s:.0f} MB/s, reconstruct {reconstruct_mb_s:.0f} "
            "MB/s",
            "site_wipe leg: {site_wipe[chunks_repaired]} chunks rebuilt, "
            "{site_wipe[repair_bytes]:.2e} repair bytes vs "
            "{site_wipe[whole_file_bytes]:.2e} whole-file = "
            "{repair_savings:.2f}x savings",
            "chunk_corrupt leg: {chunk_corrupt[faults_injected]} faults, "
            "converged={chunk_corrupt[converged]}",
        ),
        hoist=(("encode_mb_s", "coder.encode_mb_s"),
               ("decode_mb_s", "coder.decode_mb_s"),
               ("reconstruct_mb_s", "coder.reconstruct_mb_s"),
               ("repair_savings", "site_wipe.repair_savings")),
        floors=CHUNKS_FLOORS,
        bounds=(Bound("repair_savings", ">", 1.0),),
        legs=("chunk_corrupt", "site_wipe"),
    ),
}


def build(name: str, smoke: bool = False) -> dict:
    """Measure one suite on the current tree and assemble its record."""
    suite = SUITES[name]
    record = {
        "generated_by": f"tools/perf_report.py --suite {name}",
        "protocol": dict(suite.protocol),
        **suite.measure(smoke),
    }
    for metric, path in suite.hoist:
        record["current"][metric] = dig(record["current"], path)
    if suite.floors is not None:
        record["baseline"] = {"recorded": True, **suite.floors}
        record["protocol"]["baseline"] = "; ".join([
            "recorded conservative floors; gate fails metrics "
            f">{TOLERANCE:.0%} below them",
            *(f"hard bound {bound}" for bound in suite.bounds),
        ])
    return record


def check(suite: Suite, record: dict) -> list[str]:
    """Everything gated that ``record`` breaks: floors (less tolerance),
    hard bounds in their modes, legs that did not converge."""
    current = record["current"]
    mode = current.get("mode")
    failures = []
    for metric, floor in (suite.floors or {}).get(mode, {}).items():
        measured = current.get(metric)
        if measured is None:
            failures.append(f"{metric}: missing from the current record")
        elif measured < floor * (1.0 - TOLERANCE):
            failures.append(
                f"{metric}: {measured:.4g} is >{TOLERANCE:.0%} below the "
                f"recorded baseline floor {floor:.4g}"
            )
    for bound in suite.bounds:
        if mode not in bound.modes:
            continue
        measured = dig(current, bound.metric)
        unit = dig(current, bound.of) if bound.of else 1.0
        if measured is None or unit is None:
            failures.append(f"{bound}: missing from the current record")
        elif not OPS[bound.op](measured, bound.limit * unit):
            failures.append(f"{measured:.4g} breaks the hard bound {bound}")
    for leg in suite.legs:
        if not current.get(leg, {}).get("converged"):
            failures.append(f"{leg} leg did not converge")
    return failures


def write(suite: Suite, record: dict, output: Path | None,
          smoke: bool) -> None:
    """Print the record (``-``), write it to ``output``, or — full mode,
    no ``--output`` — regenerate the committed file at the repo root."""
    if output is None:
        if smoke:
            return
        output = REPO_ROOT / suite.output
        existing = json.loads(output.read_text()) if output.exists() else {}
        if suite.section is not None:
            record = {**existing, suite.section: record}
        else:
            # the file's owner rewrites it whole, but the sections other
            # suites merged into it are theirs: carry them over
            record = {**record, **{
                other.section: existing[other.section]
                for other in SUITES.values()
                if other.output == suite.output and other.section in existing
            }}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if output == Path("-"):
        print(text, end="")
        return
    output.write_text(text)
    print(f"wrote {output}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--suite", required=True, choices=[*SUITES, "all"],
                        help="the record to regenerate and gate")
    parser.add_argument("--smoke", action="store_true",
                        help="fast sanity run at shrunk sizes; no file "
                             "write unless --output is given")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON record (default: the "
                             "suite's BENCH_*.json at the repo root; '-' "
                             "prints to stdout only)")
    args = parser.parse_args(argv)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if len(names) > 1 and args.output not in (None, Path("-")):
        parser.error("--suite all writes one file per suite: "
                     "--output takes only '-'")
    regressed = False
    for name in names:
        suite = SUITES[name]
        record = build(name, smoke=args.smoke)
        write(suite, record, args.output, args.smoke)
        for line in suite.summary(record):
            print(f"  {line}")
        for failure in check(suite, record):
            print(f"REGRESSION: {name}: {failure}", file=sys.stderr)
            regressed = True
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
