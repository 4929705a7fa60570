"""Per-layer metrics, all read from outside the program.

Host time per layer comes from a cProfile fold by ``repro/<package>/``
path; simulated time per layer from the self-time fold of the grid's own
``TraceLog``; counts from its ``MetricsRegistry``, the task queue's
records and the flow engine.  Nothing here is recorded by code under
``src/``: the simulator is coroutine-based, so a host wall span across a
``yield`` would time whatever else the event loop ran in between — hence
host time by profiler self time and simulated time by span tree.
"""

from __future__ import annotations

from spanfold import child_index, fold_tree

__all__ = [
    "PACKAGES", "SPAN_LAYERS", "RATIO_BASES", "percentile", "ratio",
    "profile_fold", "grid_metrics", "queue_metrics", "span_metrics",
]

#: the layers: the ``repro.*`` packages, by name
PACKAGES = (
    "simulation", "services", "netsim", "security", "gridftp", "storage",
    "catalog", "rls", "gdmp", "workload", "observatory", "chunks",
    "objectdb", "objectrep", "telemetry", "faults", "experiments",
)

#: layers a replicate trace is sliced into (simulated self time)
SPAN_LAYERS = (
    "gdmp", "rls", "catalog", "storage", "security", "gridftp", "netsim",
)

#: every ratio is printed with its base: ratio metric -> the count (or
#: time) it was divided by
RATIO_BASES = {
    "simulation.host_us_per_event": "simulation.events",
    "services.requests_per_op": "bench.ops",
    "netsim.host_ns_per_flow_tick": "netsim.flow_ticks",
    "catalog.proxy_cache_hit_ratio": "catalog.proxy_reads",
    "rls.probes_per_lookup": "rls.resolves",
    "rls.verify_miss_ratio": "rls.probes",
    "workload.useful_claim_ratio": "workload.claim_rpcs",
    "observatory.history_selection_ratio": "observatory.selections",
    "storage.pool_hit_ratio": "storage.pool_lookups",
    "bench.failed_ops_share": "bench.ops",
    "bench.sim_unexplained_share": "bench.replicate_traces",
    "bench.trace_overhead_ratio": "bench.untraced_wall_s",
}


def percentile(values, q: float) -> float | None:
    """Nearest-rank percentile of ``values`` (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def ratio(part: float, base: float) -> float | None:
    """``part / base``; None where the base is empty (nothing to rate)."""
    return part / base if base else None


# -- host time ---------------------------------------------------------------
def _package_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    head, sep, tail = path.rpartition("/repro/")
    if sep:
        package = tail.split("/", 1)[0]
        return package if package in PACKAGES else "other"
    return "numpy" if "/numpy/" in path else "other"


def profile_fold(profiler) -> tuple[dict[str, float], int]:
    """Fold a finished cProfile run into ``({package: tottime seconds},
    calls of Simulator.step)``.

    Built-in functions have no file of their own: their self time goes
    to the package of whoever called them (numpy's C entry points to
    ``numpy``), so a layer is charged for the heap pushes and array
    kernels it asked for.
    """
    profiler.create_stats()
    shares = {package: 0.0 for package in (*PACKAGES, "numpy", "other")}
    events = 0
    for (filename, _line, func), (_cc, calls, tottime, _ct, callers) in (
        profiler.stats.items()
    ):
        if filename != "~":
            shares[_package_of(filename)] += tottime
            if func == "step" and filename.endswith("simulation/kernel.py"):
                events = calls
        elif "numpy" in func:
            shares["numpy"] += tottime
        else:
            for (caller_file, _l, _f), (_c, _n, tt, _t) in callers.items():
                shares[_package_of(caller_file)] += tt
    return shares, events


# -- counts from the grid ----------------------------------------------------
class _Snapshot:
    """Totals over one registry snapshot's label sets."""

    def __init__(self, registry):
        self.families = registry.snapshot() if registry is not None else {}

    def total(self, name: str, **labels) -> float:
        family = self.families.get(name)
        if family is None:
            return 0.0
        want = {k: str(v) for k, v in labels.items()}
        return sum(
            child["value"] for child in family["children"]
            if all(child["labels"].get(k) == v for k, v in want.items())
        )

    def histogram(self, name: str) -> tuple[int, float]:
        family = self.families.get(name, {"children": []})
        return (
            sum(child["count"] for child in family["children"]),
            sum(child["sum"] for child in family["children"]),
        )


def grid_metrics(grid, ops: int) -> dict[str, float]:
    """Counts and ratios of one finished grid, by owning layer."""
    snap = _Snapshot(grid.metrics)
    total = snap.total
    requests = total("rpc.requests")
    resolves, probes = snap.histogram("rls.lookup.hops")
    proxy_hits = total("catalog.proxy.cache_hits")
    proxy_reads = proxy_hits + total("catalog.proxy.cache_misses")
    pool_hits = total("storage.pool.hits")
    pool_lookups = pool_hits + total("storage.pool.misses")
    history = total("weather.site.history_selections")
    selections = history + total("weather.site.probe_fallbacks")
    return {
        "services.requests": requests,
        "services.retries": total("rpc.retries"),
        "services.breaker_refusals": total("breaker.refusals"),
        "services.requests_per_op": ratio(requests, ops),
        "netsim.flow_ticks": grid.engine.flow_tick_count,
        "netsim.flows_opened": total("netsim.flows_opened"),
        "netsim.retransmits": total("netsim.tcp.retransmits"),
        "netsim.transfers_aborted": total("netsim.transfers_aborted"),
        "catalog.index_searches": total("catalog.ldap.index_searches"),
        "catalog.scan_searches": total("catalog.ldap.scan_searches"),
        "catalog.proxy_reads": proxy_reads,
        "catalog.proxy_cache_hit_ratio": ratio(proxy_hits, proxy_reads),
        "catalog.txn_replays": total("catalog.txn_replays"),
        "rls.rli_lookups": total("catalog.proxy.rli_lookups"),
        "rls.resolves": resolves,
        "rls.probes": probes,
        "rls.probes_per_lookup": ratio(probes, resolves),
        "rls.verify_miss_ratio": ratio(
            total("catalog.proxy.verify_misses"), probes
        ),
        "rls.fallback_broadcasts": total("catalog.proxy.fallback_broadcasts"),
        "rls.digest_bytes": total("rls.rli.digest_bytes"),
        "observatory.selections": selections,
        "observatory.history_selection_ratio": ratio(history, selections),
        "observatory.pushes_lost": total("weather.pusher.pushes_lost"),
        "chunks.repaired": total("chunks.repair", event="chunks_rebuilt"),
        "chunks.repair_bytes": (
            total("chunks.repair", event="bytes_fetched")
            + total("chunks.repair", event="bytes_uploaded")
        ),
        "chunks.scrub_probes": total("chunks.scrub"),
        "gdmp.failovers": total("gdmp.mover.failovers"),
        "gdmp.stalls": total("gdmp.mover.stalls"),
        "storage.pool_lookups": pool_lookups,
        "storage.pool_hit_ratio": ratio(pool_hits, pool_lookups),
        "faults.injected": total("faults.injected"),
        "telemetry.series": len(grid.metrics),
        "telemetry.spans": len(grid.tracelog),
        "workload.claim_rpcs": total("rpc.requests", operation="task.claim"),
    }


def queue_metrics(engine, claim_rpcs: float) -> dict[str, float]:
    """The task pipeline's own records: work, waste and waiting."""
    queue = engine.queue
    waits = [
        task.first_claimed_at - task.submitted_at
        for task in queue.tasks.values()
        if task.first_claimed_at is not None
    ]
    return {
        "workload.tasks": len(queue.tasks),
        "workload.useful_claim_ratio": ratio(queue.stats.claims, claim_rpcs),
        "workload.expired_leases": queue.stats.expired_leases,
        "workload.coalesced": queue.stats.coalesced,
        "workload.sim_queue_wait_p50_s": percentile(waits, 50),
        "workload.sim_queue_wait_p99_s": percentile(waits, 99),
    }


# -- simulated time per layer ------------------------------------------------
def span_layer(name: str) -> str:
    """Owning layer of a span, by its name."""
    service, _, verb = name.partition(":")
    if service == "gridftp":
        if verb == "transfer":
            return "netsim"
        return "security" if verb in ("AUTH", "ADAT") else "gridftp"
    if service == "gdmp":
        if verb.startswith("replicate"):
            return "gdmp"
        if verb.startswith("rli."):
            return "rls"
        if verb.startswith("catalog."):
            return "catalog"
        if verb in ("request_stage", "release"):
            return "storage"
    return "other"


def span_metrics(tracelog, ops: dict) -> dict[str, float]:
    """Where each replicating operation's simulated time went, from
    parts measured independently of its latency.

    ``ops`` maps ``(lfn, destination)`` to ``(latency, queued)``.
    ``queued`` is None for a direct pull: the operation is the file's own
    ``gdmp:replicate`` span tree.  For an operation that went through the
    task pipeline it is the simulated seconds the queue's records show it
    waiting in lanes and being audited, and the operation blocks on the
    whole ``gdmp:replicate-set`` that carried the file (a bundle's files
    move one after another), so that tree is folded.  The fold gives
    self seconds per layer, summing to the tree's duration; what latency
    the fold and the queue records together do not account for is
    ``bench.sim_unexplained_*`` (round trips between stages, failed
    attempts, expired leases).  p50/p99 of every part across operations.
    """
    spans = list(tracelog)
    children = child_index(spans)
    by_id = {(span.trace_id, span.span_id): span for span in spans}
    per_layer: dict[str, list[float]] = {layer: [] for layer in SPAN_LAYERS}
    unexplained: list[float] = []
    latencies = 0.0
    for span in spans:
        if span.name != "gdmp:replicate" or span.status != "ok":
            continue
        key = (span.attrs.get("lfn"), span.host)
        if key not in ops:
            continue
        latency, queued = ops[key]
        root = span
        if queued is not None:
            root = by_id.get((span.trace_id, span.parent_id))
            if root is None or root.end is None:
                continue
        slices, _ = fold_tree(root, children, span_layer)
        for layer in SPAN_LAYERS:
            per_layer[layer].append(slices.get(layer, 0.0))
        unexplained.append(latency - sum(slices.values()) - (queued or 0.0))
        latencies += latency
    out = {
        "bench.replicate_traces": len(unexplained),
        "bench.open_spans": sum(1 for span in spans if span.end is None),
        "bench.sim_unexplained_p50_s": percentile(unexplained, 50),
        "bench.sim_unexplained_p99_s": percentile(unexplained, 99),
        "bench.sim_unexplained_share": ratio(
            sum(abs(seconds) for seconds in unexplained), latencies
        ),
    }
    for layer, values in per_layer.items():
        out[f"{layer}.sim_self_p50_s"] = percentile(values, 50)
        out[f"{layer}.sim_self_p99_s"] = percentile(values, 99)
    return out
