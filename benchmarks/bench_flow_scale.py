"""BENCH-FLOW-SCALE — the 10k-flow / 1k-link flow-table scenario.

A grid of independent *link islands* — disjoint src -> mid -> dst chains
whose second hop is the bottleneck — each carrying one parallel transfer
of ``flows_per_island`` streams.  At full size that is 500 islands, 1000
links and 10 000 concurrent flows, all advanced by one engine: the regime
the struct-of-arrays flow table and the vectorized tick kernel exist for.

The scenario deliberately mixes regimes:

* every island's bottleneck link is oversubscribed, so ticks run the full
  congestion/queue/overflow machinery (no stretching);
* a fifth of the islands add a tiny random per-packet loss rate, so the
  batched loss-draw pass stays on the hot path;
* transfer sizes cycle over ten groups, so pools retire in ~10 clustered
  waves, exercising incremental flow-table rebuilds at scale.

The headline metric is the **per-flow tick rate**: flow-tick work units
(``engine.flow_tick_count``) per wall second.  It is compared against the
same metric for the 4-stream clean microbench path
(``bench_engine_microbench.run_stretch_scenario`` topology); the
acceptance bar is staying within 10x of it despite running 10k coupled
flows through full (unstretchable) ticks.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_flow_scale.py [--smoke]
"""

from __future__ import annotations

import json
import time

from repro.netsim import TcpParams
from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import KiB, MB, mbps
from repro.simulation import Simulator

__all__ = [
    "island_specs",
    "build_scenario",
    "run_flow_scale",
    "run_clean_reference",
    "run_bench",
    "main",
]

#: transfer sizes cycle over this many groups so retirements cluster
#: into distinct waves instead of one per pool
SIZE_GROUPS = 10
#: islands with index % LOSSY_EVERY == 0 get a lossy bottleneck link
LOSSY_EVERY = 5
#: tiny enough that loss events stay rare (the *draw* cost is what the
#: benchmark must keep on the hot path, not recovery dynamics)
LOSS_RATE = 1e-6


def island_specs(n_islands: int, flows_per_island: int,
                 base_size_mb: int) -> list[dict]:
    """Deterministic per-island parameters for a scenario size."""
    specs = []
    for i in range(n_islands):
        specs.append({
            "index": i,
            "flows": flows_per_island,
            "size_mb": base_size_mb + 20 * (i % SIZE_GROUPS),
            "lossy": i % LOSSY_EVERY == 0,
        })
    return specs


def _add_island(topo: Topology, spec: dict) -> tuple[str, str]:
    """Two-hop chain: a fat clean first hop into a congested bottleneck."""
    i = spec["index"]
    src, mid, dst = f"src{i}", f"mid{i}", f"dst{i}"
    topo.add_host(Host(src))
    topo.add_host(Host(mid))
    topo.add_host(Host(dst))
    topo.connect(src, mid, Link(
        f"l{i}a", capacity=mbps(1000), delay=0.004,
    ))
    # aggregate clamped demand (flows x 64 KiB / 16 ms ~ 80 MB/s for 20
    # flows) oversubscribes this hop, so queues build and ticks stay full
    topo.connect(mid, dst, Link(
        f"l{i}b", capacity=mbps(400), delay=0.004,
        loss_rate=LOSS_RATE if spec["lossy"] else 0.0,
    ))
    return src, dst


def build_scenario(
    specs: list[dict], seed: int = 2001, kernel: str = "auto",
) -> tuple[Simulator, NetworkEngine, list]:
    """One engine advancing every island's transfer concurrently."""
    sim = Simulator()
    topo = Topology()
    endpoints = [_add_island(topo, spec) for spec in specs]
    engine = NetworkEngine(sim, topo, seed=seed, kernel=kernel)
    pools = []
    for spec, (src, dst) in zip(specs, endpoints):
        pools.append(engine.open_transfer(
            src, dst, nbytes=spec["size_mb"] * MB,
            streams=spec["flows"], tcp=TcpParams(buffer=64 * KiB),
            name=f"island{spec['index']}",
        ))
    return sim, engine, pools


def run_flow_scale(
    n_islands: int = 500,
    flows_per_island: int = 20,
    base_size_mb: int = 60,
    seed: int = 2001,
    kernel: str = "auto",
) -> dict:
    """The monolithic scenario: one engine, every island, wall-clocked."""
    specs = island_specs(n_islands, flows_per_island, base_size_mb)
    sim, engine, pools = build_scenario(specs, seed=seed, kernel=kernel)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    for pool in pools:
        assert pool.done.ok, "every transfer must complete"
    flow_ticks = engine.flow_tick_count
    return {
        "scenario": "flow_scale",
        "kernel": engine.kernel,
        "n_islands": len(specs),
        "n_flows": n_islands * flows_per_island,
        "n_links": 2 * n_islands,
        "sim_s": sim.now,
        "wall_s": wall,
        "executed_ticks": engine.tick_count,
        "settled_ticks": engine.settled_tick_count,
        "flow_ticks": flow_ticks,
        "flow_ticks_per_s": flow_ticks / wall,
    }


def run_clean_reference(streams: int = 4, size_mb: int = 2000) -> dict:
    """Per-flow tick rate of the 4-stream clean microbench topology.

    Same topology and parameters as
    ``bench_engine_microbench.run_stretch_scenario``, re-run here to read
    ``flow_tick_count`` (the microbench reports only tick totals)."""
    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("ab", capacity=mbps(1000), delay=0.004))
    engine = NetworkEngine(sim, topo, seed=7)
    start = time.perf_counter()
    pool = engine.open_transfer(
        "a", "b", nbytes=size_mb * MB, streams=streams,
        tcp=TcpParams(buffer=128 * KiB),
    )
    sim.run(until=pool.done)
    wall = time.perf_counter() - start
    flow_ticks = engine.flow_tick_count
    return {
        "scenario": "clean_reference",
        "kernel": engine.kernel,
        "streams": streams,
        "wall_s": wall,
        "flow_ticks": flow_ticks,
        "flow_ticks_per_s": flow_ticks / wall,
    }


def run_bench(smoke: bool = False) -> dict:
    """The record ``tools/perf_report.py --suite flow_scale`` persists."""
    if smoke:
        # keep flows_per_island at 20: fewer streams would drop aggregate
        # demand below the bottleneck and the scenario would stretch
        scale = run_flow_scale(
            n_islands=20, flows_per_island=20, base_size_mb=20,
        )
        clean = run_clean_reference(size_mb=200)
    else:
        scale = run_flow_scale()
        clean = run_clean_reference()
    return {
        "mode": "smoke" if smoke else "full",
        "flow_scale": scale,
        "clean_reference": clean,
        # the acceptance ratio: 10k coupled flows through full ticks vs 4
        # stretch-settled streams; must stay above 0.1 (within 10x)
        "per_flow_ratio": (
            scale["flow_ticks_per_s"] / clean["flow_ticks_per_s"]
        ),
    }


def main(argv: list[str] | None = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for a fast sanity run")
    args = parser.parse_args(argv)
    print(json.dumps(run_bench(smoke=args.smoke), indent=2))


if __name__ == "__main__":
    main()
