"""BENCH-ENGINE — flow-engine hot-path microbenchmarks.

Two scenarios bracket the tick loop's regimes:

* **lossy/congested** — the §6 CERN-ANL testbed (random loss, cross
  traffic, queue evolution): every tick runs the full contention, loss
  and window machinery.  This is the regime Figures 5/6 live in.
* **clean/stretched** — a loss-free LAN-like path where, once windows hit
  the buffer clamp, the adaptive tick-stretching fast path settles almost
  every fine tick analytically instead of executing it.

Each scenario reports wall-clock, fine ticks (executed + analytically
settled), and ticks/second.  Run standalone for the JSON record::

    PYTHONPATH=src python benchmarks/bench_engine_microbench.py [--smoke]

``tools/perf_report.py --suite netsim`` records it and holds it to its
bounds (the lossy testbed in the paper's ~23 Mbps regime, the stretch
fast path settling more ticks than it executes).
"""

from __future__ import annotations

import json
import time

from repro.experiments.testbed import extended_get, gridftp_testbed
from repro.netsim import TcpParams
from repro.netsim.calibration import TestbedParams
from repro.netsim.engine import NetworkEngine
from repro.netsim.link import Link
from repro.netsim.topology import Host, Topology
from repro.netsim.units import KiB, MB, mbps

__all__ = ["run_lossy_scenario", "run_stretch_scenario", "run_all", "main"]


def run_lossy_scenario(
    size_mb: int = 100, streams: int = 9, buffer: int = 64 * KiB,
    repeats: int = 3, seed: int = 2001,
) -> dict:
    """Repeated GridFTP fetches on the lossy §6 testbed."""
    ticks = 0
    rate = 0.0
    start = time.perf_counter()
    for repeat in range(repeats):
        testbed = gridftp_testbed(TestbedParams(seed=seed + repeat))
        rate = extended_get(testbed, size_mb * MB, streams, buffer)
        ticks += testbed.engine.tick_count + testbed.engine.settled_tick_count
    wall = time.perf_counter() - start
    return {
        "scenario": "lossy_testbed",
        "size_mb": size_mb,
        "streams": streams,
        "buffer": buffer,
        "repeats": repeats,
        "wall_s": wall,
        "ticks": ticks,
        "ticks_per_s": ticks / wall,
        "last_rate_mbps": rate,
    }


def _clean_engine(adaptive: bool) -> tuple:
    from repro.simulation import Simulator

    sim = Simulator()
    topo = Topology()
    topo.add_host(Host("a"))
    topo.add_host(Host("b"))
    topo.connect("a", "b", Link("ab", capacity=mbps(1000), delay=0.004))
    engine = NetworkEngine(sim, topo, seed=7, adaptive_ticks=adaptive)
    return sim, engine


def run_stretch_scenario(
    size_mb: int = 2000, streams: int = 4, adaptive: bool = True,
) -> dict:
    """A large transfer on a loss-free path (stretch-eligible dynamics).

    The aggregate clamped demand (streams x buffer / RTT ~ 524 Mbps) stays
    below the 1 Gbps link, so after slow start every tick is quiet with
    buffer-clamped windows — exactly the stretch preconditions.
    """
    sim, engine = _clean_engine(adaptive)
    start = time.perf_counter()
    pool = engine.open_transfer(
        "a", "b", nbytes=size_mb * MB, streams=streams,
        tcp=TcpParams(buffer=128 * KiB),
    )
    sim.run(until=pool.done)
    wall = time.perf_counter() - start
    ticks = engine.tick_count + engine.settled_tick_count
    return {
        "scenario": "clean_stretch" if adaptive else "clean_full_ticks",
        "size_mb": size_mb,
        "streams": streams,
        "adaptive_ticks": adaptive,
        "wall_s": wall,
        "ticks": ticks,
        "executed_ticks": engine.tick_count,
        "settled_ticks": engine.settled_tick_count,
        "ticks_per_s": ticks / wall,
        "rate_mbps": pool.throughput() * 8 / 1e6,
    }


def run_all(smoke: bool = False) -> list[dict]:
    """All scenarios; ``smoke`` shrinks sizes for CI sanity runs."""
    if smoke:
        return [
            run_lossy_scenario(size_mb=10, repeats=1),
            run_stretch_scenario(size_mb=100),
            run_stretch_scenario(size_mb=100, adaptive=False),
        ]
    return [
        run_lossy_scenario(),
        run_stretch_scenario(),
        run_stretch_scenario(adaptive=False),
    ]


def main(argv: list[str] | None = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for a fast sanity run")
    args = parser.parse_args(argv)
    print(json.dumps(run_all(smoke=args.smoke), indent=2))


if __name__ == "__main__":
    main()
