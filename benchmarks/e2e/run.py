#!/usr/bin/env python3
"""The repo's end-to-end benchmark: five workloads, one command.

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1] [--smoke]
    python3 benchmarks/e2e/run.py --check-noise [--workload NAME|all]

One run repeats a workload's unit (fresh grid, same seed) for as many
times as fit in ``--seconds``, at least twice, checks the outputs, and
prints every metric of ``BENCHMARK.json`` by name with its
unit; the last line of stdout is the result as one JSON object.  With
``--trace 0`` the metrics are the end-to-end ones (host metrics are
medians over the repeats); with ``--trace 1`` the per-layer ones, from
one more unit run under the profiler.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
os.environ["REPRO_SERIAL"] = "1"    # single process: sweeps run in-line
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy  # noqa: E402

from layers import (  # noqa: E402
    PACKAGES,
    RATIO_BASES,
    grid_metrics,
    percentile,
    profile_fold,
    queue_metrics,
    ratio,
    span_metrics,
)
from repro.experiments.common import transfer_rate_mbps  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
RESULTS = HERE / "results"
#: a median needs two; a further repeat runs only if it is projected to
#: end within ``--seconds`` (three fit at the sizes in workloads.py)
MIN_REPEATS = 2
#: set-up is timed up to this many times per run (builds beyond the
#: repeats' own are thrown away), within SETUP_BUDGET seconds
SETUP_SAMPLES = 40
SETUP_BUDGET = 1.0
#: the seed nobody tunes against; claims must also hold here
HELD_OUT_SEED = 7
#: --check-noise runs these, twice
NOISE_SEEDS = tuple(s for s in range(1, 12) if s != HELD_OUT_SEED)
#: the result line must carry a number for every per-layer metric; this
#: one stands for "this workload cannot produce it" (printed as n/a)
NOT_APPLICABLE = -1.0
#: a p99 needs ten samples beyond it
P99_SAMPLES = 1000


#: host seconds are reported as they would read on a machine on which
#: one spin() takes this long (see "Host time" in README.md)
SPIN_REFERENCE_S = 0.018
#: spins timed between units: shorter blocks follow the machine's
#: second-to-second jitter and not the speed the unit ran at
SPIN_BLOCK = 40


def spin() -> float:
    """Seconds one fixed pure-Python kernel (heap, dict, integer maths:
    what the simulator's event loop is made of) takes right now."""
    began = time.perf_counter()
    heap: list = []
    seen: dict = {}
    x = 12345
    for i in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        seen[x & 1023] = i
    return time.perf_counter() - began


def slowdown_now() -> float:
    """How much slower than the reference the machine runs right now."""
    return statistics.mean(
        spin() for _ in range(SPIN_BLOCK)
    ) / SPIN_REFERENCE_S


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# -- one unit ----------------------------------------------------------------
class Unit:
    """One build-run-check cycle of a workload and what it measured.

    Host seconds are divided by the machine's slowdown around the unit:
    this box runs identical work up to 1.7x slower for minutes at a
    time, and a block of spins timed before the unit (``before``, the
    previous unit's ``after``) and after it tracks that.
    """

    def __init__(self, cls, seed: int, smoke: bool, before: float,
                 profiler=None):
        gc.collect()
        began = time.perf_counter()
        workload = cls(seed, smoke)
        workload.setup()
        setup_s = time.perf_counter() - began
        if profiler is not None:
            profiler.enable()
        began = time.perf_counter()
        workload.run()
        self.raw_wall_s = time.perf_counter() - began
        if profiler is not None:
            profiler.disable()
        self.after = slowdown_now()
        self.slowdown = (before + self.after) / 2.0
        self.setup_s = setup_s / self.slowdown
        self.wall_s = self.raw_wall_s / self.slowdown
        outcome = self.outcome = workload.finish()
        self.workload = workload
        latencies = outcome.latencies
        self.sim = {
            "sim_makespan_s": outcome.makespan,
            "sim_op_latency_p50_s": percentile(latencies, 50),
            "sim_op_latency_p95_s": percentile(latencies, 95),
        }
        # every simulated per-layer number that needs no trace; None
        # where this workload cannot produce the metric
        counts = dict.fromkeys(PER_LAYER)
        counts.update({
            "bench.ops": outcome.ops,
            "bench.latency_samples": len(latencies),
            "bench.failed_ops_share": outcome.failed / outcome.ops,
            "bench.sim_op_latency_p99_s": (
                percentile(latencies, 99)
                if len(latencies) >= P99_SAMPLES else None
            ),
            "netsim.sim_goodput_mbps": (
                transfer_rate_mbps(outcome.payload_bytes, outcome.makespan)
                if outcome.payload_bytes else None
            ),
            "workload.sim_op_queued_p50_s": percentile(outcome.queued, 50),
            "workload.sim_op_queued_p99_s": percentile(outcome.queued, 99),
            **outcome.extra,
        })
        if workload.grid is not None:
            counts["gdmp.orphan_failures"] = workload.orphan_failures
            counts.update(grid_metrics(workload.grid, outcome.ops))
        if workload.engine is not None:
            counts.update(
                queue_metrics(workload.engine, counts["workload.claim_rpcs"])
            )
        self.counts = counts
        self.fingerprint = hashlib.sha256(json.dumps(
            {"sim": self.sim, "counts": counts, "parts": outcome.fingerprints},
            sort_keys=True,
        ).encode()).hexdigest()

    def release(self) -> None:
        """Drop the grid: only the numbers are kept across repeats."""
        self.workload = None


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, min_repeats: int = MIN_REPEATS) -> dict:
    """Run one workload for ``seconds`` and return its result record."""
    cls = WORKLOADS[name]
    began = time.perf_counter()
    units = [Unit(cls, seed, smoke, slowdown_now())]
    if trace:
        # the untraced unit is the base of the tracing overhead
        units[0].release()
        profiler = cProfile.Profile()
        traced = Unit(cls, seed, smoke, units[0].after, profiler)
        units.append(traced)
    else:
        def budget_left() -> bool:
            spent = time.perf_counter() - began
            return spent + spent / len(units) <= seconds

        while len(units) < min_repeats or budget_left():
            units[-1].release()
            units.append(Unit(cls, seed, smoke, units[-1].after))

    first = units[0]
    errors = list(first.outcome.errors)
    if any(unit.fingerprint != first.fingerprint for unit in units):
        errors.append("sim_fingerprint differs between repeats of one run")
    record = {
        "workload": name,
        "loop": cls.loop,
        "seed": seed,
        "smoke": smoke,
        "repeats": len(units),
        "ops": first.outcome.ops,
        "latency_samples": len(first.outcome.latencies),
        "attempted": first.outcome.ops,
        "failed": min(len(errors), first.outcome.ops),
        "correct": not errors,
        "errors": errors[:20],
        "sim_fingerprint": first.fingerprint,
        "machine": machine_facts(),
        "raw_wall_s": statistics.median(unit.raw_wall_s for unit in units),
        "slowdown": statistics.median(unit.slowdown for unit in units),
    }
    if not trace:
        setups = [unit.setup_s for unit in units]
        extra_began = time.perf_counter()
        while (len(setups) < SETUP_SAMPLES and not smoke
               and time.perf_counter() - extra_began < SETUP_BUDGET):
            gc.collect()
            began = time.perf_counter()
            cls(seed, smoke).setup()
            setups.append((time.perf_counter() - began) / units[-1].after)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(unit.wall_s for unit in units),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
            **first.sim,
        }
        spec = END_TO_END
    else:
        shares, steps = profile_fold(profiler)
        shares = {
            package: seconds / traced.slowdown
            for package, seconds in shares.items()
        }
        values = dict(traced.counts)
        grid = traced.workload.grid
        if grid is not None:
            outcome = traced.outcome
            # a direct pull has no queue record: None beside its latency
            queued = outcome.queued or [None] * len(outcome.op_keys)
            values.update(span_metrics(grid.tracelog, dict(zip(
                outcome.op_keys, zip(outcome.latencies, queued)
            ))))
        values.update({
            **{f"{package}.host_self_s": shares[package]
               for package in (*PACKAGES, "numpy", "other")},
            "simulation.events": steps,
            "simulation.host_us_per_event": ratio(first.wall_s * 1e6, steps),
            "netsim.host_ns_per_flow_tick": ratio(
                (shares["netsim"] + shares["numpy"]) * 1e9,
                values["netsim.flow_ticks"],
            ),
            "bench.untraced_wall_s": first.wall_s,
            "bench.trace_overhead_ratio": traced.wall_s / first.wall_s,
        })
        spec = PER_LAYER
        write_trace(record, traced, values, shares)
    if set(values) != set(spec):
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: "
            f"unknown {sorted(set(values) - set(spec))}, "
            f"missing {sorted(set(spec) - set(values))}"
        )
    record["metrics"] = {
        metric: {"value": values[metric], "unit": entry["unit"]}
        for metric, entry in spec.items()
    }
    return record


def write_trace(record: dict, unit: Unit, values: dict, shares: dict) -> None:
    """The traced run, kept in memory until now: spans, folded profile
    and every count, to ``results/<workload>.trace.json``."""
    grid = unit.workload.grid
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{record['workload']}.trace.json", "w",
              encoding="utf-8") as fh:
        json.dump({
            **record,
            "per_layer": values,
            "host_self_s": shares,
            "spans": grid.tracelog.to_records() if grid is not None else [],
        }, fh)


# -- output ------------------------------------------------------------------
def print_record(record: dict) -> None:
    """Every metric by name with its unit, then the result line."""
    print(f"== {record['workload']} ({record['loop']}) seed {record['seed']}"
          f"{' smoke' if record['smoke'] else ''}: "
          f"{record['repeats']} repeats, {record['ops']} ops, "
          f"{record['latency_samples']} latency samples")
    metrics = record["metrics"]
    for name, metric in metrics.items():
        if metric["value"] is None:
            print(f"{name:40s} {'n/a':>16s}")
            continue
        base = RATIO_BASES.get(name)
        print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}" + (
            f"  (base {base} = {metrics[base]['value']:g})" if base else ""
        ))
    print(f"raw_wall_s {record['raw_wall_s']:.6f} s as timed, machine at "
          f"{record['slowdown']:.3f}x the reference spin")
    print(f"sim_fingerprint {record['sim_fingerprint']}")
    print(f"machine {json.dumps(record['machine'], sort_keys=True)}")
    for line in record["errors"]:
        print(f"!! {line}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {
                "value": float(
                    NOT_APPLICABLE if metric["value"] is None
                    else metric["value"]
                ),
                "unit": metric["unit"],
            }
            for name, metric in metrics.items()
        },
    }))


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_history(records: list[dict]) -> None:
    """Append one baseline entry to the append-only history list (a
    one-off step after a merge; README.md has the command)."""
    path = RESULTS / "history.json"
    history = {"history": []}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            history = json.load(fh)
    history["history"].append({
        "commit": git_commit(),
        "date": time.strftime("%Y-%m-%d"),
        "seed": records[0]["seed"],
        "machine": records[0]["machine"],
        "workloads": {
            record["workload"]: {
                "sim_fingerprint": record["sim_fingerprint"],
                "ops": record["attempted"],
                **{k: m["value"] for k, m in record["metrics"].items()},
            }
            for record in records
        },
    })
    RESULTS.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")


# -- noise check -------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, *extra: str,
              echo: bool = False) -> dict:
    """One workload in a fresh process (so ``peak_rss_mb`` is its own),
    through the contract's own interface; its result line as a record."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), *extra],
        capture_output=True, text=True,
    )
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    facts = {
        words[0]: words[1] for words in map(str.split, lines)
        if words[0] in ("sim_fingerprint", "raw_wall_s")
    }
    if len(facts) < 2:
        raise SystemExit(f"{name}: run ended without a result")
    return {
        "workload": name,
        "seed": seed,
        "sim_fingerprint": facts["sim_fingerprint"],
        "raw_wall_s": float(facts["raw_wall_s"]),
        "machine": machine_facts(),
        **json.loads(lines[-1]),
    }


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_noise(names: list[str], seconds: float) -> int:
    """Two sets of runs over NOISE_SEEDS back to back: do they agree
    within the benchmark's own bounds, and do the simulated numbers
    repeat exactly?"""
    bad = 0
    print(f"machine {json.dumps(machine_facts(), sort_keys=True)}")
    for name in names:
        sets = [
            [run_child(name, seed, seconds) for seed in NOISE_SEEDS]
            for _ in range(2)
        ]
        for a, b in zip(*sets):
            same = a["sim_fingerprint"] == b["sim_fingerprint"] and all(
                a["metrics"][m] == b["metrics"][m]
                for m in END_TO_END if m.startswith("sim_")
            )
            if not (same and a["correct"] and b["correct"]):
                bad += 1
                print(f"!! {name} seed {a['seed']}: simulated numbers "
                      f"differ or run incorrect")
        for metric, spec in END_TO_END.items():
            series = [
                [result["metrics"][metric]["value"] for result in results]
                for results in sets
            ]
            medians = [statistics.median(s) for s in series]
            worse = (medians[1] - medians[0]) / medians[0]
            if spec["better"] == "higher":
                worse = -worse
            spreads = [spread(s) for s in series]
            ok = worse <= spec["bound"] and (
                metric == "setup_s" or max(spreads) <= spec["bound"]
            )
            bad += not ok
            print(f"{name:16s} {metric:22s} medians {medians[0]:12.5f} "
                  f"{medians[1]:12.5f}  spread {spreads[0]:6.2%} "
                  f"{spreads[1]:6.2%}  bound {spec['bound']:.0%}  "
                  f"{'ok' if ok else 'OUTSIDE'}")
        # what scaling host seconds to the machine's speed buys
        raw = [spread([r["raw_wall_s"] for r in results]) for results in sets]
        print(f"{name:16s} wall_s as timed, unscaled: "
              f"spread {raw[0]:6.2%} {raw[1]:6.2%}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2001,
                        help=f"input seed (held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, one repeat")
    parser.add_argument("--check-noise", action="store_true")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.check_noise:
        return check_noise(names, args.seconds)
    if len(names) > 1:
        flags = ["--trace", str(args.trace)] + ["--smoke"] * args.smoke
        records = [
            run_child(name, args.seed, args.seconds, *flags, echo=True)
            for name in names
        ]
    else:
        record = measure(
            names[0], args.seed,
            0.0 if args.smoke else args.seconds,
            bool(args.trace), args.smoke,
            1 if args.smoke else MIN_REPEATS,
        )
        print_record(record)
        records = [record]
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
