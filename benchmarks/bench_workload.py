"""BENCH-WORKLOAD — sustained request throughput of the claim-based
standing pipeline (EXP-WORKLOAD).

Drives the full workload engine — open-loop arrival generator, per-VO
fair-share admission, token-bucket rate limiter, and the standing
picker → bundler → replicator → verifier components claiming from the
``task.*`` queue on the service bus — through one million generated
requests (full mode) and records the sustained wall-clock request rate.

The scale discipline under measurement: arrivals are admitted as counts
(Poisson per VO, one multinomial over the destination x file grid per
tick), picks carry multiplicity maps, and keyed submission coalesces
duplicate transfer obligations, so a million requests cost hundreds of
queue envelopes rather than millions.  The headline metric collapses by
orders of magnitude if any of those layers degrades to per-request work.

A chaos leg re-runs the pipeline at a smaller request count under the
``component_crash`` campaign and asserts exactly-once convergence (all
tasks terminal, CRCs intact, no leaked claims), so the recorded rate is
never bought by dropping the recovery machinery.  Print the record with
``tools/perf_report.py --suite workload [--smoke] --output -``.
"""

from __future__ import annotations

from repro.experiments import workload

__all__ = ["run_bench"]

SEED = 2001
FULL_REQUESTS = 1_000_000
SMOKE_REQUESTS = 100_000
#: the chaos leg verifies recovery, not throughput: keep it small
FULL_CHAOS_REQUESTS = 100_000
SMOKE_CHAOS_REQUESTS = 20_000


def run_bench(smoke: bool = False) -> dict:
    """Run the throughput and chaos legs; raise on any non-convergence."""
    requests = SMOKE_REQUESTS if smoke else FULL_REQUESTS
    result = workload.run(requests=requests, seed=SEED)
    if not result.converged:
        raise AssertionError(
            "workload run did not converge: " + "; ".join(result.errors)
        )

    chaos_requests = SMOKE_CHAOS_REQUESTS if smoke else FULL_CHAOS_REQUESTS
    chaos = workload.run(
        requests=chaos_requests, seed=SEED, campaign="component_crash"
    )
    if not chaos.converged:
        raise AssertionError(
            "chaos leg did not converge: " + "; ".join(chaos.errors)
        )
    if chaos.component_crashes == 0:
        raise AssertionError("chaos leg injected no component crashes")

    return {
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "requests": result.requests,
        "admitted": result.admitted,
        "queue_tasks": result.tasks,
        "coalesced": result.coalesced,
        "sim_duration_s": result.duration,
        "wall_s": result.wall_seconds,
        "requests_per_s": result.requests_per_second,
        "chaos": {
            "campaign": "component_crash",
            "requests": chaos.requests,
            "faults_injected": chaos.faults_injected,
            "component_crashes": chaos.component_crashes,
            "expired_leases": chaos.expired_leases,
            "converged": chaos.converged,
        },
    }
