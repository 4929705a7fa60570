"""BENCH-CHUNKS — erasure-coded chunk stack: coder cost and repair
economics.

Measures both halves of the chunk stack's durability claim:

* **coder cost** — the pure-python GF(256) Reed–Solomon coder must be
  cheap enough for the simulator's witness-sized shards and honest
  enough to report its real throughput on bulk bytes.  Encodes and
  decodes real stripes (k=4, m=2) and reports MB/s three ways: parity
  encode, worst-case decode (all parity in play), and single-member
  reconstruct (the repair path);
* **repair economics** — EXP-CHUNKS (sim) under both fault campaigns
  must *converge*: every injected damage is detected by a CKSM scrub,
  every repaired object fetches byte-identically, the claim queue
  drains clean, and — the headline — chunked repair moves fewer bytes
  than whole-file re-replication.  The recorded ``repair_savings`` on
  the ``site_wipe`` leg ((k+L)/k object-sizes vs L whole objects) is
  floor-gated by ``tools/perf_report.py --suite chunks``.

Print the record with ``tools/perf_report.py --suite chunks [--smoke]
--output -``.
"""

from __future__ import annotations

import time

from repro.chunks.gf256 import ReedSolomon
from repro.experiments import chunks as chunks_experiment

__all__ = ["run_bench"]

SEED = 2001
K, M = 4, 2
FULL_SHARD = 1 << 18      # 256 KiB per shard, 1 MiB of data per stripe
SMOKE_SHARD = 1 << 15
FULL_STRIPES = 24
SMOKE_STRIPES = 6
#: EXP-CHUNKS legs (sim) — the experiment is already smoke-sized
EXP_OBJECTS = 4


def _stripes(count: int, width: int) -> list[list[bytes]]:
    """Deterministic non-trivial shard bytes (no RNG: a fixed byte ramp
    keyed by stripe and shard index)."""
    return [
        [
            bytes((s * 31 + d * 7 + b) & 0xFF for b in range(width))
            for d in range(K)
        ]
        for s in range(count)
    ]


def run_bench(smoke: bool = False) -> dict:
    """Measure the coder and both experiment legs."""
    width = SMOKE_SHARD if smoke else FULL_SHARD
    count = SMOKE_STRIPES if smoke else FULL_STRIPES
    rs = ReedSolomon(K, M)
    data = _stripes(count, width)
    stripe_mb = K * width / 1e6

    # ---- encode leg: parity for every stripe -------------------------
    started = time.perf_counter()
    encoded = [rs.encode_stripe(shards) for shards in data]
    encode_s = time.perf_counter() - started
    encode_mb_s = count * stripe_mb / encode_s

    # ---- decode leg: worst case, all m data losses -------------------
    # losing the first m data shards forces every surviving row through
    # the inverted submatrix (no systematic passthrough anywhere)
    started = time.perf_counter()
    for shards, stripe in zip(data, encoded):
        available = {i: stripe[i] for i in range(M, K + M)}
        assert rs.decode(available) == shards
    decode_s = time.perf_counter() - started
    decode_mb_s = count * stripe_mb / decode_s

    # ---- reconstruct leg: the repair path, one lost member -----------
    started = time.perf_counter()
    for shards, stripe in zip(data, encoded):
        available = {i: stripe[i] for i in range(1, K + M)}
        rebuilt = rs.reconstruct(available, [0])
        assert rebuilt[0] == shards[0]
    reconstruct_s = time.perf_counter() - started
    reconstruct_mb_s = count * stripe_mb / reconstruct_s

    # ---- chunk_corrupt leg: silent bit rot, scrub-detected -----------
    rot = chunks_experiment.run(
        objects=EXP_OBJECTS, seed=SEED, campaign="chunk_corrupt"
    )
    if not rot.converged:
        raise AssertionError(
            "chunk_corrupt leg did not converge: " + "; ".join(rot.errors)
        )
    if rot.faults_injected == 0:
        raise AssertionError("chunk_corrupt leg injected no faults")

    # ---- site_wipe leg: the headline durability claim ----------------
    wipe = chunks_experiment.run(
        objects=EXP_OBJECTS, seed=SEED, campaign="site_wipe"
    )
    if not wipe.converged:
        raise AssertionError(
            "site_wipe leg did not converge: " + "; ".join(wipe.errors)
        )
    if wipe.repair_savings <= 1.0:
        raise AssertionError(
            "chunked repair moved more bytes than whole-file replication"
        )

    return {
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "coder": {
            "k": K,
            "m": M,
            "shard_bytes": width,
            "stripes": count,
            "encode_mb_s": encode_mb_s,
            "decode_mb_s": decode_mb_s,
            "reconstruct_mb_s": reconstruct_mb_s,
        },
        "chunk_corrupt": {
            "campaign": "chunk_corrupt",
            "faults_injected": rot.faults_injected,
            "chunks_repaired": rot.chunks_repaired,
            "scrub_passes": rot.scrub_passes,
            "repair_savings": rot.repair_savings,
            "dedup_chunks": rot.chunks_deduped,
            "converged": rot.converged,
        },
        "site_wipe": {
            "campaign": "site_wipe",
            "faults_injected": wipe.faults_injected,
            "chunks_repaired": wipe.chunks_repaired,
            "repair_bytes": wipe.repair_bytes,
            "whole_file_bytes": wipe.whole_file_bytes,
            "repair_savings": wipe.repair_savings,
            "converged": wipe.converged,
        },
    }
