"""§6's three tuning conclusions, checked against the Figure 5/6 data.

T1: "proper TCP buffer size setting is the single most important factor in
    achieving good performance.  The performance obtained from 10 streams
    with untuned buffers can be achieved with just 2-3 streams if the
    tuning is proper."
T2: "2-3 tuned parallel streams will gain an additional 25% performance
    over a single tuned stream."
T3: "it is possible to get the same throughput as tuned buffers using
    untuned TCP buffers with enough parallel streams."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import figure5, figure6
from repro.experiments.common import print_table

__all__ = ["TuningClaims", "run", "report"]


@dataclass(frozen=True)
class TuningClaims:
    untuned: dict[int, float]   # streams -> Mbps, 100 MB file, 64 KiB buffers
    tuned: dict[int, float]     # streams -> Mbps, 100 MB file, 1 MiB buffers

    # T1: smallest tuned stream count matching 10 untuned streams
    @property
    def tuned_streams_matching_10_untuned(self) -> int:
        target = self.untuned[max(self.untuned)]
        for streams in sorted(self.tuned):
            if self.tuned[streams] >= 0.95 * target:
                return streams
        return max(self.tuned)

    # T2: gain of the best of 2-3 tuned streams over 1 tuned stream
    @property
    def tuned_multi_stream_gain(self) -> float:
        best = max(self.tuned[s] for s in (2, 3) if s in self.tuned)
        return best / self.tuned[1] - 1.0

    # T3: best untuned rate vs tuned peak
    @property
    def untuned_reaches_tuned(self) -> float:
        return max(self.untuned.values()) / max(self.tuned.values())


def run(seed: int = 2001) -> TuningClaims:
    """Measure the 100 MB untuned and tuned stream sweeps."""
    stream_counts = tuple(range(1, 11))
    untuned = figure5.run((100,), stream_counts, seed=seed)[100]
    tuned = figure6.run((100,), stream_counts, seed=seed)[100]
    return TuningClaims(untuned=untuned, tuned=tuned)


def report(claims: TuningClaims) -> None:
    """Print the claims table and the three verdicts."""
    rows = [
        [s, claims.untuned[s], claims.tuned[s]] for s in sorted(claims.untuned)
    ]
    print_table(
        ["streams", "untuned 64 KiB (Mbps)", "tuned 1 MiB (Mbps)"],
        rows,
        "§6 tuning claims — 100 MB file",
    )
    print(
        f"T1: {claims.tuned_streams_matching_10_untuned} tuned streams match "
        f"10 untuned streams (paper: 2-3)"
    )
    print(
        f"T2: 2-3 tuned streams gain {claims.tuned_multi_stream_gain:+.0%} "
        f"over 1 tuned stream (paper: +25%)"
    )
    print(
        f"T3: best untuned rate reaches {claims.untuned_reaches_tuned:.0%} of "
        f"the tuned peak (paper: ~100%)"
    )
    print()
