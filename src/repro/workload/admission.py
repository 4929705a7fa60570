"""Admission control: token-bucket rate limiting and per-VO fair share.

The open-loop arrival stream (the "Simulation Study for T0/T1 Data
Replication" shape) can momentarily exceed what the standing pipeline
sustains; two pure-arithmetic policies sit between arrivals and the
task queue:

* :class:`TokenBucket` — a classic leaky-token limiter evaluated lazily
  against the sim clock (no processes, no events): ``refill`` happens
  arithmetically at each ``take``, so admission cost is O(1) per batch
  regardless of the configured rate.
* :class:`FairShareAdmission` — deficit round-robin across virtual
  organisations.  Each VO has a weight and a bounded backlog; each
  drain round distributes quantum proportional to weight, so a VO with
  skewed huge demand cannot starve the small ones, and a VO with no
  backlog donates its slice to the others within the same round.

Both are deterministic by construction: no randomness, dict iteration
over sorted VO names, state advanced only by explicit calls under the
sim clock.  The fairness tests pin the drain order per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TokenBucket", "FairShareAdmission", "VOQueueStats"]


class TokenBucket:
    """Token-bucket rate limiter on the sim clock, evaluated lazily.

    ``rate`` tokens accrue per sim-second up to ``capacity``; ``take(n)``
    grants min(n, available) tokens.  All state updates happen inside
    ``take``/``available`` from the supplied current time, so the bucket
    never schedules anything.
    """

    def __init__(self, rate: float, capacity: float):
        if rate <= 0 or capacity <= 0:
            raise ValueError("token bucket rate and capacity must be > 0")
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self._last = 0.0
        self.granted = 0
        self.refused = 0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(
                self.capacity, self.tokens + (now - self._last) * self.rate
            )
            self._last = now

    def available(self, now: float) -> float:
        """Tokens available at ``now`` (refills first)."""
        self._refill(now)
        return self.tokens

    def take(self, now: float, n: int = 1) -> int:
        """Grant up to ``n`` whole tokens at sim time ``now``; returns how
        many were granted (the rest are the caller's to shed or defer)."""
        self._refill(now)
        grant = min(int(n), int(self.tokens))
        if grant > 0:
            self.tokens -= grant
            self.granted += grant
        self.refused += int(n) - grant
        return grant


@dataclass
class VOQueueStats:
    """Per-VO admission accounting."""

    offered: int = 0     # requests that arrived for this VO
    admitted: int = 0    # requests released to the pipeline
    shed: int = 0        # requests dropped at the backlog cap
    backlog_peak: int = 0


#: deficit credited per unit of weight per drain round
QUANTUM = 4.0
#: per-VO backlog cap; arrivals beyond it are shed
MAX_BACKLOG = 200_000


class FairShareAdmission:
    """Deficit round-robin admission across virtual organisations.

    Arrivals are ``offer``-ed into per-VO backlogs (bounded by
    :data:`MAX_BACKLOG`; overflow is shed and counted — an open-loop
    source does not wait).  ``drain(budget)`` releases up to ``budget``
    requests using deficit round-robin: each round credits every
    backlogged VO ``QUANTUM * weight`` deficit, then releases
    floor(deficit) requests from VOs in sorted-name order.  Weighted
    shares emerge over rounds while every VO with backlog is guaranteed
    progress each round — starvation-free regardless of how skewed the
    offered load is.
    """

    def __init__(self, weights: dict[str, float]):
        if not weights:
            raise ValueError("fair-share admission needs at least one VO")
        if any(w <= 0 for w in weights.values()):
            raise ValueError("VO weights must be > 0")
        self.weights = dict(sorted(weights.items()))
        self._backlog: dict[str, int] = {vo: 0 for vo in self.weights}
        self._deficit: dict[str, float] = {vo: 0.0 for vo in self.weights}
        self.stats: dict[str, VOQueueStats] = {
            vo: VOQueueStats() for vo in self.weights
        }

    def offer(self, vo: str, n: int = 1) -> int:
        """Add ``n`` arrivals to ``vo``'s backlog; returns how many were
        accepted (the rest shed at the cap)."""
        stats = self.stats[vo]
        stats.offered += n
        room = MAX_BACKLOG - self._backlog[vo]
        accepted = min(n, max(0, room))
        self._backlog[vo] += accepted
        stats.shed += n - accepted
        stats.backlog_peak = max(stats.backlog_peak, self._backlog[vo])
        return accepted

    def backlog(self, vo: Optional[str] = None) -> int:
        """Backlog of one VO, or the total."""
        if vo is not None:
            return self._backlog[vo]
        return sum(self._backlog.values())

    def drain(self, budget: int) -> list[tuple[str, int]]:
        """Release up to ``budget`` requests, deficit round-robin.

        Returns ``[(vo, count), ...]`` in release order (sorted VO name
        within each round) — the deterministic drain order the pipeline
        submits tasks in.
        """
        released: list[tuple[str, int]] = []
        remaining = int(budget)
        while remaining > 0 and any(self._backlog.values()):
            progressed = False
            for vo in self.weights:                  # sorted at __init__
                if remaining <= 0:
                    break
                if self._backlog[vo] <= 0:
                    # an idle VO carries no deficit into the future:
                    # fair share is over *backlogged* VOs only
                    self._deficit[vo] = 0.0
                    continue
                self._deficit[vo] += QUANTUM * self.weights[vo]
                take = min(
                    int(self._deficit[vo]), self._backlog[vo], remaining
                )
                # guarantee per-round progress even for tiny weights
                if take == 0 and self._deficit[vo] > 0:
                    take = min(1, self._backlog[vo], remaining)
                if take > 0:
                    self._deficit[vo] -= take
                    self._backlog[vo] -= take
                    self.stats[vo].admitted += take
                    remaining -= take
                    progressed = True
                    if released and released[-1][0] == vo:
                        released[-1] = (vo, released[-1][1] + take)
                    else:
                        released.append((vo, take))
            if not progressed:
                break
        return released
