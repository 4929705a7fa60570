"""Streaming transfer estimators: the math under the grid weather service.

"Replica Selection in the Globus Data Grid" (Vazhkudai, Tuecke, Foster)
predicts a pair's transfer throughput from its *history* rather than an
instantaneous probe, because probes see the pipe, not the competition:
``pipechar`` reports capacity minus constant cross-traffic, but the
bandwidth a new TCP transfer actually achieves is set by the elastic
flows already sharing the bottleneck.  History sees exactly that.

Everything here is a pure streaming computation over observed samples —
no ring scans on the query path, no random numbers, no scheduled events
— so the observatory can ride along any simulation without perturbing
it, and two identical sample streams always produce byte-identical
estimates.

* :class:`Ewma` — constant-alpha exponentially weighted moving average;
* :class:`DecayedStats` — time-decayed mean/variance with a half-life,
  so idle pairs "forget" (their weight decays toward zero);
* :class:`ThroughputRegressor` — the Vazhkudai refinement: throughput
  binned by log2(file size), because small transfers never leave TCP
  slow start and report much lower rates than bulk ones;
* :class:`PairHistory` — one (source, destination) pair's ring buffer
  plus all of the above, answering :meth:`PairHistory.forecast`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "bin_index",
    "nearest_bin",
    "Ewma",
    "DecayedStats",
    "ThroughputRegressor",
    "TransferSample",
    "Forecast",
    "PairHistory",
]


#: retired transfers a pair keeps verbatim (the health report's peak)
RING_SIZE = 64


def bin_index(size: float, base_size: float, bins: int) -> int:
    """The size bin of ``size``: ``floor(log2(size / base_size))``,
    clamped to ``[0, bins)`` — the one rule the regressor and every
    digest reader bin by."""
    if size <= base_size:
        return 0
    return min(bins - 1, int(math.log2(size / base_size)))


def nearest_bin(bins: int, home: int, value_at) -> Optional[float]:
    """The first ``value_at(idx)`` that is not None, walking out from bin
    ``home``: its own bin, then the nearest populated one (smaller sizes
    first on ties, since underestimating throughput is the safe
    direction); None when every bin is empty."""
    for distance in range(bins):
        for idx in (home - distance, home + distance):
            if 0 <= idx < bins:
                value = value_at(idx)
                if value is not None:
                    return value
    return None


class Ewma:
    """Exponentially weighted moving average with constant ``alpha``."""

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: Optional[float] = None
        self.n = 0

    def update(self, x: float) -> float:
        self.n += 1
        if self.value is None:
            self.value = float(x)
        else:
            self.value += self.alpha * (float(x) - self.value)
        return self.value


class DecayedStats:
    """Time-decayed weighted mean and variance.

    Every observation carries weight 1 at its own time and half that
    weight one ``half_life`` later — the continuous analogue of "recent
    transfers matter more".  The decayed total weight doubles as the
    *evidence* behind the estimate: it is what confidence scoring reads.
    """

    def __init__(self, half_life: float = 120.0):
        if half_life <= 0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        self.half_life = half_life
        self._weight = 0.0
        self._mean = 0.0
        self._m2 = 0.0          # decayed sum of squared deviations
        self._as_of: Optional[float] = None

    def _decay_to(self, t: float) -> float:
        """Decay factor from the last update time to ``t`` (>= as_of)."""
        if self._as_of is None:
            return 1.0
        dt = t - self._as_of
        if dt <= 0:
            return 1.0
        return 0.5 ** (dt / self.half_life)

    def update(self, t: float, x: float) -> None:
        decay = self._decay_to(t)
        self._weight *= decay
        self._m2 *= decay
        self._as_of = t if self._as_of is None else max(self._as_of, t)
        # standard weighted Welford step with the new sample at weight 1
        self._weight += 1.0
        delta = float(x) - self._mean
        self._mean += delta / self._weight
        self._m2 += delta * (float(x) - self._mean)

    def weight(self, t: Optional[float] = None) -> float:
        """Decayed evidence behind the estimate at time ``t``."""
        if self._as_of is None:
            return 0.0
        return self._weight * (
            self._decay_to(t) if t is not None else 1.0
        )

    @property
    def mean(self) -> Optional[float]:
        return self._mean if self._as_of is not None else None

    @property
    def variance(self) -> float:
        """Decayed population variance (0 until two samples exist)."""
        if self._as_of is None or self._weight <= 1.0:
            return 0.0
        return max(0.0, self._m2 / self._weight)


class ThroughputRegressor:
    """Log-size-binned throughput predictor (Vazhkudai et al. §4).

    Observed throughputs land in bins by :func:`bin_index` — one decayed
    estimator per bin.  Prediction for a size is :func:`nearest_bin`
    over the bins that still have evidence, else nothing.
    """

    #: decayed evidence below which a bin is silent rather than serving
    #: a fossil
    MIN_WEIGHT = 0.5

    def __init__(self, bins: int = 8, base_size: float = 1e6,
                 half_life: float = 120.0):
        if bins < 1:
            raise ValueError(f"need at least one bin, got {bins}")
        if base_size <= 0:
            raise ValueError(f"base_size must be positive, got {base_size}")
        self.bins = bins
        self.base_size = base_size
        self._stats = [DecayedStats(half_life) for _ in range(bins)]

    def observe(self, t: float, size: float, throughput: float) -> None:
        home = bin_index(size, self.base_size, self.bins)
        self._stats[home].update(t, throughput)

    def _mean_at(self, idx: int, now: float) -> Optional[float]:
        """Bin ``idx``'s decayed mean, None where evidence decayed away."""
        stats = self._stats[idx]
        return stats.mean if stats.weight(now) >= self.MIN_WEIGHT else None

    def predict(self, size: float, now: float) -> Optional[float]:
        home = bin_index(size, self.base_size, self.bins)
        return nearest_bin(
            self.bins, home, lambda idx: self._mean_at(idx, now)
        )

    def bin_means(self, now: float) -> list[Optional[float]]:
        """Per-bin decayed means (None where evidence decayed away) —
        the payload a forecast digest carries."""
        return [self._mean_at(idx, now) for idx in range(self.bins)]


@dataclass(frozen=True)
class TransferSample:
    """One retired transfer as the observatory saw it."""

    time: float          # sim-time the transfer finished (or died)
    size: float          # bytes the transfer set out to move
    duration: float      # seconds start -> retirement
    throughput: float    # achieved bytes/s (delivered over duration)
    ok: bool             # False: aborted (fault, cancel) before draining


@dataclass(frozen=True)
class Forecast:
    """A pair's predicted transfer behaviour, with its provenance.

    ``confidence`` in [0, 1] folds together evidence (how many recent
    samples), freshness (how stale the newest one is) and stability
    (how noisy the pair has been); 0 means "you know nothing, probe".
    """

    throughput: float    # predicted achieved bytes/s for the asked size
    rtt: Optional[float]  # smoothed control-channel RTT (None: never seen)
    confidence: float
    samples: int         # lifetime samples behind the estimate
    staleness: float     # seconds since the newest sample (inf: none)

    def fresh(self, horizon: float) -> bool:
        return self.staleness <= horizon


class PairHistory:
    """Everything the observatory knows about one (src, dst) pair."""

    def __init__(self, ewma_alpha: float = 0.3, half_life: float = 120.0,
                 bins: int = 8, base_size: float = 1e6):
        #: the last :data:`RING_SIZE` samples
        self.ring: deque[TransferSample] = deque(maxlen=RING_SIZE)
        self.ewma = Ewma(ewma_alpha)
        self.stats = DecayedStats(half_life)
        self.regressor = ThroughputRegressor(
            bins=bins, base_size=base_size, half_life=half_life
        )
        self.rtt = Ewma(ewma_alpha)
        self.half_life = half_life
        self.samples = 0
        self.failures = 0
        self.last_sample_at: Optional[float] = None
        self._failure_decay = DecayedStats(half_life)

    # -- feeding -----------------------------------------------------------
    def observe(self, sample: TransferSample) -> None:
        self.ring.append(sample)
        self.last_sample_at = sample.time
        if not sample.ok:
            # an aborted transfer teaches nothing about throughput but
            # plenty about trust: it weighs on confidence until it decays
            self.failures += 1
            self._failure_decay.update(sample.time, 1.0)
            return
        self.samples += 1
        self.ewma.update(sample.throughput)
        self.stats.update(sample.time, sample.throughput)
        self.regressor.observe(sample.time, sample.size, sample.throughput)

    def observe_rtt(self, rtt: float) -> None:
        self.rtt.update(rtt)

    # -- asking ------------------------------------------------------------
    def staleness(self, now: float) -> float:
        if self.last_sample_at is None:
            return float("inf")
        return max(0.0, now - self.last_sample_at)

    def confidence(self, now: float) -> float:
        """Evidence x freshness x stability, each in [0, 1]."""
        weight = self.stats.weight(now)
        if weight <= 0.0:
            return 0.0
        evidence = weight / (weight + 2.0)
        staleness = self.staleness(now)
        freshness = 0.5 ** (staleness / self.half_life)
        mean = self.stats.mean or 0.0
        if mean <= 0.0:
            return 0.0
        stability = mean * mean / (mean * mean + self.stats.variance)
        fail_weight = self._failure_decay.weight(now)
        trust = 1.0 / (1.0 + fail_weight)
        return evidence * freshness * stability * trust

    def forecast(self, size: float, now: float) -> Optional[Forecast]:
        """Predicted throughput for ``size`` bytes, or None without data."""
        predicted = self.regressor.predict(size, now)
        if predicted is None:
            predicted = self.ewma.value
        if predicted is None or predicted <= 0.0:
            return None
        return Forecast(
            throughput=predicted,
            rtt=self.rtt.value,
            confidence=self.confidence(now),
            samples=self.samples,
            staleness=self.staleness(now),
        )
