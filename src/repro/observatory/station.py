"""The weather station: grid-wide transfer history, per pair.

:class:`WeatherStation` is the standing observation plane.  It hangs off
the network engine's transfer-retirement hook (every pool that drains or
dies reports ``(src, dst, bytes, duration, ok)``) and folds each report
into that pair's :class:`~repro.observatory.estimators.PairHistory`.
Physically this models the observatory tailing every site's GridFTP
transfer logs — the NWS-style sensor network of [VTF01].

:class:`SiteWeather` is the *site-local* soft-state view the replica
selector actually reads: a cache of per-source forecast digests pushed
by the station (see :mod:`repro.observatory.service`), consulted
synchronously during ranking.  Its staleness contract mirrors the RLS
digests: a fresh entry predicts, a stale or missing entry silently
degrades the ranking to the instantaneous probe path, and reconvergence
is just the next digest landing — no retries, no escalation.

Both classes are purely observational: they draw no random numbers and
schedule no events, so attaching the observatory changes no simulated
outcome, and identical runs yield byte-identical station fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from repro.netsim.tools import ping
from repro.netsim.topology import RouteError
from repro.observatory.estimators import (
    Forecast,
    PairHistory,
    TransferSample,
    bin_index,
    nearest_bin,
)

__all__ = ["WeatherConfig", "WeatherStation", "SiteWeather"]


@dataclass(frozen=True)
class WeatherConfig:
    """Opt-in configuration for the grid weather service."""

    #: EWMA smoothing constant for throughput and RTT
    ewma_alpha: float = 0.3
    #: half-life (sim seconds) of the decayed estimators — idle pairs
    #: lose evidence and confidence at this rate
    half_life: float = 120.0
    #: log2 size bins of the throughput regressor, from ``base_size``
    #: (a fixed shape: every digest reader bins sizes the same way)
    bins: ClassVar[int] = 8
    base_size: ClassVar[float] = 1e6
    #: a site-cached forecast older than this is not consulted at all:
    #: selection falls through to the probe ladder
    staleness_horizon: float = 90.0
    #: forecast digest push cadence per subscriber
    push_period: float = 15.0
    #: host carrying the station (defaults to the grid's catalog host)
    weather_host: Optional[str] = None

    def __post_init__(self):
        if self.push_period <= 0:
            raise ValueError("push_period must be positive")
        if self.staleness_horizon <= 0:
            raise ValueError("staleness_horizon must be positive")


class WeatherStation:
    """Turns transfer retirements into per-pair forecastable history."""

    def __init__(self, config: WeatherConfig, sim, topology=None):
        self.config = config
        self.sim = sim
        #: optional topology for control-channel RTT sightings: each
        #: observed transfer also smooths the pair's current ping (a
        #: passive read of link queues — no events, no draws)
        self.topology = topology
        self.pairs: Dict[Tuple[str, str], PairHistory] = {}
        self.stats = {"observations": 0, "failures": 0}

    def _pair(self, src: str, dst: str) -> PairHistory:
        history = self.pairs.get((src, dst))
        if history is None:
            c = self.config
            history = PairHistory(
                ewma_alpha=c.ewma_alpha,
                half_life=c.half_life, bins=c.bins, base_size=c.base_size,
            )
            self.pairs[(src, dst)] = history
        return history

    # -- feeding (the engine's transfer-retirement hook) -------------------
    def on_transfer(self, src: str, dst: str, nbytes: float,
                    started_at: Optional[float], completed_at: float,
                    ok: bool) -> None:
        duration = (
            completed_at - started_at if started_at is not None else 0.0
        )
        throughput = nbytes / duration if duration > 0 else 0.0
        history = self._pair(src, dst)
        history.observe(TransferSample(
            time=completed_at, size=nbytes, duration=duration,
            throughput=throughput, ok=ok,
        ))
        if ok:
            self.stats["observations"] += 1
            if self.topology is not None:
                try:
                    history.observe_rtt(ping(self.topology, src, dst).rtt)
                except (RouteError, KeyError):
                    pass  # partitioned mid-run; throughput still counts
        else:
            self.stats["failures"] += 1

    # -- asking ------------------------------------------------------------
    def forecast(self, src: str, dst: str, size: float) -> Optional[Forecast]:
        history = self.pairs.get((src, dst))
        if history is None:
            return None
        return history.forecast(size, self.sim.now)

    def digest_for(self, site: str, now: float) -> dict:
        """The forecast digest pushed to one subscriber: every pair
        *inbound* to the site (that is what its replica selector ranks),
        as per-bin means plus the smoothed fallbacks."""
        sources = {}
        for (src, dst) in sorted(self.pairs):
            if dst != site:
                continue
            history = self.pairs[(src, dst)]
            if history.samples == 0:
                continue
            sources[src] = {
                "bins": history.regressor.bin_means(now),
                "ewma": history.ewma.value,
                "rtt": history.rtt.value,
                "confidence": history.confidence(now),
                "samples": history.samples,
            }
        return {"site": site, "as_of": now, "sources": sources}

    def congestion(self, src: str, dst: str) -> Optional[float]:
        """How far below its own best this pair is running, in [0, 1]:
        0 = at peak, 1 = fully starved.  The health report's ranking."""
        history = self.pairs.get((src, dst))
        if history is None or history.ewma.value is None:
            return None
        peak = max((s.throughput for s in history.ring if s.ok), default=0.0)
        if peak <= 0.0:
            return None
        return max(0.0, min(1.0, 1.0 - history.ewma.value / peak))

    def fingerprint(self) -> str:
        """Canonical textual station state — the determinism anchor."""
        lines = [f"weather pairs={len(self.pairs)}"]
        for (src, dst) in sorted(self.pairs):
            h = self.pairs[(src, dst)]
            ewma = f"{h.ewma.value:.3f}" if h.ewma.value is not None else "-"
            lines.append(
                f"{src}->{dst} n={h.samples} fail={h.failures} ewma={ewma}"
            )
        return "\n".join(lines)


class SiteWeather:
    """One site's pushed-forecast cache, read synchronously by ranking."""

    def __init__(self, site: str, config: WeatherConfig, sim):
        self.site = site
        self.config = config
        self.sim = sim
        #: source site -> last applied digest entry, plus its as_of
        self._sources: Dict[str, dict] = {}
        self._as_of: Optional[float] = None
        self.stats = {
            "digests_applied": 0,
            "digests_stale": 0,
            "history_selections": 0,
            "probe_fallbacks": 0,
        }

    # -- feeding (the weather.push_digest handler) -------------------------
    def apply_digest(self, payload: dict) -> bool:
        """Apply one pushed forecast digest; False if out of order."""
        as_of = payload["as_of"]
        if self._as_of is not None and as_of <= self._as_of:
            self.stats["digests_stale"] += 1
            return False
        self._as_of = as_of
        self._sources = dict(payload["sources"])
        self.stats["digests_applied"] += 1
        return True

    # -- asking (synchronous, from inside rank_replicas) -------------------
    @property
    def as_of(self) -> Optional[float]:
        return self._as_of

    def staleness(self) -> float:
        if self._as_of is None:
            return float("inf")
        return max(0.0, self.sim.now - self._as_of)

    def predict(self, src: str, dst: str, size: float) -> Optional[Forecast]:
        """A forecast for pulling ``size`` bytes from ``src``, or None
        when the cache is cold/stale for the pair (probe instead)."""
        if dst != self.site:
            return None  # this cache only covers inbound transfers
        if self.staleness() > self.config.staleness_horizon:
            return None
        entry = self._sources.get(src)
        if entry is None:
            return None
        # the station's own rule over the digest's bins: the nearest
        # populated bin, else the smoothed fallback
        bins = entry["bins"]
        home = bin_index(size, self.config.base_size, self.config.bins)
        throughput = nearest_bin(len(bins), home, bins.__getitem__)
        if throughput is None:
            throughput = entry.get("ewma")
        if throughput is None or throughput <= 0.0:
            return None
        # the push itself ages: decay the station-side confidence by the
        # time the digest has been sitting in this cache
        age = self.staleness()
        confidence = entry["confidence"] * (
            0.5 ** (age / self.config.half_life)
        )
        return Forecast(
            throughput=throughput,
            rtt=entry.get("rtt"),
            confidence=confidence,
            samples=entry["samples"],
            staleness=age,
        )

    def note_selection(self, basis: str) -> None:
        """Ranking provenance counters (the degradation signal)."""
        if basis == "history":
            self.stats["history_selections"] += 1
        else:
            self.stats["probe_fallbacks"] += 1
