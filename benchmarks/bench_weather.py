"""BENCH-WEATHER — the grid weather service: observation-plane cost and
selection quality.

Measures both halves of the observatory's contract:

* **observation plane cost** — the streaming estimators must be cheap
  enough to tail every transfer retirement of a production grid.  Feeds
  a :class:`~repro.observatory.station.WeatherStation` a synthetic
  retirement stream (many pairs, lognormal sizes) and measures
  observations/s ingested, forecasts/s answered, digest builds/s, and
  site-cache predictions/s — all pure wall-clock legs on the real data
  structures;
* **selection quality** — EXP-WEATHER (sim) fault-free must *converge*:
  history-blended selection beats the probe-only static leg's mean
  completion time under the diurnal congestion peak, every measured
  transfer completes, and the post-peak wave still selects on history.
  The recorded ``improvement`` (static mean / smart mean) is the
  headline number, floor-gated by ``tools/perf_report.py --suite weather`` —
  the gate that keeps future selection changes honest;
* **degradation leg** — EXP-WEATHER under the ``weather_blackhole``
  campaign must converge too: the black-holed weather plane forces
  probe fallbacks, stays within the bounded-degradation factor of the
  static leg, and reconverges onto history after the restore — so the
  recorded improvement is never bought by a selection policy that
  falls over when its telemetry does.

Print the record with ``tools/perf_report.py --suite weather [--smoke]
--output -``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import weather as weather_experiment
from repro.observatory.station import SiteWeather, WeatherConfig, WeatherStation

__all__ = ["run_bench"]

SEED = 2001
#: synthetic observation-plane population
FULL_PAIRS = 90          # ~a 10-site grid's ordered pairs
SMOKE_PAIRS = 20
FULL_OBSERVATIONS = 400_000
SMOKE_OBSERVATIONS = 40_000
FULL_QUERIES = 200_000
SMOKE_QUERIES = 20_000
#: EXP-WEATHER legs (sim) — same shape in both modes; the experiment is
#: already smoke-sized (7 sites, 16 measured transfers per leg)
EXP_FILES = 4


class _Clock:
    """Minimal stand-in for the simulator: the station only reads .now."""

    def __init__(self):
        self.now = 0.0


def _synth_observations(rng, pairs: int, count: int):
    """A deterministic synthetic retirement stream: (pair_idx, size,
    duration, ok) tuples with lognormal sizes and plausible rates."""
    pair_idx = rng.integers(0, pairs, size=count)
    sizes = rng.lognormal(mean=17.0, sigma=1.5, size=count)  # ~25 MB median
    rates = rng.lognormal(mean=16.0, sigma=0.7, size=count)  # ~9 MB/s median
    ok = rng.random(size=count) > 0.02
    return pair_idx, sizes, sizes / rates, ok


def run_bench(smoke: bool = False) -> dict:
    """Measure the observation plane and both experiment legs."""
    pairs = SMOKE_PAIRS if smoke else FULL_PAIRS
    observations = SMOKE_OBSERVATIONS if smoke else FULL_OBSERVATIONS
    queries = SMOKE_QUERIES if smoke else FULL_QUERIES
    rng = np.random.default_rng(SEED)

    n_sites = 2
    while n_sites * (n_sites - 1) < pairs:
        n_sites += 1
    sites = [f"site{i:02d}" for i in range(n_sites)]
    pair_names = [
        (a, b) for a in sites for b in sites if a != b
    ][:pairs]

    # ---- ingest leg: fold a retirement stream into pair histories ----
    clock = _Clock()
    config = WeatherConfig()
    station = WeatherStation(config, clock, topology=None)
    pair_idx, sizes, durations, ok = _synth_observations(
        rng, pairs, observations
    )
    started = time.perf_counter()
    for n in range(observations):
        t = n * 0.01
        src, dst = pair_names[int(pair_idx[n])]
        station.on_transfer(
            src, dst, float(sizes[n]),
            started_at=t, completed_at=t + float(durations[n]),
            ok=bool(ok[n]),
        )
    ingest_s = time.perf_counter() - started
    observations_per_s = observations / ingest_s
    clock.now = observations * 0.01

    # ---- forecast leg: station-side queries over the hot histories --
    q_pairs = rng.integers(0, pairs, size=queries)
    q_sizes = rng.lognormal(mean=17.0, sigma=1.5, size=queries)
    started = time.perf_counter()
    answered = 0
    for n in range(queries):
        src, dst = pair_names[int(q_pairs[n])]
        if station.forecast(src, dst, float(q_sizes[n])) is not None:
            answered += 1
    forecasts_per_s = queries / (time.perf_counter() - started)

    # ---- digest leg: build every subscriber's digest, then measure the
    #      site-cache prediction rate (the synchronous ranking path)
    started = time.perf_counter()
    digests = {
        site: station.digest_for(site, clock.now) for site in sites
    }
    digest_build_s = time.perf_counter() - started
    digests_per_s = len(sites) / digest_build_s

    dst0 = max(
        sites, key=lambda s: len(digests[s]["sources"])
    )
    cache = SiteWeather(dst0, config, clock)
    assert cache.apply_digest(digests[dst0])
    cache_sources = sorted(digests[dst0]["sources"])
    started = time.perf_counter()
    predicted = 0
    for n in range(queries):
        src = cache_sources[int(q_pairs[n]) % len(cache_sources)]
        if cache.predict(src, dst0, float(q_sizes[n])) is not None:
            predicted += 1
    predictions_per_s = queries / (time.perf_counter() - started)

    # ---- selection-quality leg: EXP-WEATHER fault-free ---------------
    clean = weather_experiment.run(files=EXP_FILES, seed=SEED)
    if not clean.converged:
        raise AssertionError(
            "fault-free leg did not converge: " + "; ".join(clean.errors)
        )

    # ---- degradation leg: the weather plane black-holed --------------
    chaos = weather_experiment.run(
        files=EXP_FILES, seed=SEED, campaign="weather_blackhole"
    )
    if not chaos.converged:
        raise AssertionError(
            "weather_blackhole leg did not converge: "
            + "; ".join(chaos.errors)
        )
    if chaos.faults_injected == 0:
        raise AssertionError("weather_blackhole leg injected no faults")
    if chaos.probe_fallbacks == 0:
        raise AssertionError(
            "black-holed weather plane never forced a probe fallback"
        )

    return {
        "mode": "smoke" if smoke else "full",
        "seed": SEED,
        "station": {
            "pairs": pairs,
            "observations": observations,
            "ingest_s": ingest_s,
            "observations_per_s": observations_per_s,
            "forecasts_per_s": forecasts_per_s,
            "forecasts_answered": answered,
            "digests_per_s": digests_per_s,
            "predictions_per_s": predictions_per_s,
            "predictions_answered": predicted,
        },
        "selection": {
            "measured_transfers": clean.measured,
            "smart_mean_s": clean.smart_mean,
            "static_mean_s": clean.static_mean,
            "improvement": clean.improvement,
            "history_selections": clean.history_selections,
            "probe_fallbacks": clean.probe_fallbacks,
            "digests_applied": clean.digests_applied,
            "pushes": clean.pushes,
            "converged": clean.converged,
        },
        "chaos": {
            "campaign": "weather_blackhole",
            "faults_injected": chaos.faults_injected,
            "improvement": chaos.improvement,
            "probe_fallbacks": chaos.probe_fallbacks,
            "history_selections": chaos.history_selections,
            "post_history": chaos.post_history,
            "converged": chaos.converged,
        },
    }
