"""Weather station + site cache: observation, digests, staleness."""

import pytest

from repro.observatory.estimators import bin_index
from repro.observatory.service import forecast_wire_size
from repro.observatory.station import (
    SiteWeather,
    WeatherConfig,
    WeatherStation,
)


class Clock:
    def __init__(self, now=0.0):
        self.now = now


@pytest.fixture
def station():
    return WeatherStation(WeatherConfig(), Clock(), topology=None)


def feed(station, src, dst, *, t=10.0, size=32e6, rate=4e6, ok=True):
    station.on_transfer(
        src, dst, size, started_at=t - size / rate, completed_at=t, ok=ok,
    )


# ------------------------------------------------------- WeatherStation


def test_station_accumulates_per_pair_history(station):
    feed(station, "a", "b")
    feed(station, "a", "b", t=20.0)
    feed(station, "b", "a", t=30.0)
    assert set(station.pairs) == {("a", "b"), ("b", "a")}
    assert station.pairs[("a", "b")].samples == 2
    assert station.stats == {"observations": 3, "failures": 0}


def test_station_counts_failures_separately(station):
    feed(station, "a", "b", ok=False)
    assert station.stats == {"observations": 0, "failures": 1}
    assert station.pairs[("a", "b")].samples == 0
    assert station.forecast("a", "b", 32e6) is None


def test_station_forecast_unknown_pair(station):
    assert station.forecast("x", "y", 1e6) is None


def test_station_throughput_reflects_achieved_rate(station):
    feed(station, "a", "b", rate=4e6)
    station.sim.now = 10.0
    forecast = station.forecast("a", "b", 32e6)
    assert forecast.throughput == pytest.approx(4e6)


def test_digest_covers_inbound_pairs_only(station):
    feed(station, "a", "b")
    feed(station, "c", "b", t=12.0)
    feed(station, "b", "a", t=14.0)
    feed(station, "d", "b", ok=False)  # failures only: nothing to predict
    digest = station.digest_for("b", now=20.0)
    assert digest["site"] == "b"
    assert digest["as_of"] == 20.0
    assert set(digest["sources"]) == {"a", "c"}
    entry = digest["sources"]["a"]
    assert len(entry["bins"]) == station.config.bins
    assert entry["samples"] == 1
    assert forecast_wire_size(digest) > forecast_wire_size(
        {"sources": {}}
    )


def test_congestion_ranks_below_own_peak(station):
    feed(station, "a", "b", t=10.0, rate=8e6)
    assert station.congestion("a", "b") == pytest.approx(0.0, abs=1e-6)
    for t in range(11, 18):
        feed(station, "a", "b", t=float(t), rate=1e6)
    congestion = station.congestion("a", "b")
    assert 0.5 < congestion < 1.0
    assert station.congestion("no", "pair") is None


def test_station_fingerprint_is_deterministic(station):
    other = WeatherStation(WeatherConfig(), Clock(), topology=None)
    for s in (station, other):
        feed(s, "a", "b")
        feed(s, "c", "b", t=12.0, ok=False)
    assert station.fingerprint() == other.fingerprint()
    assert "a->b" in station.fingerprint()


# ---------------------------------------------------------- SiteWeather


def make_digest(site, sources, as_of, bins=8):
    return {
        "site": site,
        "as_of": as_of,
        "sources": {
            src: {
                "bins": [rate] * bins,
                "ewma": rate,
                "rtt": 0.02,
                "confidence": 0.8,
                "samples": 4,
            }
            for src, rate in sources.items()
        },
    }


def test_site_cache_rejects_out_of_order_digests():
    cache = SiteWeather("b", WeatherConfig(), Clock(now=10.0))
    assert cache.apply_digest(make_digest("b", {"a": 4e6}, as_of=10.0))
    assert not cache.apply_digest(make_digest("b", {"a": 9e6}, as_of=5.0))
    assert cache.stats["digests_applied"] == 1
    assert cache.stats["digests_stale"] == 1
    # the stale push did not clobber the newer state
    assert cache.predict("a", "b", 1e6).throughput == pytest.approx(4e6)


def test_site_cache_only_answers_for_its_own_site():
    cache = SiteWeather("b", WeatherConfig(), Clock(now=0.0))
    cache.apply_digest(make_digest("b", {"a": 4e6}, as_of=0.0))
    assert cache.predict("a", "c", 1e6) is None
    assert cache.predict("zz", "b", 1e6) is None


def test_site_cache_goes_silent_past_the_staleness_horizon():
    clock = Clock(now=0.0)
    config = WeatherConfig(staleness_horizon=30.0)
    cache = SiteWeather("b", config, clock)
    cache.apply_digest(make_digest("b", {"a": 4e6}, as_of=0.0))
    clock.now = 29.0
    assert cache.predict("a", "b", 1e6) is not None
    clock.now = 31.0
    assert cache.predict("a", "b", 1e6) is None
    assert cache.staleness() == pytest.approx(31.0)


def test_cache_age_decays_the_pushed_confidence():
    clock = Clock(now=0.0)
    config = WeatherConfig(half_life=60.0, staleness_horizon=1e9)
    cache = SiteWeather("b", config, clock)
    cache.apply_digest(make_digest("b", {"a": 4e6}, as_of=0.0))
    fresh = cache.predict("a", "b", 1e6).confidence
    clock.now = 60.0
    aged = cache.predict("a", "b", 1e6).confidence
    assert aged == pytest.approx(fresh * 0.5)


def test_cache_bin_fallback_reaches_the_ewma():
    clock = Clock(now=0.0)
    cache = SiteWeather("b", WeatherConfig(), clock)
    payload = make_digest("b", {"a": 4e6}, as_of=0.0)
    payload["sources"]["a"]["bins"] = [None] * 8  # all evidence decayed
    payload["sources"]["a"]["ewma"] = 2.5e6
    cache.apply_digest(payload)
    assert cache.predict("a", "b", 1e6).throughput == pytest.approx(2.5e6)


def test_site_cache_predicts_what_the_station_forecasts(station):
    """At the moment a digest is built, the site cache and the station
    answer the same throughput: for a size in every bin, for a bin whose
    weight has decayed away, and where only the EWMA is left."""
    config = station.config
    feed(station, "a", "b", t=0.0, size=64e6, rate=9e6)       # bin 6
    feed(station, "c", "b", t=0.0, size=4e6, rate=2e6)        # c: old only
    for size, rate in ((1.5e6, 1e6), (12e6, 3e6), (40e6, 6e6), (200e6, 7e6)):
        feed(station, "a", "b", t=1000.0, size=size, rate=rate)
    station.sim.now = 1000.0
    digest = station.digest_for("b", station.sim.now)
    a_bins = digest["sources"]["a"]["bins"]
    assert a_bins[6] is None and a_bins[5] is not None   # decayed away
    assert digest["sources"]["c"]["bins"] == [None] * config.bins
    cache = SiteWeather("b", config, station.sim)
    assert cache.apply_digest(digest)
    sizes = [0.5e6] + [config.base_size * 1.5 * 2 ** k
                       for k in range(config.bins)] + [1e12]
    assert {bin_index(size, config.base_size, config.bins)
            for size in sizes} == set(range(config.bins))
    for src in ("a", "c"):
        for size in sizes:
            expected = station.forecast(src, "b", size).throughput
            assert cache.predict(src, "b", size).throughput == expected
    # c's answer is its EWMA: no bin has evidence left
    assert cache.predict("c", "b", 4e6).throughput == pytest.approx(2e6)


def test_empty_cache_counts_fallbacks():
    cache = SiteWeather("b", WeatherConfig(), Clock())
    assert cache.predict("a", "b", 1e6) is None
    cache.note_selection("probe")
    cache.note_selection("history")
    assert cache.stats["probe_fallbacks"] == 1
    assert cache.stats["history_selections"] == 1
