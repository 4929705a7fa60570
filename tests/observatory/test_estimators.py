"""Streaming estimator edge cases: the math under the weather station.

The contracts the replica selector leans on: empty history predicts
nothing (probe instead), a single sample already forecasts, evidence
decays to nothing over idle time, regressor bins snap at exact log2
boundaries, and identical sample streams produce identical estimates.
"""

import math

import pytest

from repro.observatory.estimators import (
    RING_SIZE,
    DecayedStats,
    Ewma,
    Forecast,
    PairHistory,
    ThroughputRegressor,
    TransferSample,
    bin_index,
)


def sample(t, size=32e6, throughput=4e6, ok=True):
    return TransferSample(
        time=t, size=size, duration=size / throughput,
        throughput=throughput, ok=ok,
    )


# ---------------------------------------------------------------- Ewma


def test_ewma_first_sample_is_taken_verbatim():
    ewma = Ewma(alpha=0.3)
    assert ewma.value is None
    assert ewma.update(10.0) == 10.0
    assert ewma.n == 1


def test_ewma_smooths_toward_new_samples():
    ewma = Ewma(alpha=0.5)
    ewma.update(10.0)
    assert ewma.update(20.0) == pytest.approx(15.0)
    assert ewma.update(20.0) == pytest.approx(17.5)


def test_ewma_rejects_bad_alpha():
    with pytest.raises(ValueError):
        Ewma(alpha=0.0)
    with pytest.raises(ValueError):
        Ewma(alpha=1.5)


# -------------------------------------------------------- DecayedStats


def test_decayed_stats_empty():
    stats = DecayedStats(half_life=60.0)
    assert stats.mean is None
    assert stats.weight() == 0.0
    assert stats.variance == 0.0


def test_decayed_stats_single_sample():
    stats = DecayedStats(half_life=60.0)
    stats.update(0.0, 8.0)
    assert stats.mean == pytest.approx(8.0)
    assert stats.weight(0.0) == pytest.approx(1.0)
    # population variance needs two samples
    assert stats.variance == 0.0


def test_decayed_stats_weight_halves_per_half_life():
    stats = DecayedStats(half_life=60.0)
    stats.update(0.0, 8.0)
    assert stats.weight(60.0) == pytest.approx(0.5)
    assert stats.weight(120.0) == pytest.approx(0.25)
    # asking about the past never *inflates* the evidence
    assert stats.weight(0.0) == pytest.approx(1.0)


def test_decayed_stats_recent_samples_dominate_the_mean():
    stats = DecayedStats(half_life=10.0)
    stats.update(0.0, 100.0)
    stats.update(100.0, 1.0)  # ten half-lives later
    assert stats.mean == pytest.approx(1.0, abs=0.2)


def test_decayed_stats_variance_tracks_spread():
    stats = DecayedStats(half_life=1e9)  # effectively undecayed
    for t, x in enumerate([4.0, 6.0, 4.0, 6.0]):
        stats.update(float(t), x)
    assert stats.mean == pytest.approx(5.0)
    assert stats.variance == pytest.approx(1.0)


def test_decayed_stats_rejects_bad_half_life():
    with pytest.raises(ValueError):
        DecayedStats(half_life=0.0)


# -------------------------------------------------- ThroughputRegressor


def test_regressor_bin_boundaries_snap_at_powers_of_two():
    assert bin_index(0.0, 1e6, 8) == 0
    assert bin_index(1e6, 1e6, 8) == 0           # exactly base_size
    assert bin_index(1e6 + 1, 1e6, 8) == 0       # log2(1+eps) floors to 0
    assert bin_index(2e6, 1e6, 8) == 1           # exactly one doubling
    assert bin_index(4e6 - 1, 1e6, 8) == 1
    assert bin_index(4e6, 1e6, 8) == 2
    assert bin_index(1e12, 1e6, 8) == 7          # clamped to the last bin


def test_regressor_empty_predicts_nothing():
    reg = ThroughputRegressor()
    assert reg.predict(32e6, now=0.0) is None


def test_regressor_prefers_own_bin_then_nearest():
    reg = ThroughputRegressor(bins=8, base_size=1e6)
    reg.observe(0.0, 2.5e6, 5.0)    # bin 1
    reg.observe(0.0, 40e6, 9.0)     # bin 5
    assert reg.predict(3e6, now=0.0) == pytest.approx(5.0)    # own bin
    assert reg.predict(40e6, now=0.0) == pytest.approx(9.0)
    # bin 3 is equidistant from 1 and 5: smaller wins (the safe,
    # underestimating direction)
    assert reg.predict(10e6, now=0.0) == pytest.approx(5.0)
    # bin 7 falls back to the nearest populated bin below
    assert reg.predict(1e12, now=0.0) == pytest.approx(9.0)


def test_regressor_evidence_decays_to_silence():
    reg = ThroughputRegressor(bins=4, half_life=10.0)
    reg.observe(0.0, 2e6, 5.0)
    assert reg.predict(2e6, now=0.0) == pytest.approx(5.0)
    # after many half-lives the bin's weight sinks below min_weight and
    # the regressor stops answering rather than serving fossils
    assert reg.predict(2e6, now=200.0) is None
    assert reg.bin_means(200.0) == [None] * 4


def test_regressor_rejects_bad_shape():
    with pytest.raises(ValueError):
        ThroughputRegressor(bins=0)
    with pytest.raises(ValueError):
        ThroughputRegressor(base_size=0.0)


# --------------------------------------------------------- PairHistory


def test_empty_history_forecasts_nothing():
    history = PairHistory()
    assert history.forecast(32e6, now=0.0) is None
    assert history.staleness(5.0) == math.inf
    assert history.confidence(5.0) == 0.0


def test_single_sample_already_forecasts():
    history = PairHistory()
    history.observe(sample(t=1.0, throughput=4e6))
    forecast = history.forecast(32e6, now=1.0)
    assert isinstance(forecast, Forecast)
    assert forecast.throughput == pytest.approx(4e6)
    assert forecast.samples == 1
    assert forecast.staleness == pytest.approx(0.0)
    assert 0.0 < forecast.confidence < 1.0


def test_history_decays_to_stale():
    history = PairHistory(half_life=20.0)
    history.observe(sample(t=0.0))
    fresh = history.forecast(32e6, now=0.0)
    stale = history.forecast(32e6, now=400.0)  # twenty half-lives idle
    assert stale is not None  # the EWMA fallback still answers...
    assert stale.staleness == pytest.approx(400.0)
    assert stale.confidence < 0.01 < fresh.confidence  # ...uncredibly
    assert not stale.fresh(horizon=90.0)


def test_failures_erode_confidence_but_not_throughput():
    steady = PairHistory()
    flaky = PairHistory()
    for t in range(4):
        steady.observe(sample(t=float(t)))
        flaky.observe(sample(t=float(t)))
    for t in range(4, 8):
        flaky.observe(sample(t=float(t), ok=False))
    assert flaky.failures == 4 and steady.failures == 0
    s = steady.forecast(32e6, now=8.0)
    f = flaky.forecast(32e6, now=8.0)
    assert f.throughput == pytest.approx(s.throughput)
    assert f.confidence < s.confidence


def test_ring_buffer_caps_retained_samples():
    history = PairHistory()
    for t in range(RING_SIZE + 6):
        history.observe(sample(t=float(t)))
    assert len(history.ring) == RING_SIZE == 64
    assert history.ring[0].time == 6.0        # the oldest six dropped
    assert history.samples == RING_SIZE + 6   # lifetime count keeps counting


def test_identical_streams_give_identical_estimates():
    def feed():
        history = PairHistory()
        for t in range(50):
            history.observe(sample(
                t=float(t), size=(t % 7 + 1) * 8e6,
                throughput=3e6 + (t % 5) * 1e6, ok=t % 11 != 0,
            ))
        return history

    a, b = feed(), feed()
    for size in (1e6, 8e6, 64e6, 1e9):
        assert a.forecast(size, now=50.0) == b.forecast(size, now=50.0)
    assert a.confidence(50.0) == b.confidence(50.0)
