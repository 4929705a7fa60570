"""The weather plane end-to-end on a DataGrid: observe -> push ->
select on history -> black-hole -> probe fallback -> reconverge."""

import pytest

from repro.faults import FaultCampaign, FaultEvent, FaultInjector
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.observatory.station import WeatherConfig


@pytest.fixture
def grid():
    config = WeatherConfig(
        push_period=2.0, staleness_horizon=6.0, weather_host="cern",
    )
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("slac")],
        weather=config,
        seed=5,
    )
    cern = grid.site("cern")
    for i in range(4):
        grid.run(until=cern.client.produce_and_publish(f"f{i}.dat", 2 * MB))
    return grid


def _delta(grid, fn):
    before = grid.weather.selection_stats()
    fn()
    after = grid.weather.selection_stats()
    return {key: after[key] - before[key] for key in before}


def test_transfers_feed_the_station_and_digests_land(grid):
    grid.weather.start()
    grid.run(until=grid.site("anl").client.replicate("f0.dat"))
    grid.run(until=grid.sim.timeout(3 * grid.weather.config.push_period))
    station = grid.weather.station
    assert ("cern", "anl") in station.pairs
    assert station.pairs[("cern", "anl")].samples >= 1
    stats = grid.weather.selection_stats()
    assert stats["digests_applied"] > 0
    assert grid.weather.push_stats()["pushes"] > 0
    # the next pull of the same pair rides the pushed forecast
    delta = _delta(
        grid,
        lambda: grid.run(until=grid.site("anl").client.replicate("f1.dat")),
    )
    assert delta["history_selections"] == 1
    assert delta["probe_fallbacks"] == 0


def test_weather_blackhole_degrades_then_reconverges(grid):
    config = grid.weather.config
    grid.weather.start()
    grid.run(until=grid.site("anl").client.replicate("f0.dat"))
    grid.run(until=grid.sim.timeout(3 * config.push_period))

    campaign = FaultCampaign("weather-window", (
        FaultEvent(0.5, "weather_blackhole", "cern"),
        FaultEvent(12.0, "weather_restore", "cern"),
    ))
    injector = FaultInjector(grid, campaign)
    campaign_proc = injector.start()

    # deep inside the window the site caches have aged past the horizon
    grid.run(until=grid.sim.timeout(0.5 + config.staleness_horizon + 2.0))
    delta = _delta(
        grid,
        lambda: grid.run(until=grid.site("anl").client.replicate("f2.dat")),
    )
    assert delta["probe_fallbacks"] == 1
    assert delta["history_selections"] == 0

    # after the restore, the next landed push reconverges selection —
    # soft state: nothing retried, nothing replayed
    grid.run(until=campaign_proc)
    grid.run(until=grid.sim.timeout(2 * config.push_period))
    assert not injector.active_faults()
    delta = _delta(
        grid,
        lambda: grid.run(until=grid.site("anl").client.replicate("f3.dat")),
    )
    assert delta["history_selections"] == 1
    assert delta["probe_fallbacks"] == 0


def test_static_grid_has_no_weather_plane():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    assert grid.weather is None
    campaign = FaultCampaign("w", (
        FaultEvent(0.1, "weather_blackhole", "cern"),
        FaultEvent(0.2, "weather_restore", "cern"),
    ))
    injector = FaultInjector(grid, campaign)
    proc = injector.start()
    with pytest.raises(ValueError, match="no weather service"):
        grid.run(until=proc)
