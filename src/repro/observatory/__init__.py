"""repro.observatory — the grid weather service.

A standing observation plane over the flow engine: every retired
transfer becomes per-(source, destination) history (ring buffers +
streaming estimators), forecast digests are pushed to sites RLS-style,
and the rewritten replica selector blends predicted transfer time with
confidence — falling back to instantaneous probes when history is
missing or stale.  Plus the tiered-topology traffic scenarios that make
the difference measurable (EXP-WEATHER).
"""

from .estimators import (
    DecayedStats,
    Ewma,
    Forecast,
    PairHistory,
    ThroughputRegressor,
    TransferSample,
)
from .scenarios import (
    ScenarioDriver,
    ScenarioScript,
    TrafficEvent,
    diurnal_scenario,
)
from .service import WeatherRuntime, WeatherSubscriber, forecast_wire_size
from .station import SiteWeather, WeatherConfig, WeatherStation

__all__ = [
    "Ewma",
    "DecayedStats",
    "ThroughputRegressor",
    "TransferSample",
    "Forecast",
    "PairHistory",
    "WeatherConfig",
    "WeatherStation",
    "SiteWeather",
    "WeatherSubscriber",
    "WeatherRuntime",
    "forecast_wire_size",
    "TrafficEvent",
    "ScenarioScript",
    "diurnal_scenario",
    "ScenarioDriver",
]
