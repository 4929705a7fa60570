"""The grid weather plane on the bus: forecasts are pushed, never pulled.

The :class:`~repro.observatory.station.WeatherStation` lives in memory on
the weather host; what crosses the bus is one operation,
``weather.push_digest``, registered on every *subscriber* site's existing
GDMP request server (the endpoint pattern every other control plane here
uses).  The station's pushers deliver each site's inbound forecast digest
there, and replica selection reads the pushed site cache synchronously —
nothing asks the station a question over the wire.

Because ``weather.push_digest`` shares the GDMP service endpoint, fault
campaigns can black-hole the whole weather plane with the prefix
``weather.`` (the ``weather_blackhole`` fault kind) without touching
co-hosted ``catalog.*``/``task.*``/``rli.*`` traffic — pushes are then
lost, site caches age past the staleness horizon, and replica selection
silently degrades to the probe ladder until the restore reconverges it.

:class:`WeatherRuntime` is the plane a grid builds from a
:class:`~repro.observatory.station.WeatherConfig`: station, one
subscriber + forecast cache per site, and one
:class:`~repro.services.softstate.SoftStatePusher` per subscriber.  Each
forecast digest is a full snapshot, so a lost push needs no replaying —
the subscriber just ages toward its staleness horizon until one lands.
"""

from __future__ import annotations

from typing import Dict

from ..gdmp.request_manager import RequestServer
from ..services.bus import ServiceRequest
from ..services.softstate import PushNames, PushPlane, SoftStatePusher
from ..telemetry.metrics import NO_METRICS, MetricsRegistry, Section
from ..telemetry.report import fmt, table
from .station import SiteWeather, WeatherConfig, WeatherStation

__all__ = [
    "WeatherSubscriber",
    "WeatherRuntime",
    "WEATHER_SECTION",
    "forecast_wire_size",
]

#: modelled wire cost of one per-source forecast entry (bins + scalars)
_ENTRY_WIRE_BYTES = 96
_DIGEST_HEADER_BYTES = 64

_PUSH_NAMES = PushNames(
    process="weather-pusher",
    shutdown="weather-shutdown",
    pushes="weather.pushes",
    label="outcome",
    bytes="weather.push_bytes",
)


#: the per-pair gauge families the grid-weather table joins on (src, dst)
_PAIR_PREFIX = "weather.pair."


def forecast_wire_size(payload: dict) -> int:
    """Modelled wire size of a forecast digest, in bytes."""
    return _DIGEST_HEADER_BYTES + _ENTRY_WIRE_BYTES * len(payload["sources"])


def _pair_rows(registry: MetricsRegistry) -> dict:
    """(src, dst) -> {metric suffix: value} from the weather.pair gauges."""
    pairs: dict[tuple[str, str], dict] = {}
    for name in registry.families():
        if not name.startswith(_PAIR_PREFIX):
            continue
        suffix = name[len(_PAIR_PREFIX):]
        for child in registry.children(name):
            labels = dict(child.labels)
            key = (labels.get("src", "-"), labels.get("dst", "-"))
            pairs.setdefault(key, {})[suffix] = child.value
    return pairs


def _weather_section(registry: MetricsRegistry, top_n: int) -> list[str]:
    """The grid-weather table — one row per observed (source,
    destination) pair: predicted throughput, samples, failures,
    staleness, confidence, congestion — plus the top-N most-congested
    pairs, the paths an operator should reroute around."""
    pairs = _pair_rows(registry)
    if not pairs:
        return []
    lines = ["", "-- grid weather --"]

    def row(key, values) -> tuple:
        throughput = values.get("throughput")
        return (
            f"{key[0]}->{key[1]}",
            f"{throughput / 1e6:.2f}" if throughput is not None else "-",
            fmt(values.get("samples", 0)),
            fmt(values.get("failures", 0)),
            f"{values.get('staleness_seconds', 0.0):.1f}",
            f"{values.get('confidence', 0.0):.2f}",
            (f"{values['congestion']:.2f}"
             if "congestion" in values else "-"),
        )

    lines.extend(
        table(
            ("pair", "pred MB/s", "samples", "failures", "stale (s)",
             "confidence", "congestion"),
            [row(key, pairs[key]) for key in sorted(pairs)],
        )
    )
    congested = sorted(
        (
            (values["congestion"], key)
            for key, values in pairs.items()
            if values.get("congestion", 0.0) > 0.0
        ),
        key=lambda item: (-item[0], item[1]),
    )[:top_n]
    if congested:
        lines.append("")
        lines.append(
            f"-- top {len(congested)} congested pairs (1 = starved) --"
        )
        lines.extend(
            table(
                ("congestion", "pair"),
                [
                    (f"{congestion:.2f}", f"{key[0]}->{key[1]}")
                    for congestion, key in congested
                ],
            )
        )
    return lines


#: the weather plane's part of the health report
WEATHER_SECTION = Section((_PAIR_PREFIX,), _weather_section)


class WeatherSubscriber:
    """One site's ``weather.push_digest`` receiver feeding its cache."""

    def __init__(
        self,
        server: RequestServer,
        site_weather: SiteWeather,
        metrics: MetricsRegistry = NO_METRICS,
    ) -> None:
        self.server = server
        self.site_weather = site_weather
        self.metrics = metrics
        server.register("weather.push_digest", self._op_push_digest)

    def _op_push_digest(self, request: ServiceRequest):
        applied = self.site_weather.apply_digest(request.payload)
        self.metrics.counter(
            "weather.digests", site=self.site_weather.site,
            outcome="applied" if applied else "stale",
        ).inc()
        return {"applied": applied}


class WeatherRuntime(PushPlane):
    """The weather plane of one grid: the station on the weather host fed
    by the flow engine's transfer-retirement hook, one
    ``weather.push_digest`` subscriber + forecast cache per site, and one
    forecast pusher per site.
    """

    def __init__(self, grid, config: WeatherConfig) -> None:
        super().__init__()
        self.config = config
        self.sim = grid.sim
        self.weather_host = config.weather_host or grid.catalog_host
        if self.weather_host not in grid.sites:
            raise ValueError(
                f"weather host {self.weather_host!r} is not a site"
            )
        host_site = grid.sites[self.weather_host]
        self.station = WeatherStation(config, grid.sim, topology=grid.topology)
        # the observation feed: every retired transfer (drained or
        # aborted) becomes one history sample at the station
        grid.engine.transfer_observers.append(self.station.on_transfer)
        #: site name -> that site's pushed-forecast cache
        self.site_weather: Dict[str, SiteWeather] = {}
        self.subscribers: Dict[str, WeatherSubscriber] = {}
        period = config.push_period
        for i, (name, site) in enumerate(grid.sites.items()):
            cache = SiteWeather(name, config, grid.sim)
            self.site_weather[name] = cache
            self.subscribers[name] = WeatherSubscriber(
                site.request_server, cache, metrics=grid.metrics
            )
            self.pushers[name] = SoftStatePusher(
                host_site.request_client,
                _PUSH_NAMES,
                site=name,
                target_host=name,
                operation="weather.push_digest",
                period=period,
                build=lambda site=name: self.station.digest_for(
                    site, self.sim.now
                ),
                wire_size=forecast_wire_size,
                phase=self.stagger(i, len(grid.sites), period),
                metrics=grid.metrics,
            )
        grid.metrics.add_collector(self._collect)
        grid.metrics.add_section(WEATHER_SECTION)

    def selection_stats(self) -> Dict[str, int]:
        totals = {
            "digests_applied": 0,
            "digests_stale": 0,
            "history_selections": 0,
            "probe_fallbacks": 0,
        }
        for weather in self.site_weather.values():
            for key in totals:
                totals[key] += weather.stats[key]
        return totals

    # -- telemetry ---------------------------------------------------------

    def _collect(self, registry) -> None:
        """Scrape station, pusher and site-cache state into gauges at
        export time."""
        station = self.station
        now = self.sim.now
        registry.gauge("weather.station.pairs").set(len(station.pairs))
        for key, value in sorted(station.stats.items()):
            registry.gauge(f"weather.station.{key}").set(value)
        for (src, dst), history in sorted(station.pairs.items()):
            if history.samples == 0:
                continue
            labels = {"src": src, "dst": dst}
            registry.gauge(
                "weather.pair.throughput", **labels
            ).set(history.ewma.value or 0.0)
            registry.gauge(
                "weather.pair.samples", **labels
            ).set(history.samples)
            registry.gauge(
                "weather.pair.failures", **labels
            ).set(history.failures)
            registry.gauge(
                "weather.pair.staleness_seconds", **labels
            ).set(history.staleness(now))
            registry.gauge(
                "weather.pair.confidence", **labels
            ).set(history.confidence(now))
            congestion = station.congestion(src, dst)
            if congestion is not None:
                registry.gauge(
                    "weather.pair.congestion", **labels
                ).set(congestion)
        for site, pusher in self.pushers.items():
            for key, value in sorted(pusher.stats.items()):
                registry.gauge(f"weather.pusher.{key}", site=site).set(value)
        for site, cache in self.site_weather.items():
            for key, value in sorted(cache.stats.items()):
                registry.gauge(f"weather.site.{key}", site=site).set(value)

    def fingerprint(self) -> str:
        """Deterministic digest of station state + push accounting."""
        selection = ",".join(
            f"{site}:{w.stats['history_selections']}"
            f"/{w.stats['probe_fallbacks']}"
            for site, w in sorted(self.site_weather.items())
        )
        return (
            self.station.fingerprint()
            + "##" + self.push_fingerprint() + "##" + selection
        )
