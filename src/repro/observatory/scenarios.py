"""Background-traffic scenarios: diurnal load.

The Legrand et al. T0/T1 simulation study stresses replica selection
with *time-varying* background load: production transfers follow the
sun (diurnal congestion waves).  This module generates that as a
pre-computed script of real competing transfers:

* build time — all randomness is drawn from named
  :class:`~repro.simulation.randomness.RandomStreams` streams into an
  immutable :class:`ScenarioScript` whose :meth:`ScenarioScript.
  schedule_repr` fingerprints the whole schedule;
* run time — :class:`ScenarioDriver` replays the script verbatim,
  opening each transfer on the flow engine at its scripted instant.

The traffic is *real* elastic flows, not cross-traffic constants: it
shares bottleneck links with replication transfers, which is exactly
what instantaneous ``pipechar`` probes cannot see (they report capacity
minus constant cross-traffic) and transfer *history* can.  That gap is
the mechanism EXP-WEATHER measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..netsim.engine import TransferAborted
from ..netsim.topology import RouteError
from ..telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = [
    "TrafficEvent",
    "ScenarioScript",
    "diurnal_scenario",
    "ScenarioDriver",
]


@dataclass(frozen=True)
class TrafficEvent:
    """One scripted background transfer."""

    time: float      # seconds after driver start the transfer opens
    src: str         # source site/host
    dst: str         # destination site/host
    size: float      # bytes
    streams: int     # parallel TCP streams
    kind: str        # the scenario's name (metrics label)


@dataclass(frozen=True)
class ScenarioScript:
    """A pre-computed, immutable background-traffic schedule."""

    name: str
    horizon: float
    events: Tuple[TrafficEvent, ...]

    def schedule_repr(self) -> str:
        """Canonical textual schedule — the determinism fingerprint."""
        lines = [f"scenario {self.name} horizon={self.horizon:.3f} "
                 f"events={len(self.events)}"]
        for e in self.events:
            lines.append(
                f"{e.time:.6f} {e.src}->{e.dst} "
                f"{e.size:.0f}B x{e.streams} {e.kind}"
            )
        return "\n".join(lines)


def _draw_pair(
    rng,
    sites: Sequence[str],
    sources: Optional[Sequence[str]] = None,
    destinations: Optional[Sequence[str]] = None,
) -> Tuple[str, str]:
    """A distinct ordered (src, dst) pair: src uniform over ``sources``
    (default: all sites), dst uniform over ``destinations`` (default:
    all sites) minus the source."""
    pool = sources if sources is not None else sites
    src = pool[int(rng.integers(len(pool)))]
    sinks = destinations if destinations is not None else sites
    others = [s for s in sinks if s != src]
    if not others:
        raise ValueError("no destination distinct from the source")
    return src, others[int(rng.integers(len(others)))]


def _draw_size(rng, mean_size: float, sigma: float) -> float:
    """Lognormal transfer size with the given *linear* mean."""
    # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); solve for mu
    mu = math.log(mean_size) - 0.5 * sigma * sigma
    return float(rng.lognormal(mu, sigma))


def diurnal_scenario(
    streams,
    sites: Sequence[str],
    *,
    horizon: float = 600.0,
    period: float = 300.0,
    base_rate: float = 0.02,
    peak_rate: float = 0.25,
    mean_size: float = 200e6,
    sigma: float = 0.6,
    streams_per_transfer: int = 2,
    slot: float = 5.0,
    sources: Optional[Sequence[str]] = None,
    destinations: Optional[Sequence[str]] = None,
    name: str = "diurnal",
) -> ScenarioScript:
    """Sun-following background load: arrival rate swings between
    ``base_rate`` and ``peak_rate`` transfers/s on a ``sin^2`` wave of
    the given ``period``.  Sources and destinations default to all
    ``sites``, or are confined to the given pools — e.g. T0 sources and
    T1 destinations model the MONARC production-export waves, which
    congest the backbones while leaving the regional tails clear.  All
    draws come from ``streams[f"scenario.{name}"]``.
    """
    if len(sites) < 2:
        raise ValueError("a traffic scenario needs at least two sites")
    rng = streams[f"scenario.{name}"]
    events = []
    t = 0.0
    while t < horizon:
        phase = math.sin(math.pi * t / period)
        rate = base_rate + (peak_rate - base_rate) * phase * phase
        width = min(slot, horizon - t)
        for _ in range(int(rng.poisson(rate * width))):
            src, dst = _draw_pair(rng, sites, sources, destinations)
            events.append(TrafficEvent(
                time=t + float(rng.random()) * width,
                src=src,
                dst=dst,
                size=_draw_size(rng, mean_size, sigma),
                streams=streams_per_transfer,
                kind=name,
            ))
        t += width
    events.sort(key=lambda e: (e.time, e.src, e.dst, e.size))
    return ScenarioScript(name=name, horizon=horizon, events=tuple(events))


class ScenarioDriver:
    """Replays a :class:`ScenarioScript` on the flow engine, verbatim.

    Event times are *relative to driver start* (anchored at the sim-time
    :meth:`start`'s process begins, exactly as fault campaigns are), so
    a schedule is independent of how long the workload's setup phase
    took.  Purely a playback head: it draws no random numbers at run
    time, so the schedule fingerprint plus the seed pins the whole
    simulation.  Transfers aborted mid-flight (severed links during
    fault campaigns) are swallowed and counted — background traffic
    never errors a run.
    """

    def __init__(self, sim, engine, script: ScenarioScript,
                 metrics: MetricsRegistry = NO_METRICS):
        self.sim = sim
        self.engine = engine
        self.script = script
        self.metrics = metrics
        self.process = None
        self.stats = {
            "launched": 0,
            "completed": 0,
            "aborted": 0,
            "unroutable": 0,
            "bytes_offered": 0,
        }

    def start(self):
        if self.process is None:
            self.process = self.sim.spawn(
                self._run(), name=f"scenario:{self.script.name}"
            )
        return self.process

    def _run(self):
        started = self.sim.now
        for event in self.script.events:
            target = started + event.time
            if target > self.sim.now:
                yield self.sim.timeout(target - self.sim.now)
            try:
                pool = self.engine.open_transfer(
                    event.src,
                    event.dst,
                    nbytes=event.size,
                    streams=event.streams,
                    name=f"bg:{event.kind}",
                )
            except (RouteError, KeyError):
                # partitioned by a fault window at launch instant
                self.stats["unroutable"] += 1
                continue
            self.stats["launched"] += 1
            self.stats["bytes_offered"] += int(event.size)
            self.metrics.counter("scenario.transfers", kind=event.kind).inc()
            self.sim.spawn(
                self._watch(pool), name=f"bg-watch:{event.kind}"
            )

    def _watch(self, pool):
        try:
            yield pool.done
        except TransferAborted:
            self.stats["aborted"] += 1
        else:
            self.stats["completed"] += 1
