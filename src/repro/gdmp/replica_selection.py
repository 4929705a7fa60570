"""Replica selection by cost function, history-first.

§4.2: "This information can then be used as a basis for replica selection
based on cost functions, which is part of planned future work.  (See
[VTF01] for some early ideas.)"  We implement that future work twice
over.  The base cost function scores a candidate source by instantaneous
probes — measured RTT (``ping``) plus size over measured available
bandwidth (``pipechar``) — along the *transfer* direction ``src -> dst``
(probing the reverse path would price the wrong pipe on an asymmetric
route).  On top of it sits the [VTF01] refinement: when a
:class:`~repro.observatory.station.SiteWeather` cache is wired in, the
predicted time from observed transfer *history* is blended with the
probe estimate in proportion to the forecast's confidence.

The fallback ladder, per candidate:

1. fresh, confident history -> forecast dominates the estimate;
2. fresh but thin history   -> forecast and probe blend by confidence;
3. stale or missing history -> pure probe (exactly the old behaviour);
4. unroutable               -> not a candidate at all.

With ``weather=None`` every code path reduces to rung 3, so grids that
never opt in rank bit-identically to the pre-observatory selector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.netsim.tools import ping, pipechar
from repro.netsim.topology import RouteError, Topology

__all__ = ["PipeWidth", "ReplicaScore", "choose_replica",
           "estimate_transfer_time", "pipe_width", "rank_replicas"]

#: Control-channel overhead charged per transfer (connect + auth + commands).
SETUP_ROUND_TRIPS = 5

#: Minimum forecast confidence for history to drive the ranking; below it
#: the probe estimate wins (above it the forecast blends in proportionally
#: to its confidence).
MIN_FORECAST_CONFIDENCE = 0.2


@dataclass(frozen=True)
class ReplicaScore:
    """One candidate source and its estimated cost."""

    site: str
    rtt: float
    available_bandwidth: float
    estimated_time: float
    #: what priced the estimate: "probe" (instantaneous tools only) or
    #: "history" (an observatory forecast contributed)
    basis: str = "probe"
    #: the forecast's confidence in [0, 1] (0.0 on the pure-probe path)
    confidence: float = 0.0
    #: predicted achieved throughput from history (None without history)
    predicted_throughput: Optional[float] = None


def estimate_transfer_time(
    topology: Topology,
    src: str,
    dst: str,
    size: float,
    weather=None,
) -> ReplicaScore:
    """Predicted wall-clock time to move ``size`` bytes ``src -> dst``.

    Probes run along the transfer direction.  When ``weather`` (a
    :class:`~repro.observatory.station.SiteWeather`) holds a fresh,
    confident forecast for the pair, the history-predicted time is
    blended with the probe time by confidence; otherwise the probe
    estimate stands alone.
    """
    rtt = ping(topology, src, dst).rtt
    bandwidth = pipechar(topology, src, dst).available_bandwidth
    probe_time = SETUP_ROUND_TRIPS * rtt + size / bandwidth
    if weather is None:
        return ReplicaScore(
            site=src,
            rtt=rtt,
            available_bandwidth=bandwidth,
            estimated_time=probe_time,
        )
    forecast = weather.predict(src, dst, size)
    if (
        forecast is None
        or forecast.throughput <= 0.0
        or forecast.confidence < MIN_FORECAST_CONFIDENCE
    ):
        return ReplicaScore(
            site=src,
            rtt=rtt,
            available_bandwidth=bandwidth,
            estimated_time=probe_time,
        )
    setup_rtt = forecast.rtt if forecast.rtt is not None else rtt
    history_time = SETUP_ROUND_TRIPS * setup_rtt + size / forecast.throughput
    confidence = min(1.0, forecast.confidence)
    blended = confidence * history_time + (1.0 - confidence) * probe_time
    return ReplicaScore(
        site=src,
        rtt=rtt,
        available_bandwidth=bandwidth,
        estimated_time=blended,
        basis="history",
        confidence=confidence,
        predicted_throughput=forecast.throughput,
    )


@dataclass(frozen=True)
class PipeWidth:
    """How many of a site's transfers fill its inbound pipe, and why."""

    width: int = 1
    #: where the best-paced file came from ("" before the first report)
    source: str = ""
    #: bytes/s: the best whole-file pace one of the site's own transfers
    #: achieved, control round trips included
    pace: float = 0.0
    #: bytes/s: ``pipechar(source -> here)`` when the width was derived
    bandwidth: float = 0.0


def pipe_width(
    topology: Topology,
    dst: str,
    reports: Iterable,
    previous: PipeWidth = PipeWidth(),
) -> PipeWidth:
    """How many transfers at the best pace seen so far it takes to fill
    the pipe they come in over: ``ceil(probed bandwidth / pace)``, never
    below 1.

    ``reports`` are the :class:`~repro.gdmp.client.ReplicationReport` list
    of one completed transfer set at ``dst``; a file's pace is its
    ``throughput`` (size over *total* duration, so the control gaps a
    second transfer would fill count against it).  The *best* file is
    the one that met no fault and shared the pipe least — a set's mean
    reads a link flap as a wide pipe — and the bandwidth is the
    selector's own probe of the path, not our share of it.  With no
    report yet, or a best source that cannot be routed, ``previous``
    stands: a site starts at one solo set, whose reports are by
    construction the uncontended sample.
    """
    source, pace = previous.source, previous.pace
    for report in reports:
        if report.throughput > pace:
            source, pace = report.source, report.throughput
    if not source:
        return previous
    try:
        bandwidth = pipechar(topology, source, dst).available_bandwidth
    except RouteError:
        return previous
    return PipeWidth(
        width=max(1, math.ceil(bandwidth / pace)),
        source=source, pace=pace, bandwidth=bandwidth,
    )


def rank_replicas(
    topology: Topology,
    locations: list[dict],
    dst_site: str,
    size: float,
    weather=None,
) -> list[ReplicaScore]:
    """All usable sources among catalog ``locations``, cheapest first.

    Raises :class:`ValueError` if no candidate is usable (no replicas, or
    only the destination itself holds the file).
    """
    scores = []
    for location in locations:
        site = location["location"]
        if site == dst_site:
            continue
        try:
            scores.append(
                estimate_transfer_time(
                    topology, site, dst_site, size, weather=weather
                )
            )
        except (RouteError, KeyError):
            continue  # unreachable replica: not a candidate
    if not scores:
        raise ValueError(f"no usable replica source for destination {dst_site!r}")
    return sorted(scores, key=lambda s: s.estimated_time)


def choose_replica(
    topology: Topology,
    locations: list[dict],
    dst_site: str,
    size: float,
    weather=None,
) -> ReplicaScore:
    """The cheapest reachable source (head of :func:`rank_replicas`)."""
    return rank_replicas(topology, locations, dst_site, size,
                         weather=weather)[0]
