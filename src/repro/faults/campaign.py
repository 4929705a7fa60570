"""Deterministic fault campaigns: what breaks, when, for how long.

A campaign is a frozen, pre-computed schedule of :class:`FaultEvent`
records — every random draw happens at *build* time from a seeded
:class:`~repro.simulation.randomness.RandomStreams` generator, so the
same seed always yields byte-identical schedules (``schedule_repr`` is
the canonical fingerprint).  The :class:`~repro.faults.injector.
FaultInjector` then replays the schedule against a live grid without
drawing another random number.

Event times are *relative to campaign start* (the injector anchors them
at the sim-time its process begins), so a schedule is independent of how
long the workload's setup phase took.

Windowed faults (link partitions, host crashes, catalog black-holes)
are expanded into paired down/up events here; overlapping windows on the
same target are legal — the injector reference-counts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "FaultEvent",
    "FaultCampaign",
    "link_flap_campaign",
    "crash_restart_campaign",
    "mss_stall_campaign",
    "catalog_blackhole_campaign",
    "component_crash_campaign",
    "rli_blackhole_campaign",
    "weather_blackhole_campaign",
    "chunk_corrupt_campaign",
    "site_wipe_campaign",
]

#: every fault kind the injector knows how to apply
FAULT_KINDS = frozenset({
    "link_down", "link_up",                      # WAN partition window
    "host_crash", "host_restart",                # whole-host crash window
    "mss_stall", "mss_error",                    # tape-system misbehaviour
    "catalog_blackhole", "catalog_restore",      # catalog RPC black-hole
    "catalog_delay", "catalog_delay_clear",      # catalog RPC extra latency
    "component_crash", "component_restart",      # workload pipeline worker
    "rli_blackhole", "rli_restore",              # whole-RLI black-hole window
    "digest_loss", "digest_restore",             # drop digest pushes only
    "weather_blackhole", "weather_restore",      # weather-plane black-hole
    "chunk_corrupt",                             # silent chunk bit rot
    "site_wipe",                                 # lose a site's chunk store
})


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault action.

    ``target`` names what breaks (a link, a host/site, the catalog
    host); ``param`` carries the kind-specific magnitude — stall
    duration for ``mss_stall``, error count for ``mss_error``, extra
    one-way latency for ``catalog_delay``, unused otherwise.  Ordering
    is (time, kind, target, param), which doubles as the canonical
    schedule order.
    """

    time: float
    kind: str
    target: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"fault at negative time {self.time}")


@dataclass(frozen=True)
class FaultCampaign:
    """A named, time-sorted schedule of fault events."""

    name: str
    events: tuple[FaultEvent, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.events))
        if ordered != tuple(self.events):
            object.__setattr__(self, "events", ordered)

    @property
    def horizon(self) -> float:
        """Relative time of the last scheduled event."""
        return self.events[-1].time if self.events else 0.0

    def schedule_repr(self) -> str:
        """Canonical textual schedule — the determinism fingerprint.
        Two campaigns built from the same seed and parameters produce
        byte-identical strings."""
        lines = [f"campaign {self.name} events={len(self.events)}"]
        for ev in self.events:
            lines.append(
                f"{ev.time:.6f} {ev.kind} {ev.target} {ev.param:.6f}"
            )
        return "\n".join(lines)


def _window_events(rng, count, targets, down_kind, up_kind, *,
                   start, spread, min_down, max_down):
    """``count`` down/up pairs over uniformly drawn targets and times."""
    events = []
    for _ in range(count):
        target = targets[int(rng.integers(0, len(targets)))]
        at = start + float(rng.uniform(0.0, spread))
        down_for = float(rng.uniform(min_down, max_down))
        events.append(FaultEvent(round(at, 6), down_kind, target))
        events.append(FaultEvent(round(at + down_for, 6), up_kind, target))
    return events


def link_flap_campaign(
    streams,
    links: Sequence[str],
    *,
    flaps: int = 4,
    start: float = 5.0,
    spread: float = 90.0,
    min_down: float = 3.0,
    max_down: float = 10.0,
) -> FaultCampaign:
    """Partition random WAN links for random windows: in-flight control
    messages are lost, data flows over the link are torn down."""
    if not links:
        raise ValueError("no links to flap")
    rng = streams["faults.link_flap"]
    return FaultCampaign(
        "link-flap",
        tuple(_window_events(
            rng, flaps, list(links), "link_down", "link_up",
            start=start, spread=spread,
            min_down=min_down, max_down=max_down,
        )),
    )


def crash_restart_campaign(
    streams,
    hosts: Sequence[str],
    *,
    crashes: int = 3,
    start: float = 8.0,
    spread: float = 80.0,
    min_down: float = 10.0,
    max_down: float = 25.0,
) -> FaultCampaign:
    """Crash random hosts and restart them later: every daemon on the
    host loses its in-flight state (GridFTP sessions, pending replies)."""
    if not hosts:
        raise ValueError("no hosts to crash")
    rng = streams["faults.crash_restart"]
    return FaultCampaign(
        "crash-restart",
        tuple(_window_events(
            rng, crashes, list(hosts), "host_crash", "host_restart",
            start=start, spread=spread,
            min_down=min_down, max_down=max_down,
        )),
    )


#: bounds of one ``mss_stall`` window, sim-seconds
MSS_STALL_BOUNDS = (20.0, 60.0)
#: added one-way latency of a ``catalog_delay`` window, sim-seconds
CATALOG_EXTRA_DELAY = 2.0


def mss_stall_campaign(
    streams,
    site: str,
    *,
    stalls: int = 2,
    errors: int = 2,
    start: float = 5.0,
    spread: float = 120.0,
) -> FaultCampaign:
    """Wedge and error a site's tape system: ``stalls`` windows during
    which stagings hold their drive without progress, plus ``errors``
    injected :class:`~repro.storage.mss.TapeError` stagings."""
    rng = streams["faults.mss_stall"]
    events = []
    for _ in range(stalls):
        at = start + float(rng.uniform(0.0, spread))
        length = float(rng.uniform(*MSS_STALL_BOUNDS))
        events.append(
            FaultEvent(round(at, 6), "mss_stall", site, round(length, 6))
        )
    for _ in range(errors):
        at = start + float(rng.uniform(0.0, spread))
        events.append(FaultEvent(round(at, 6), "mss_error", site, 1.0))
    return FaultCampaign("mss-stall", tuple(events))


def component_crash_campaign(
    streams,
    components: Sequence[str],
    *,
    crashes: int = 4,
    start: float = 10.0,
    spread: float = 120.0,
    min_down: float = 15.0,
    max_down: float = 45.0,
) -> FaultCampaign:
    """Kill random standing pipeline components (``picker@anl`` …) and
    restart them later: whatever claims the component held stop being
    renewed, the leases expire, and the tasks are re-claimed — the
    workload engine's exactly-once convergence story under test."""
    if not components:
        raise ValueError("no components to crash")
    rng = streams["faults.component_crash"]
    return FaultCampaign(
        "component-crash",
        tuple(_window_events(
            rng, crashes, list(components),
            "component_crash", "component_restart",
            start=start, spread=spread,
            min_down=min_down, max_down=max_down,
        )),
    )


def catalog_blackhole_campaign(
    streams,
    catalog_host: str,
    *,
    windows: int = 2,
    delays: int = 1,
    start: float = 5.0,
    spread: float = 70.0,
    min_down: float = 8.0,
    max_down: float = 20.0,
) -> FaultCampaign:
    """Black-hole catalog RPCs at the catalog host for random windows
    (requests vanish; callers see only their own timeouts), plus
    ``delays`` windows of added one-way latency on catalog traffic."""
    rng = streams["faults.catalog_blackhole"]
    events = _window_events(
        rng, windows, [catalog_host], "catalog_blackhole",
        "catalog_restore", start=start, spread=spread,
        min_down=min_down, max_down=max_down,
    )
    for _ in range(delays):
        at = start + float(rng.uniform(0.0, spread))
        length = float(rng.uniform(min_down, max_down))
        events.append(FaultEvent(
            round(at, 6), "catalog_delay", catalog_host, CATALOG_EXTRA_DELAY
        ))
        events.append(FaultEvent(
            round(at + length, 6), "catalog_delay_clear", catalog_host
        ))
    return FaultCampaign("catalog-blackhole", tuple(events))


def rli_blackhole_campaign(
    streams,
    rli_host: str,
    *,
    windows: int = 2,
    digest_loss_windows: int = 1,
    start: float = 10.0,
    spread: float = 90.0,
    min_down: float = 20.0,
    max_down: float = 60.0,
) -> FaultCampaign:
    """Break the Replica Location Index for random windows.

    ``windows`` black-hole every ``rli.*`` operation at the index host —
    digest pushes *and* lookups vanish, so readers time out on the index
    and degrade to verify-on-use broadcasts over the LRCs.  On top,
    ``digest_loss_windows`` drop only ``rli.push_digest`` traffic: the
    index keeps answering lookups but its answers go stale, exercising
    the verify-on-use false-hit path and the post-window convergence of
    the soft-state digests (unacknowledged changes are re-pushed).
    """
    rng = streams["faults.rli_blackhole"]
    events = _window_events(
        rng, windows, [rli_host], "rli_blackhole", "rli_restore",
        start=start, spread=spread,
        min_down=min_down, max_down=max_down,
    )
    events.extend(_window_events(
        rng, digest_loss_windows, [rli_host],
        "digest_loss", "digest_restore",
        start=start, spread=spread,
        min_down=min_down, max_down=max_down,
    ))
    return FaultCampaign("rli-blackhole", tuple(events))


def chunk_corrupt_campaign(
    streams,
    sites: Sequence[str],
    *,
    corruptions: int = 4,
    start: float = 5.0,
    spread: float = 60.0,
) -> FaultCampaign:
    """Silently flip bits in stored chunk replicas: instantaneous events
    that damage one file under a random site's ``chunks/`` prefix.

    ``param`` carries a pre-drawn selector; the injector picks the
    victim as ``selector mod len(chunk files)`` over the site's sorted
    chunk listing at fire time, so the schedule stays frozen while the
    victim adapts to whatever the workload has placed by then.  TCP
    never sees this damage — only a CKSM scrub (or a fetch's CRC check)
    can."""
    if not sites:
        raise ValueError("no sites to corrupt chunks at")
    rng = streams["faults.chunk_corrupt"]
    events = []
    for _ in range(corruptions):
        target = sites[int(rng.integers(0, len(sites)))]
        at = start + float(rng.uniform(0.0, spread))
        selector = float(rng.integers(0, 1_000_000))
        events.append(
            FaultEvent(round(at, 6), "chunk_corrupt", target, selector)
        )
    return FaultCampaign("chunk-corrupt", tuple(events))


def site_wipe_campaign(
    streams,
    sites: Sequence[str],
    *,
    wipes: int = 2,
    start: float = 10.0,
    spread: float = 40.0,
) -> FaultCampaign:
    """Destroy whole chunk stores: each wipe deletes *every* file under
    one site's ``chunks/`` prefix (a dead disk array; the host itself
    stays up and will accept re-uploads).  Victim sites are drawn
    *distinct* — the point of the (k, m) durability contract is
    surviving m simultaneous site losses, so the campaign must actually
    produce m distinct losses rather than wiping one site twice."""
    if not sites:
        raise ValueError("no sites to wipe")
    if wipes > len(sites):
        raise ValueError(
            f"cannot wipe {wipes} distinct sites out of {len(sites)}"
        )
    rng = streams["faults.site_wipe"]
    pool = list(sites)
    events = []
    for _ in range(wipes):
        victim = pool.pop(int(rng.integers(0, len(pool))))
        at = start + float(rng.uniform(0.0, spread))
        events.append(FaultEvent(round(at, 6), "site_wipe", victim))
    return FaultCampaign("site-wipe", tuple(events))


def weather_blackhole_campaign(
    streams,
    weather_host: str,
    *,
    windows: int = 2,
    start: float = 10.0,
    spread: float = 90.0,
    min_down: float = 30.0,
    max_down: float = 90.0,
) -> FaultCampaign:
    """Black-hole the grid weather plane for random windows.

    Every ``weather.*`` operation vanishes grid-wide — forecast pushes
    never land at any subscriber — so the per-site
    forecast caches silently age past the staleness horizon and replica
    selection degrades to the instantaneous-probe ladder (never worse
    than the pre-observatory selector).  The restore lets the next
    pushed digests reconverge selection onto history.  Windows default
    *longer* than the other black-holes because the degradation only
    shows once the staleness horizon has elapsed.
    """
    rng = streams["faults.weather_blackhole"]
    return FaultCampaign(
        "weather-blackhole",
        tuple(_window_events(
            rng, windows, [weather_host],
            "weather_blackhole", "weather_restore",
            start=start, spread=spread,
            min_down=min_down, max_down=max_down,
        )),
    )
