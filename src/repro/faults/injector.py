"""Replay a :class:`~repro.faults.campaign.FaultCampaign` against a grid.

The injector is a pure *applier*: it draws no random numbers (the
campaign is fully pre-computed) and touches the grid only through the
fault hooks the subsystems expose —

* :meth:`MessageNetwork.set_link_down` / ``set_host_down`` /
  ``set_service_down`` / ``set_service_delay`` for the control plane
  (a down host or link is one fact on the topology, which the flow
  engine reads too: it refuses new flows across it),
* :meth:`NetworkEngine.cancel_pool` (via ``pools_on_link`` /
  ``pools_touching_host``) for data flows in flight when a window opens,
* :meth:`GridFTPServer.drop_sessions` and :meth:`DiskPool.drop_pins`
  for crash-time state loss,
* :meth:`ServiceClient.fail_pending` so peers' outstanding calls to a
  crashed host fail as connection resets instead of waiting out their
  full timeouts,
* :meth:`MassStorageSystem.inject_stall` / ``inject_errors`` for the
  tape system.

Overlapping windows on one target are reference-counted; the fault
clears only when the last window closes.

Every applied event counts ``faults.injected{kind=...}`` in the grid's
metrics registry and opens/closes a ``fault:<kind>`` span in the trace
log, so fault windows line up with the affected transfers in the Chrome
trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.campaign import FaultCampaign, FaultEvent
from repro.gdmp.request_manager import RequestServer
from repro.simulation.kernel import Process

__all__ = ["FaultInjector"]

#: operation prefix black-holed/delayed on the catalog host's gdmp service
_CATALOG_PREFIX = "catalog."


@dataclass(frozen=True)
class _Blackhole:
    """One kind of control-plane black-hole window: while one is open,
    every operation under ``prefix`` of the gdmp service vanishes at the
    event's target host — or, ``grid_wide``, at every site."""

    key: str                # refcount key in ``active_faults()``; a
                            # ``<key>_restore`` event closes a window
    down: str               # event kind that opens one (and span name)
    prefix: str
    plane: str = ""         # grid attribute that must be built, if any
    missing: str = ""       # ... and what the grid lacks when it is not
    grid_wide: bool = False


_BLACKHOLES = (
    _Blackhole("catalog", "catalog_blackhole", _CATALOG_PREFIX),
    # the whole index: digest pushes are lost (soft state — sources
    # re-push after the window) and lookups time out, degrading readers
    # to verify-on-use broadcasts over the LRCs
    _Blackhole("rli", "rli_blackhole", "rli.",
               plane="rls", missing="replica location service"),
    # only the digest feed: the index keeps serving lookups, but its
    # answers go stale — verify-on-use must absorb the drift until the
    # window closes and the re-pushed digests converge the index
    _Blackhole("digest", "digest_loss", "rli.push_digest",
               plane="rls", missing="replica location service"),
    # an observatory outage: forecast pushes are dropped at every
    # subscriber (``weather.push_digest`` is the plane's one operation).
    # Site caches silently age past the staleness horizon and selection
    # degrades to the probe ladder; nothing retries — the first pushes
    # after the restore reconverge it (soft state)
    _Blackhole("weather", "weather_blackhole", "weather.",
               plane="weather", missing="weather service", grid_wide=True),
)
#: event kind -> (the black-hole it opens or closes, whether it opens it)
_BLACKHOLE_EVENTS = {
    kind: (hole, kind == hole.down)
    for hole in _BLACKHOLES
    for kind in (hole.down, f"{hole.key}_restore")
}


class FaultInjector:
    """Applies a campaign's events, in schedule order, to one grid."""

    def __init__(self, grid, campaign: FaultCampaign):
        self.grid = grid
        self.campaign = campaign
        self.sim = grid.sim
        #: number of events applied so far
        self.injected = 0
        #: data pools torn down by partitions/crashes; ``chunk_corrupt``
        #: events that found no chunk to damage; chunk files wiped
        self.stats = {
            "pools_cancelled": 0,
            "chunk_corrupt_noop": 0,
            "chunks_wiped": 0,
        }
        self._active: dict[tuple[str, str], int] = {}
        self._spans: dict[tuple[str, str], object] = {}

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> Process:
        """Spawn the campaign process; event times are relative to now."""
        return self.sim.spawn(
            self._run(), name=f"fault-campaign {self.campaign.name}"
        )

    def _run(self):
        t0 = self.sim.now
        for event in self.campaign.events:
            at = t0 + event.time
            if at > self.sim.now:
                yield self.sim.timeout(at - self.sim.now)
            self._apply(event)
        return self.injected

    def _apply(self, event: FaultEvent) -> None:
        if event.kind in _BLACKHOLE_EVENTS:
            self._blackhole(event, *_BLACKHOLE_EVENTS[event.kind])
        else:
            getattr(self, "_apply_" + event.kind)(event)
        self.injected += 1
        self.grid.metrics.counter("faults.injected", kind=event.kind).inc()

    # -- bookkeeping helpers ----------------------------------------------------
    def _bump(self, key: tuple[str, str], delta: int) -> int:
        count = max(0, self._active.get(key, 0) + delta)
        if count:
            self._active[key] = count
        else:
            self._active.pop(key, None)
        return count

    def _open_span(self, key: tuple[str, str], name: str, **attrs) -> None:
        self._spans[key] = self.grid.tracelog.begin(
            name, kind="fault", host=key[1], service="faults", **attrs
        )

    def _close_span(self, key: tuple[str, str]) -> None:
        span = self._spans.pop(key, None)
        if span is not None:
            self.grid.tracelog.finish(span, "ok")

    def _flash_span(self, name: str, target: str, **attrs) -> None:
        """An instantaneous fault (no window) still shows in the trace."""
        span = self.grid.tracelog.begin(
            name, kind="fault", host=target, service="faults", **attrs
        )
        self.grid.tracelog.finish(span, "ok")

    def _cancel(self, pool, reason: str) -> None:
        try:
            self.grid.engine.cancel_pool(pool, reason)
        except ValueError:
            return  # pool completed in the same timestep; nothing to kill
        self.stats["pools_cancelled"] += 1

    # -- link partitions --------------------------------------------------------
    def _apply_link_down(self, event: FaultEvent) -> None:
        key = ("link", event.target)
        if self._bump(key, +1) > 1:
            return
        grid = self.grid
        grid.msgnet.set_link_down(event.target, True)
        self._open_span(key, "fault:link_down")
        for pool in grid.engine.pools_on_link(event.target):
            self._cancel(pool, f"link {event.target} down")

    def _apply_link_up(self, event: FaultEvent) -> None:
        key = ("link", event.target)
        if self._bump(key, -1) == 0:
            self.grid.msgnet.set_link_down(event.target, False)
            self._close_span(key)

    # -- host crashes -----------------------------------------------------------
    def _crash_host_state(self, host: str) -> None:
        """In-flight state loss at crash (and again at restart: a rebooted
        daemon remembers nothing either way)."""
        grid = self.grid
        site = grid.sites.get(host)
        if site is not None:
            site.gridftp_server.drop_sessions()
            # transfer pins are the same kind of state: whoever took one
            # can no longer be told apart from whoever never did
            site.pool.drop_pins()
        # peers' outstanding calls to this host will never be answered:
        # surface them as connection resets now (clients whose requests
        # are mid-flight still pay their own timeout, as on a real crash
        # where the RST only comes once the kernel is back)
        for name in sorted(grid.sites):
            peer = grid.sites[name]
            peer.request_client.fail_pending(host, f"host {host} crashed")
            peer.gridftp_client.bus.fail_pending(host, f"host {host} crashed")

    def _apply_host_crash(self, event: FaultEvent) -> None:
        key = ("host", event.target)
        if self._bump(key, +1) > 1:
            return
        grid = self.grid
        grid.msgnet.set_host_down(event.target, True)
        self._open_span(key, "fault:host_crash")
        for pool in grid.engine.pools_touching_host(event.target):
            self._cancel(pool, f"host {event.target} crashed")
        self._crash_host_state(event.target)

    def _apply_host_restart(self, event: FaultEvent) -> None:
        key = ("host", event.target)
        if self._bump(key, -1) == 0:
            self.grid.msgnet.set_host_down(event.target, False)
            self._crash_host_state(event.target)
            self._close_span(key)

    # -- tape system ------------------------------------------------------------
    def _site_mss(self, site_name: str):
        mss = self.grid.site(site_name).mss
        if mss is None:
            raise ValueError(f"site {site_name!r} has no MSS to break")
        return mss

    def _apply_mss_stall(self, event: FaultEvent) -> None:
        self._site_mss(event.target).inject_stall(self.sim.now + event.param)
        self._flash_span("fault:mss_stall", event.target,
                         duration=event.param)

    def _apply_mss_error(self, event: FaultEvent) -> None:
        self._site_mss(event.target).inject_errors(int(event.param) or 1)
        self._flash_span("fault:mss_error", event.target)

    # -- control-plane black-holes (catalog, RLI, digest feed, weather) ---------
    def _blackhole(self, event: FaultEvent, hole: _Blackhole, down: bool) -> None:
        """Open or close one window of ``hole`` (refcounted per target)."""
        if down and hole.plane and getattr(self.grid, hole.plane, None) is None:
            raise ValueError(
                f"cannot apply {event.kind!r}: this grid has no "
                f"{hole.missing} (build it with DataGrid({hole.plane}=...))"
            )
        key = (hole.key, event.target)
        if self._bump(key, +1 if down else -1) != int(down):
            return  # a nested window: the outermost pair does the work
        hosts = sorted(self.grid.sites) if hole.grid_wide else [event.target]
        for host in hosts:
            self.grid.msgnet.set_service_down(
                host, RequestServer.SERVICE, down, prefix=hole.prefix
            )
        if down:
            self._open_span(key, f"fault:{hole.down}")
        else:
            self._close_span(key)

    # -- replica catalog --------------------------------------------------------
    def _apply_catalog_delay(self, event: FaultEvent) -> None:
        self.grid.msgnet.set_service_delay(
            event.target, RequestServer.SERVICE, extra=event.param,
            prefix=_CATALOG_PREFIX,
        )
        self._flash_span("fault:catalog_delay", event.target,
                         extra=event.param)

    def _apply_catalog_delay_clear(self, event: FaultEvent) -> None:
        self.grid.msgnet.set_service_delay(
            event.target, RequestServer.SERVICE, extra=0.0,
            prefix=_CATALOG_PREFIX,
        )

    # -- chunk stores -------------------------------------------------------------
    _CHUNK_PREFIX = "chunks/"

    def _apply_chunk_corrupt(self, event: FaultEvent) -> None:
        """Silently damage one stored chunk replica at the target site.
        The victim is ``param mod len(listing)`` over the sorted
        ``chunks/`` listing at fire time — deterministic given the
        workload state, and a no-op on a site holding no chunks yet."""
        site = self.grid.site(event.target)
        chunks = site.fs.listing(self._CHUNK_PREFIX)
        if not chunks:
            self.stats["chunk_corrupt_noop"] += 1
            return
        victim = chunks[int(event.param) % len(chunks)]
        site.fs.corrupt(victim.path)
        self._flash_span("fault:chunk_corrupt", event.target,
                         path=victim.path)

    def _apply_site_wipe(self, event: FaultEvent) -> None:
        """Lose the target site's entire chunk store: every file under
        the ``chunks/`` prefix is deleted (a dead disk array).  The host
        stays up — probes answer "no such file" and repair re-uploads
        land normally."""
        site = self.grid.site(event.target)
        wiped = 0
        for stored in site.fs.listing(self._CHUNK_PREFIX):
            site.fs.delete(stored.path)
            wiped += 1
        self.stats["chunks_wiped"] += wiped
        self._flash_span("fault:site_wipe", event.target, wiped=wiped)

    # -- workload pipeline components -------------------------------------------
    def _workload_component(self, name: str):
        engine = getattr(self.grid, "workload", None)
        if engine is None:
            raise ValueError(
                f"cannot target component {name!r}: "
                "no workload engine attached to this grid"
            )
        return engine.component(name)

    def _apply_component_crash(self, event: FaultEvent) -> None:
        key = ("component", event.target)
        if self._bump(key, +1) > 1:
            return
        self._workload_component(event.target).crash()
        self._open_span(key, "fault:component_crash")

    def _apply_component_restart(self, event: FaultEvent) -> None:
        key = ("component", event.target)
        if self._bump(key, -1) == 0:
            component = self._workload_component(event.target)
            if not component.running():
                component.start()
            self._close_span(key)

    # -- introspection ----------------------------------------------------------
    def active_faults(self) -> dict[tuple[str, str], int]:
        """Currently-open down windows (refcounts), for assertions."""
        return dict(self._active)
