"""The workload engine: queue + admission + standing pipeline on a grid.

:class:`WorkloadEngine` assembles the claim-based subsystem over an
existing :class:`~repro.gdmp.grid.DataGrid`:

* the :class:`~repro.workload.queue.TaskQueueService` is registered on
  the catalog host's request server — ``task.*`` operations live next to
  the ``catalog.*`` operations on the same authenticated endpoint (and,
  deliberately, are *not* swallowed by a ``catalog_blackhole`` fault,
  which filters on the ``catalog.`` operation prefix);
* every destination site runs one picker, bundler, replicator and
  verifier, each claiming over that site's request client — so claim
  traffic, lease renewals and completions ride the same WAN links,
  retry middleware and circuit breakers as the catalog traffic (one
  replicator is not one transfer set at a time: it overlaps as many
  as fill the site's inbound pipe);
* one :class:`~repro.workload.arrivals.ArrivalGenerator` feeds the
  queue through fair-share admission and the token bucket.

The engine registers itself as ``grid.workload`` so the fault injector
can find components by name (``picker@anl`` …) for crash/restart
campaigns.  ``done`` fires when the generator has produced its full
request stream *and* the queue is terminal (every task done or dead, no
live claim) — the convergence point the experiments run to.
"""

from __future__ import annotations

from repro.workload.arrivals import ArrivalGenerator, ArrivalProfile
from repro.workload.components import (
    SETS_IN_FLIGHT_SECTION,
    Bundler,
    Picker,
    PipelineComponent,
    Replicator,
    Verifier,
)
from repro.workload.queue import TaskQueue, TaskQueueProxy, TaskQueueService

__all__ = ["WorkloadEngine"]

COMPONENT_KINDS = (Picker, Bundler, Replicator, Verifier)
#: sim-seconds between the supervisor's looks at a drained stream's queue
SUPERVISE_INTERVAL = 10.0
#: claim lease of the engine's queue and components, sim-seconds
LEASE = 60.0
#: a component's back-off after a failed claim, sim-seconds
POLL = 5.0


class WorkloadEngine:
    """The standing data-management service over one grid."""

    def __init__(self, grid, profile: ArrivalProfile, *,
                 lfns: list[str], total: int, rng):
        self.grid = grid
        self.sim = grid.sim
        self.profile = profile
        #: requests arrive at the catalog host; every other site is a
        #: destination
        self.origin = grid.catalog_host
        self.dest_sites = sorted(
            name for name in grid.sites if name != self.origin
        )
        if not self.dest_sites:
            raise ValueError("workload engine needs at least one destination")
        self.supervise_interval = SUPERVISE_INTERVAL

        # the queue service, co-hosted with the catalog
        self.service = TaskQueueService(
            grid.sites[grid.catalog_host].request_server,
            metrics=grid.metrics,
            default_lease=LEASE,
        )
        self.proxies = {
            name: TaskQueueProxy(
                grid.sites[name].request_client, grid.catalog_host
            )
            for name in sorted(grid.sites)
        }

        # one full component set per destination site
        self.components: dict[str, PipelineComponent] = {}
        for name in self.dest_sites:
            site = grid.sites[name]
            for kind in COMPONENT_KINDS:
                component = kind(
                    self.sim, self.proxies[name], site,
                    poll=POLL, lease=LEASE, metrics=grid.metrics,
                )
                self.components[component.name] = component
        grid.metrics.add_section(SETS_IN_FLIGHT_SECTION)

        # the arrival stream, admitted at the origin's proxy
        self.arrivals = ArrivalGenerator(
            self.sim, self.proxies[self.origin], profile,
            lfns=list(lfns), dest_sites=self.dest_sites,
            rng=rng, total=total, metrics=grid.metrics,
        )

        self.done = self.sim.event()
        self._started = False
        grid.workload = self   # fault-injector discovery point

    @property
    def queue(self) -> TaskQueue:
        """Direct (experiment-side) view of the queue state."""
        return self.service.queue

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Spawn the arrival generator, every component, and the
        supervisor that triggers ``done`` at convergence."""
        if self._started:
            raise RuntimeError("workload engine already started")
        self._started = True
        self.sim.spawn(self.arrivals.run(), name="workload-arrivals")
        for name in sorted(self.components):
            self.components[name].start()
        self.sim.spawn(self._supervise(), name="workload-supervisor")

    def component(self, name: str) -> PipelineComponent:
        """Look up a component by fault-target name (``picker@anl``)."""
        try:
            return self.components[name]
        except KeyError:
            raise KeyError(f"no workload component {name!r}") from None

    def _supervise(self):
        """Fire ``done`` once arrivals finished and the queue is terminal."""
        yield self.arrivals.done
        while True:
            if self.queue.terminal():
                break
            yield self.sim.timeout(self.supervise_interval)
        self.done.succeed()

    # -- reporting --------------------------------------------------------
    def fingerprint(self) -> str:
        """Canonical queue+admission state (the determinism gate input)."""
        lines = [self.queue.fingerprint()]
        lines.append(
            f"arrivals generated={self.arrivals.generated} "
            f"admitted={self.arrivals.admitted} ticks={self.arrivals.ticks} "
            f"picks={self.arrivals.pick_tasks}"
        )
        for vo, stats in sorted(self.arrivals.fairshare.stats.items()):
            lines.append(
                f"vo {vo} offered={stats.offered} admitted={stats.admitted} "
                f"shed={stats.shed} backlog_peak={stats.backlog_peak}"
            )
        bucket = self.arrivals.bucket
        lines.append(
            f"bucket granted={bucket.granted} refused={bucket.refused}"
        )
        lines.extend(
            self.components[name].fingerprint()
            for name in sorted(self.components)
        )
        return "\n".join(lines)

    def summary(self) -> dict:
        """Headline convergence numbers for reports."""
        counts = self.queue.counts()
        return {
            "generated": self.arrivals.generated,
            "admitted": self.arrivals.admitted,
            "shed": sum(
                s.shed for s in self.arrivals.fairshare.stats.values()
            ),
            "tasks": len(self.queue.tasks),
            "done": counts["done"],
            "dead": counts["dead"],
            "pending": counts["pending"],
            "claimed": counts["claimed"],
            "expired_leases": self.queue.stats.expired_leases,
            "coalesced": self.queue.stats.coalesced,
            "leaked_claims": len(self.queue.leaked_claims()),
        }
