"""Open-loop arrival generation for the workload engine.

Models the production-style request stream of the "Simulation Study for
T0/T1 Data Replication": users across virtual organisations ask for
logical files at their sites at a configured aggregate rate, optionally
modulated by a diurnal profile.  The stream is *open-loop* — arrivals do
not wait for the pipeline; they are offered to admission control and
either released (as batched ``pick`` tasks to the queue) or shed at the
per-VO backlog cap.

Scale discipline: one million requests must cost neither one million
events nor one million envelopes.  The generator ticks once per
``profile.tick`` sim-seconds; each tick draws per-VO Poisson arrival
*counts* and distributes them over (destination, file) categories with a
single multinomial draw, and each drain flushes per-destination demand
as one bulk ``pick`` task carrying an ``lfn → count`` multiplicity map.
All randomness comes from one named :class:`RandomStream`, so the whole
stream is a pure function of (seed, profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.services.bus import ServiceError
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry
from repro.workload.admission import FairShareAdmission, TokenBucket

__all__ = ["ArrivalProfile", "ArrivalGenerator"]

#: Length of one diurnal cycle, sim-seconds.
DIURNAL_PERIOD = 3600.0
#: Zipf exponent of file popularity over the supplied file list.
POPULARITY_ALPHA = 1.1
#: Virtual organisations and their relative request weights.
VO_MIX = (("atlas", 3.0), ("cms", 2.0), ("alice", 1.0))


@dataclass(frozen=True)
class ArrivalProfile:
    """Shape of the request stream."""

    rate: float = 400.0                  # aggregate requests / sim-second
    tick: float = 30.0                   # admission tick, sim-seconds
    diurnal_amplitude: float = 0.0       # 0..1; 0 = flat rate
    admit_rate: float = 600.0            # token-bucket refill, requests/s
    admit_burst: float = 20_000.0        # token-bucket capacity

    def shares(self) -> dict[str, float]:
        """Normalised VO shares, sorted by name."""
        total = sum(w for _, w in VO_MIX)
        return {vo: w / total for vo, w in sorted(VO_MIX)}

    def diurnal(self, now: float) -> float:
        """Rate multiplier at sim time ``now``."""
        if self.diurnal_amplitude <= 0.0:
            return 1.0
        return 1.0 + self.diurnal_amplitude * math.sin(
            2.0 * math.pi * now / DIURNAL_PERIOD
        )


class ArrivalGenerator:
    """The standing arrival/admission process.

    Each tick: draw per-VO Poisson arrivals, offer them to fair-share
    admission, take a token-bucket budget, drain deficit-round-robin,
    and flush the released demand to the queue as one ``pick`` task per
    destination site.  Runs until ``total`` requests have been generated
    *and* the admission backlog has drained (sheds excepted) *and* the
    queue has taken every task released.
    """

    def __init__(self, sim, proxy, profile: ArrivalProfile, *,
                 lfns: list[str], dest_sites: list[str],
                 rng, total: int, metrics: MetricsRegistry = NO_METRICS):
        self.sim = sim
        self.proxy = proxy
        self.profile = profile
        self.rng = rng
        self.total = int(total)
        self.metrics = metrics
        self.dest_sites = sorted(dest_sites)
        self.lfns = list(lfns)
        if not self.lfns or not self.dest_sites:
            raise ValueError("arrival generator needs files and destinations")

        self.bucket = TokenBucket(profile.admit_rate, profile.admit_burst)
        self.fairshare = FairShareAdmission(dict(VO_MIX))
        # fixed (dest, lfn) category grid: destinations uniform, files
        # Zipf-popular by position in the supplied list
        pop = [1.0 / (rank + 1) ** POPULARITY_ALPHA
               for rank in range(len(self.lfns))]
        pop_total = sum(pop)
        self._categories = [
            (dest, lfn) for dest in self.dest_sites for lfn in self.lfns
        ]
        self._probs = [
            (p / pop_total) / len(self.dest_sites)
            for _ in self.dest_sites for p in pop
        ]
        #: the draw's rows, last category first: a chunk is built in this
        #: order once and then consumed from its end
        self._backwards = np.array(sorted(
            range(len(self._categories)),
            key=self._categories.__getitem__, reverse=True,
        ))
        #: per-VO FIFO of per-tick demand chunks, each a list of
        #: ``[(dest, lfn), count]`` with the smallest category last;
        #: fair-share releases counts, these remember what they were for
        self._chunks: dict[str, list[list]] = {
            vo: [] for vo in self.fairshare.weights
        }
        #: released pick tasks the queue has not taken yet, offered again
        #: each tick, keys and all (a key it already holds coalesces)
        self._unsent: list[dict] = []
        self.generated = 0
        self.admitted = 0
        self.ticks = 0
        self.pick_tasks = 0
        self.done = sim.event()

    # -- one tick ---------------------------------------------------------
    def _draw_arrivals(self) -> None:
        """Poisson per-VO arrival counts for this tick, multinomially
        spread over the (dest, lfn) grid, offered to admission."""
        profile = self.profile
        lam = profile.rate * profile.diurnal(self.sim.now) * profile.tick
        for vo, share in profile.shares().items():
            if self.generated >= self.total:
                break
            n = int(self.rng.poisson(lam * share))
            n = min(n, self.total - self.generated)
            if n <= 0:
                continue
            self.generated += n
            self.metrics.counter("workload.arrivals", vo=vo).inc(n)
            accepted = self.fairshare.offer(vo, n)
            if accepted < n:
                self.metrics.counter(
                    "workload.arrivals_shed", vo=vo
                ).inc(n - accepted)
            if accepted <= 0:
                continue
            counts = self.rng.multinomial(accepted, self._probs)
            rows = self._backwards[counts[self._backwards] > 0]
            categories = self._categories
            self._chunks[vo].append([
                [categories[i], c]
                for i, c in zip(rows.tolist(), counts[rows].tolist())
            ])

    def _pop_demand(self, vo: str, n: int) -> dict:
        """Consume ``n`` released requests from ``vo``'s chunk FIFO, in
        arrival order (sorted categories within a chunk)."""
        demand: dict = {}
        fifo = self._chunks[vo]
        while n > 0 and fifo:
            chunk = fifo[0]
            while n > 0 and chunk:
                entry = chunk[-1]
                cat, count = entry
                take = count if count < n else n
                if take == count:
                    chunk.pop()
                else:
                    entry[1] = count - take
                demand[cat] = demand.get(cat, 0) + take
                n -= take
            if not chunk:
                fifo.pop(0)
        return demand

    def _drain(self):
        """Token-bucket budget → fair-share drain → bulk pick tasks."""
        self._release()
        if not self._unsent:
            return
        tasks, self._unsent = self._unsent, []
        try:
            yield self.proxy.submit_bulk(tasks)
        except ServiceError:
            self._unsent = tasks  # the queue's host may be down: next tick

    def _release(self) -> None:
        """This tick's released demand, as pick tasks in ``_unsent``."""
        backlog = self.fairshare.backlog()
        if backlog == 0:
            return
        budget = self.bucket.take(self.sim.now, backlog)
        if budget <= 0:
            return
        released = self.fairshare.drain(budget)
        # merge all VOs' released demand into per-destination maps
        per_dest: dict[str, dict[str, int]] = {}
        for vo, count in released:
            self.admitted += count
            if count:
                self.metrics.counter("workload.admitted", vo=vo).inc(count)
            for (dest, lfn), c in sorted(self._pop_demand(vo, count).items()):
                per_dest.setdefault(dest, {})
                per_dest[dest][lfn] = per_dest[dest].get(lfn, 0) + c
        for dest in sorted(per_dest):
            serial = self.sim.next_serial("workload-pick")
            self._unsent.append({
                "type": "pick",
                "site": dest,
                "key": f"pick:{dest}:{serial}",
                "payload": {"demand": per_dest[dest]},
            })
            self.pick_tasks += 1

    # -- the process body -------------------------------------------------
    def run(self):
        """Generator body: tick until generated == total and backlog == 0."""
        while True:
            if self.generated < self.total:
                self._draw_arrivals()
            yield from self._drain()
            self.ticks += 1
            if (self.generated >= self.total
                    and self.fairshare.backlog() == 0 and not self._unsent):
                break
            yield self.sim.timeout(self.profile.tick)
        self.done.succeed()
