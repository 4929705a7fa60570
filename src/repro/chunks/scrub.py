"""The standing scrub/repair pipeline on the claim-based work queue.

Durability is a process, not a property: replicas rot (bit flips, wiped
sites), so a standing audit must find damage and spend the *minimum*
traffic putting it right.  Three pieces, all riding the
:mod:`repro.workload` queue machinery:

``ScrubPlanner``
    Walks the directory's committed objects and submits one keyed
    ``scrub`` task per object per pass.  Keys are *cycle-numbered*
    (``scrub:<object>#c<n>``) — the queue records done/dead keys
    forever, so a bare per-object key would coalesce every later pass
    onto the first pass's finished task and the audit would run once,
    ever.
``Scrubber``
    A :class:`~repro.workload.components.PipelineComponent` claiming
    ``scrub`` tasks.  Probes every recorded chunk replica with a CKSM
    round trip (no data moves; content addressing means the manifest
    predicts every healthy replica's CRC) and submits one keyed
    ``repair`` task when anything is missing, corrupt, or unreachable.
``Repairer``
    Claims ``repair`` tasks.  Re-probes first (the damage may have been
    healed by a racing repair — exactly-once in effect), then fetches
    any ``k`` healthy stripe members, re-encodes *only* the lost
    members, and re-uploads them to their original placement sites.
    Repair traffic is therefore ``(k + lost)/k`` object-sizes instead of
    the ``lost`` whole-object copies naive re-replication would move.
    The honest-traffic rule: witnesses are always re-derived from
    *fetched* chunks, never regenerated from the content key, so the
    simulated network pays what a real repair would.

Both components fail retryably (ServiceError) on transient trouble; the
queue's leases + ``max_attempts`` turn persistent trouble into visible
``dead`` tasks.
"""

from __future__ import annotations

from repro.chunks.gf256 import ReedSolomon
from repro.chunks.manifest import Manifest, chunk_path
from repro.chunks.store import ChunkStoreClient, ChunkStoreError
from repro.services.bus import ServiceError
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry
from repro.workload.components import PipelineComponent

__all__ = ["ScrubPlanner", "Scrubber", "Repairer",
           "scrub_key", "repair_key"]


def scrub_key(object_name: str, cycle: int) -> str:
    """Dedup key of one object's audit in one scrub pass."""
    return f"scrub:{object_name}#c{cycle}"


def repair_key(object_name: str, cycle: int) -> str:
    """Dedup key of one object's repair obligation from one pass."""
    return f"repair:{object_name}#c{cycle}"


class _ChunkWorker(PipelineComponent):
    """What scrubber and repairer share: the site's chunk store, an
    object's manifest, and ``CKSM`` probes of its replicas.  A probe
    ``plan`` maps holder site to ``[(chunk_id, expected_crc)]``; the
    result maps ``(chunk_id, holder)`` to the mover's verdict."""

    def __init__(self, sim, proxy, site, store: ChunkStoreClient, **kwargs):
        super().__init__(sim, proxy, site, **kwargs)
        self.store = store

    def _manifest(self, what: str, object_name: str):
        """Generator: ``(manifest, directory answer)`` for the object."""
        try:
            info = yield self.store.proxy.manifest(object_name)
        except ServiceError as exc:
            raise ChunkStoreError(
                f"{what} of {object_name!r}: manifest unavailable: {exc}"
            ) from exc
        return Manifest.from_wire(info["manifest"]), info

    def _probe(self, plan: dict[str, list[tuple[str, int]]]):
        outcomes: dict[tuple[str, str], str] = {}
        for holder in sorted(plan):
            checks = plan[holder]
            verdicts = yield from self.site.mover.probe(
                holder, [(chunk_path(chunk_id), crc) for chunk_id, crc in checks]
            )
            for (chunk_id, _), verdict in zip(checks, verdicts):
                outcomes[(chunk_id, holder)] = verdict
        return outcomes


class Scrubber(_ChunkWorker):
    """Audit one object's chunk replicas without moving data."""

    NAME = "scrubber"
    TYPE = "scrub"
    BATCH = 4

    def work(self, task: dict):
        object_name = task["payload"]["object"]
        cycle = task["payload"]["cycle"]
        manifest, info = yield from self._manifest("scrub", object_name)
        locations: dict[str, list[str]] = info["locations"]
        plan: dict[str, list[tuple[str, int]]] = {}
        bad: list[list] = []
        for spec in manifest.chunks:
            holders = locations.get(spec.chunk_id) or []
            if not holders:
                # no replica on record at all (e.g. an earlier repair
                # evicted the last copy before its re-upload landed)
                bad.append([spec.chunk_id, "", "lost"])
                continue
            for holder in holders:
                plan.setdefault(holder, []).append(
                    (spec.chunk_id, spec.crc)
                )
        outcomes = yield from self._probe(plan)
        tally: dict[str, int] = {}
        for (chunk_id, holder), outcome in sorted(outcomes.items()):
            tally[outcome] = tally.get(outcome, 0) + 1
            if outcome != "ok":
                bad.append([chunk_id, holder, outcome])
        for _ in (entry for entry in bad if entry[2] == "lost"):
            tally["lost"] = tally.get("lost", 0) + 1
        for outcome, amount in sorted(tally.items()):
            self.metrics.counter("chunks.scrub", outcome=outcome).inc(amount)
        if bad:
            yield self.proxy.submit(
                "repair", task["site"],
                {"object": object_name, "cycle": cycle, "bad": bad},
                key=repair_key(object_name, cycle),
            )
        return {"checked": len(outcomes), "bad": len(bad)}


class Repairer(_ChunkWorker):
    """Re-encode and re-place exactly the lost stripe members."""

    NAME = "repairer"
    TYPE = "repair"
    BATCH = 1

    def work(self, task: dict):
        object_name = task["payload"]["object"]
        reported: list[list] = task["payload"]["bad"]
        manifest, info = yield from self._manifest("repair", object_name)
        locations: dict[str, list[str]] = info["locations"]
        targets: dict[str, str] = info["targets"]
        # re-verify before spending traffic: a racing repair (lease
        # expiry re-ran the task) may already have healed the damage
        plan: dict[str, list[tuple[str, int]]] = {}
        for chunk_id, holder, _ in reported:
            if holder:
                plan.setdefault(holder, []).append(
                    (chunk_id, manifest.spec_by_id(chunk_id).crc)
                )
        outcomes = yield from self._probe(plan)
        still_bad: list[tuple[str, str, str]] = []
        for chunk_id, holder, outcome in reported:
            if not holder:
                if not locations.get(chunk_id):
                    still_bad.append((chunk_id, "", "lost"))
                continue
            verdict = outcomes.get((chunk_id, holder), "missing")
            if verdict != "ok":
                still_bad.append((chunk_id, holder, verdict))
        healed = len(reported) - len(still_bad)
        if healed:
            self.metrics.counter(
                "chunks.repair", event="already_healed"
            ).inc(healed)
        if not still_bad:
            return {"repaired": 0, "healed": healed}
        bad_ids = {chunk_id for chunk_id, _, _ in still_bad}
        missing_indices = sorted(
            spec.index for spec in manifest.chunks
            if spec.chunk_id in bad_ids
        )
        # the honest-traffic rule: rebuild from k *fetched* members
        shards, fetched, _ = yield from self.store.fetch_stripe(
            manifest, locations, skip=bad_ids
        )
        rebuilt = ReedSolomon(manifest.k, manifest.m).reconstruct(
            shards, missing_indices
        )
        per_site: dict[str, list[tuple[str, bytes]]] = {}
        for index in missing_indices:
            spec = manifest.chunks[index]
            per_site.setdefault(targets[spec.chunk_id], []).append(
                (spec.chunk_id, rebuilt[index])
            )
        placements, uploaded = yield from self.store.upload_chunks(
            per_site, manifest.chunk_size
        )
        removed = [
            (chunk_id, holder)
            for chunk_id, holder, _ in still_bad if holder
        ]
        try:
            yield self.store.proxy.repair_done(
                object_name, repaired=placements, removed=removed
            )
        except ServiceError as exc:
            raise ChunkStoreError(
                f"repair_done for {object_name!r} failed: {exc}"
            ) from exc
        for event, amount in (
            ("chunks_rebuilt", len(placements)),
            ("bytes_fetched", fetched),
            ("bytes_uploaded", uploaded),
            ("objects", 1),
        ):
            if amount:
                self.metrics.counter("chunks.repair", event=event).inc(amount)
        self.store.purge_staging()
        return {"repaired": len(placements), "healed": healed,
                "bytes_fetched": fetched, "bytes_uploaded": uploaded}


class ScrubPlanner:
    """Submit one keyed ``scrub`` task per committed object per pass."""

    def __init__(self, directory_proxy, queue_proxy,
                 scrub_sites: list[str], *,
                 metrics: MetricsRegistry = NO_METRICS):
        if not scrub_sites:
            raise ValueError("need at least one scrub site")
        self.directory_proxy = directory_proxy
        self.queue_proxy = queue_proxy
        self.scrub_sites = sorted(scrub_sites)
        self.metrics = metrics
        self.cycle = 0
        self.passes = 0

    def run_pass(self):
        """Generator: one audit pass, in the driving process; returns how
        many scrub tasks it submitted."""
        self.cycle += 1
        cycle = self.cycle
        objects = yield self.directory_proxy.list_objects()
        tasks = [
            {
                "type": "scrub",
                # deterministic round-robin over the scrub fleet
                "site": self.scrub_sites[i % len(self.scrub_sites)],
                "key": scrub_key(object_name, cycle),
                "payload": {"object": object_name, "cycle": cycle},
            }
            for i, object_name in enumerate(objects)
        ]
        if tasks:
            yield self.queue_proxy.submit_bulk(tasks)
        self.passes += 1
        self.metrics.counter("chunks.scrub_passes").inc()
        return len(tasks)
