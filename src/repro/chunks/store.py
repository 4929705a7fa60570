"""The per-site chunk store client: DFS-style upload and k-of-n read.

``put_object`` is the write path: purge abandoned staging debris, build
the manifest locally (pure computation — the directory rebuilds it
independently and would reject a disagreeing shape), ``chunk.init`` for
targets + the dedup-filtered upload list, stage each needed chunk
locally and store it at its placement site through the site's data mover
— weather-aware order, per-chunk CKSM verification, and a
verify-don't-trust handler for the 553 "file exists" race — then
``chunk.commit`` exactly once.

``fetch_object`` is the read path: pull the manifest, rank every
``(chunk, holder site)`` pair by predicted transfer time (data chunks
ahead of parity so the systematic passthrough wins when the stripe is
healthy), fetch with ranked failover until any ``k`` stripe members are
on local disk, verify each witness against its content address, decode,
check the object fingerprint, and materialize the file.

All failures surface as :class:`ChunkStoreError`, a
:class:`~repro.gdmp.request_manager.GdmpError` subclass, so the scrub /
repair pipeline components treat them as retryable task failures rather
than crashes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.chunks.directory import ChunkDirectoryProxy
from repro.chunks.gf256 import ReedSolomon
from repro.chunks.manifest import (
    Manifest,
    build_manifest,
    chunk_content_id,
    chunk_path,
    object_fingerprint,
)
from repro.gdmp.data_mover import DataMoverError, SessionTable
from repro.gdmp.replica_selection import estimate_transfer_time
from repro.gdmp.request_manager import GdmpError
from repro.netsim.topology import RouteError
from repro.services.bus import ServiceError
from repro.simulation.kernel import Process
from repro.telemetry.metrics import NO_METRICS, MetricsRegistry

__all__ = ["ChunkStoreClient", "ChunkStoreError", "PutReport", "FetchReport"]

#: where in-flight chunk files live on local disk; anything under this
#: prefix at the start of an operation is debris from an abandoned run
STAGE_PREFIX = "stage/chunks/"


class ChunkStoreError(GdmpError):
    """A chunk operation failed (retryable at the task layer)."""


class StripeShortfall(ChunkStoreError):
    """Fewer than ``k`` members of a stripe could be fetched."""

    def __init__(self, manifest, reachable: int, errors: list[str]):
        super().__init__(
            f"stripe of {manifest.object!r} unrecoverable: only "
            f"{reachable} of {manifest.k} members reachable"
        )
        self.reachable = reachable
        #: why each chunk that could not be fetched could not
        self.errors = errors


@dataclass(frozen=True)
class PutReport:
    """Accounting for one completed ``put_object``."""

    object: str
    fingerprint: str
    chunks_uploaded: int
    chunks_deduped: int
    bytes_uploaded: float
    duration: float


@dataclass(frozen=True)
class FetchReport:
    """Accounting for one completed ``fetch_object``."""

    object: str
    fingerprint: str
    chunks_fetched: int
    failovers: int          # (chunk, site) attempts that failed over
    decoded: bool           # False = systematic passthrough, no math
    bytes_fetched: float
    duration: float


class ChunkStoreClient:
    """Chunked transfer endpoint at one site."""

    def __init__(self, site, proxy: ChunkDirectoryProxy, topology, *,
                 metrics: MetricsRegistry = NO_METRICS, weather=None):
        self.site = site                # GdmpSite runtime
        self.sim = site.sim
        self.proxy = proxy
        self.topology = topology
        self.metrics = metrics
        #: optional SiteWeather: history-aware transfer-time estimates
        self.weather = weather

    # -- shared plumbing ----------------------------------------------------
    def _count(self, event: str, value: float = 1) -> None:
        self.metrics.counter(
            "chunks.store", site=self.site.name, event=event,
        ).inc(value)

    def purge_staging(self) -> int:
        """Remove abandoned in-flight chunk files (crash debris).  Chunk
        staging is content-addressed, so debris is never *wrong* content —
        but it pins disk space and, left in place, would make a later
        stage-create collide; every operation starts clean."""
        debris = self.site.fs.listing(STAGE_PREFIX)
        for stored in debris:
            self.site.fs.delete(stored.path)
        if debris:
            self._count("staging_purged", len(debris))
        return len(debris)

    def _estimate(self, src: str, dst: str, size: float) -> float:
        """Predicted seconds to move ``size`` bytes; unroutable pairs
        rank last rather than erroring (failover may still succeed)."""
        try:
            return estimate_transfer_time(
                self.topology, src, dst, size, weather=self.weather
            ).estimated_time
        except (RouteError, KeyError):
            return float("inf")

    def _upload_chunk(self, sessions: SessionTable, target: str,
                      chunk_id: str, witness: bytes, size: float):
        """Generator: stage one chunk and ``put`` it, verified, at
        ``target`` (content addressing: the right CRC is the right
        content); returns the bytes sent."""
        fs, stage = self.site.fs, STAGE_PREFIX + chunk_id
        if fs.exists(stage):
            fs.delete(stage)
        fs.create(stage, size, content_id=chunk_content_id(chunk_id),
                  now=self.sim.now, payload=witness)
        try:
            sent, verified = yield from self.site.mover.put(
                sessions, target, stage, chunk_path(chunk_id),
                on_evict=lambda: self._count("evicted_bad_replica"),
            )
        except DataMoverError as exc:
            raise ChunkStoreError(
                f"upload of {chunk_id} failed: {exc}"
            ) from exc
        finally:
            if fs.exists(stage):
                fs.delete(stage)
        if not verified:
            raise ChunkStoreError(
                f"chunk {chunk_id} CRC still wrong after re-upload"
            )
        return sent

    def upload_chunks(self, per_site: dict[str, list[tuple[str, bytes]]],
                      size: float):
        """Upload witnesses to their target sites, one conversation per
        site, cheapest-looking site first.  Generator; returns
        ``(placements, bytes_uploaded)``.  Shared by ``put_object`` and
        the repair worker."""
        order = sorted(
            per_site,
            key=lambda s: (self._estimate(self.site.name, s, size), s),
        )
        placements: list[tuple[str, str]] = []
        bytes_uploaded = 0.0
        sessions = SessionTable(self.site.mover)
        for target in order:
            try:
                # dial before staging anything: a failed dial is no upload's
                yield from sessions.session(target)
            except DataMoverError as exc:
                raise ChunkStoreError(
                    f"connect to {target!r} failed: {exc.__cause__}"
                ) from exc
            try:
                for chunk_id, witness in per_site[target]:
                    bytes_uploaded += yield from self._upload_chunk(
                        sessions, target, chunk_id, witness, size
                    )
                    placements.append((chunk_id, target))
            finally:
                yield from sessions.done(target)
        return placements, bytes_uploaded

    # -- write path ---------------------------------------------------------
    def put_object(self, object_name: str, size: float, content_key: str,
                   k: int, m: int) -> Process:
        """Chunk, erasure-code, place, verify, and commit one object."""

        def run():
            started = self.sim.now
            self.purge_staging()
            manifest, witnesses = build_manifest(
                object_name, size, content_key, k, m
            )
            try:
                init = yield self.proxy.init(
                    object_name, size, content_key, k, m
                )
            except ServiceError as exc:
                raise ChunkStoreError(f"chunk.init failed: {exc}") from exc
            targets: dict[str, str] = init["targets"]
            needed = set(init["needed"])
            per_site: dict[str, list[tuple[str, bytes]]] = {}
            for spec in manifest.chunks:
                if spec.chunk_id in needed:
                    per_site.setdefault(targets[spec.chunk_id], []).append(
                        (spec.chunk_id, witnesses[spec.chunk_id])
                    )
            placements, bytes_uploaded = yield from self.upload_chunks(
                per_site, manifest.chunk_size
            )
            try:
                yield self.proxy.commit(object_name, placements)
            except ServiceError as exc:
                raise ChunkStoreError(f"chunk.commit failed: {exc}") from exc
            deduped = len(manifest.chunks) - len(needed)
            self._count("chunks_uploaded", len(placements))
            if deduped:
                self._count("chunks_deduped", deduped)
            self._count("put_bytes", bytes_uploaded)
            self._count("objects_put")
            return PutReport(
                object=object_name,
                fingerprint=manifest.fingerprint,
                chunks_uploaded=len(placements),
                chunks_deduped=deduped,
                bytes_uploaded=bytes_uploaded,
                duration=self.sim.now - started,
            )

        return self.sim.spawn(
            run(), name=f"chunk-put {object_name}@{self.site.name}"
        )

    # -- read path ----------------------------------------------------------
    def _ranked_sources(self, manifest: Manifest,
                        locations: dict[str, list[str]]):
        """(spec, [sites cheapest-first]) per chunk: data chunks first
        (systematic decode is free), then parity; local replicas rank
        ahead of everything by construction (zero network estimate)."""
        ranked = []
        for spec in list(manifest.data_chunks) + list(manifest.parity_chunks):
            holders = locations.get(spec.chunk_id, [])
            ordered = sorted(
                holders,
                key=lambda s: (
                    0.0 if s == self.site.name
                    else self._estimate(s, self.site.name,
                                        manifest.chunk_size),
                    s,
                ),
            )
            ranked.append((spec, ordered))
        return ranked

    def _fetch_chunk(self, spec, sites: list[str], size: float):
        """One chunk from the cheapest holder that actually delivers it.
        Generator; returns ``(witness, bytes_fetched, failovers)`` or
        raises :class:`ChunkStoreError` when every holder fails."""
        local = STAGE_PREFIX + spec.chunk_id
        failovers = 0
        for source in sites:
            if self.site.fs.exists(local):
                self.site.fs.delete(local)
            if source == self.site.name:
                held = self.site.fs.listing(chunk_path(spec.chunk_id))
                if held and held[0].crc == spec.crc:
                    return held[0].payload, 0.0, failovers
                failovers += 1
                continue
            try:
                report = yield from self.site.mover.fetch(
                    source,
                    chunk_path(spec.chunk_id),
                    local,
                    expected_crc=spec.crc,
                )
            except DataMoverError:
                failovers += 1
                self._count("fetch_failover")
                continue
            witness = report.stored.payload
            if (witness is None or hashlib.blake2b(
                    witness, digest_size=16).hexdigest() != spec.chunk_id):
                # CRC passed but the witness does not hash to the content
                # address: a tampered payload — treat the replica as bad
                self.site.fs.delete(local)
                failovers += 1
                self._count("witness_mismatch")
                continue
            return witness, report.stored.size, failovers
        raise ChunkStoreError(
            f"no live replica of chunk {spec.chunk_id} "
            f"(tried {len(sites)} sites)"
        )

    def fetch_object(self, object_name: str, local_path: str) -> Process:
        """Reconstruct one object from any k available chunk replicas."""

        def run():
            started = self.sim.now
            self.purge_staging()
            try:
                info = yield self.proxy.manifest(object_name)
            except ServiceError as exc:
                raise ChunkStoreError(
                    f"chunk.manifest failed: {exc}"
                ) from exc
            manifest = Manifest.from_wire(info["manifest"])
            try:
                shards, bytes_fetched, failovers = yield from self.fetch_stripe(
                    manifest, info["locations"]
                )
            except StripeShortfall as short:
                self._count("fetch_failed")
                raise ChunkStoreError(
                    f"cannot reconstruct {object_name!r}: only "
                    f"{short.reachable} of {manifest.k} chunks reachable "
                    f"({'; '.join(short.errors)})"
                ) from short
            decoded = sorted(shards)[: manifest.k] != list(range(manifest.k))
            coder = ReedSolomon(manifest.k, manifest.m)
            data = coder.decode(shards)
            fingerprint = object_fingerprint(data, manifest.size)
            if fingerprint != manifest.fingerprint:
                self._count("fetch_failed")
                raise ChunkStoreError(
                    f"reconstruction of {object_name!r} does not match the "
                    f"manifest fingerprint"
                )
            self.purge_staging()
            if self.site.fs.exists(local_path):
                self.site.fs.delete(local_path)
            self.site.fs.create(
                local_path, manifest.size,
                content_id=manifest.content_key,
                now=self.sim.now,
            )
            self._count("fetch_bytes", bytes_fetched)
            self._count("objects_fetched")
            if decoded:
                self._count("decodes")
            return FetchReport(
                object=object_name,
                fingerprint=fingerprint,
                chunks_fetched=len(shards),
                failovers=failovers,
                decoded=decoded,
                bytes_fetched=bytes_fetched,
                duration=self.sim.now - started,
            )

        return self.sim.spawn(
            run(), name=f"chunk-fetch {object_name}@{self.site.name}"
        )

    # -- repair support ------------------------------------------------------
    def fetch_stripe(self, manifest: Manifest,
                     locations: dict[str, list[str]],
                     skip: Optional[set[str]] = None):
        """Any ``k`` stripe members onto local disk (to decode or
        re-encode).  ``skip`` marks chunk ids known bad (don't waste
        fetches).  Generator; returns ``({index: witness},
        bytes_fetched, failovers)``, or raises :class:`StripeShortfall`."""
        shards: dict[int, bytes] = {}
        bytes_fetched = 0.0
        failovers = 0
        errors = []
        for spec, sites in self._ranked_sources(manifest, locations):
            if len(shards) >= manifest.k:
                break
            if skip and spec.chunk_id in skip:
                continue
            try:
                witness, nbytes, hops = yield from self._fetch_chunk(
                    spec, sites, manifest.chunk_size
                )
            except ChunkStoreError as exc:
                errors.append(str(exc))
                continue
            shards[spec.index] = witness
            bytes_fetched += nbytes
            failovers += hops
        if len(shards) < manifest.k:
            raise StripeShortfall(manifest, len(shards), errors)
        return shards, bytes_fetched, failovers
