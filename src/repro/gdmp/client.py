"""The GDMP client API (§4.1).

"GDMP client APIs provide four main services to the end-user:

* subscribing to a remote site for getting informed when new files are
  created and made public,
* publishing new files and thus making them available and accessible to
  the Grid,
* obtaining a remote site's file catalog for failure recovery, and
* transferring files from a remote location to the local site."

``replicate_set`` implements the full §4.1 pipeline once: locate
(catalog) -> select source (cost function) -> stage at source (MSS) ->
pre-process -> GridFTP transfer with CRC + restart recovery ->
post-process (e.g. Objectivity attach) -> register the new replicas in
the catalog.  ``replicate`` is a transfer set of one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from repro.gdmp.config import GdmpConfig
from repro.gdmp.data_mover import DataMover, SessionTable
from repro.gdmp.failover import failover_walk, ranked_sources
from repro.gdmp.plugins import PluginRegistry
from repro.gdmp.replica_service import BULK_ITEM_SIZE, CatalogProxy
from repro.gdmp.request_manager import (
    REQUEST_MESSAGE_SIZE,
    GdmpError,
    RequestClient,
)
from repro.gdmp.server import GdmpServer
from repro.gdmp.storage_manager import StorageManager
from repro.netsim.topology import Topology
from repro.services.bus import RemoteCallError, ServiceError
from repro.services.tracelog import TraceLog
from repro.simulation.kernel import Process, Simulator
from repro.storage.filesystem import StoredFile

__all__ = ["GdmpClient", "ReplicationReport"]

#: a release its source did not hear is sent again after this pause,
#: doubled per resend, at most this many times
RELEASE_RESEND_PAUSE = 5.0
RELEASE_RESENDS = 6


@dataclass(frozen=True)
class ReplicationReport:
    """Accounting for one completed replication."""

    lfn: str
    source: str
    destination: str
    size: float
    #: a set member's: from its turn in the set to its bytes being
    #: held (stage + transfer + post-process); :meth:`GdmpClient.
    #: replicate`'s: from the call until the set closed (locate -> ...
    #: -> register)
    total_duration: float
    transfer_duration: float
    stage_wait: float
    attempts: int
    crc_retries: int
    streams: int
    buffer: int
    stored: StoredFile
    failed_sources: tuple[str, ...] = ()

    @property
    def throughput(self) -> float:
        """End-to-end goodput including all pipeline overheads."""
        return self.size / self.total_duration if self.total_duration > 0 else 0.0


class _TransferSet:
    """The control-plane work one :meth:`GdmpClient.replicate_set` shares
    across its files: per source, one GridFTP session (the set's
    :class:`SessionTable`), one staging wave and one list of pins to
    hand back.

    Always a local of the set's own process, never state on the client
    or the mover: a set orphaned by a component crash keeps running
    beside its re-claimed re-run, and each must hang up only its own
    sessions and release only its own pins.
    """

    def __init__(self, client: "GdmpClient", streams: Optional[int],
                 tcp_buffer: Optional[int]):
        self.client = client
        self.sessions = SessionTable(
            client.mover, tcp_buffer or client.config.tcp_buffer,
            streams or client.config.parallel_streams, cache=True,
        )
        #: lfn -> (source, leg) for every file the wave asked about; a
        #: leg is a process that *returns* {lfn: stage answer} for the
        #: files its source pinned, never raises
        self._wave: dict[str, tuple[str, Process]] = {}
        #: source -> LFNs pinned there for this set, by the wave or at
        #: a file's turn
        self._pins: dict[str, list[str]] = {}
        self.prestaged = 0   # files that found the wave's answer waiting
        self.restaged = 0    # files that had to ask at their turn
        self.warm = 0        # files whose data channels opened warm

    def counts(self) -> dict:
        """The set's span attributes."""
        return {
            "sessions": len(self.sessions.open),
            "prestaged": self.prestaged,
            "restaged": self.restaged,
            "warm": self.warm,
        }

    def prestage(self, infos, prefer_site: Optional[str]) -> None:
        """The staging wave: ask each file's likely source, in one
        envelope per source, to pin its files now and to start bringing
        the ones on tape to disk — tape mounts overlap each other and
        the transfers, and a file on disk finds its answer waiting at
        its turn.  Nothing is awaited here."""
        client = self.client
        per_source: dict[str, list[str]] = {}
        for info in infos:
            try:
                likely = ranked_sources(
                    client.topology, info.locations, client.site, info.size,
                    prefer_site=prefer_site, weather=client.weather,
                )[0].site
            except GdmpError:
                continue  # no usable source: the file says so at its turn
            per_source.setdefault(likely, []).append(info.lfn)
        for source, lfns in per_source.items():
            leg = client.sim.spawn(
                self._prestage_leg(source, lfns),
                name=f"gdmp-prestage x{len(lfns)}@{source}",
            )
            for lfn in lfns:
                self._wave[lfn] = (source, leg)

    def stage(self, source: str, lfns: list, ahead: bool = False):
        """Generator: one ``request_stage`` envelope of the set's.  Every
        pin it takes goes on the set's list — and every pin it *may* have
        taken, when no reply came: no reply is not no pins, and releasing
        a file that is not pinned changes nothing."""
        try:
            answers = yield from self.client._stage_call(
                source, "request_stage", lfns, ahead
            )
        except ServiceError as exc:
            if exc.retryable:
                self._pins.setdefault(source, []).extend(lfns)
            raise
        self._pins.setdefault(source, []).extend(
            lfn for lfn, answer in answers.items() if "error" not in answer
        )
        return answers

    def _prestage_leg(self, source: str, lfns: list):
        try:
            answers = yield from self.stage(source, lfns, ahead=True)
        except ServiceError:
            return {}  # forgotten: each file asks again at its turn
        return {
            lfn: answer for lfn, answer in answers.items()
            if "error" not in answer
        }

    def take_prestaged(self, source: str, lfn: str):
        """Generator: the wave's stage answer for ``lfn`` if it asked
        ``source`` and the source had the file on disk, else None — the
        caller then asks at its turn.  A pin the wave took at another
        source stays on the set's list."""
        asked, leg = self._wave.get(lfn, (None, None))
        if asked == source:
            answer = (yield leg).get(lfn)
            if answer is not None:
                self.prestaged += 1
                return answer
        self.restaged += 1
        return None

    def close(self, member: Optional[Process], registered: list):
        """Generator: the set's end.  Whatever is still in flight lands
        first — when the set is interrupted under it, the file being
        moved (``member``), which keeps its pin and its session until it
        is done, and the wave's legs, whose pins are not known before
        they answer.  Then one ``release`` envelope per source for
        every pin taken, used or not, and the table's goodbyes fly —
        none of them raises — while the deferred registrations of
        ``registered`` flush in one catalog envelope."""
        if member is not None and not member.processed:
            try:
                yield member
            except Exception:
                pass  # its failure is its own
        for _, leg in self._wave.values():
            if not leg.processed:
                yield leg
        client = self.client
        goodbyes = [
            client.sim.spawn(
                client._release(source, lfns), name=f"gdmp-release@{source}"
            )
            for source, lfns in self._pins.items()
        ] + self.sessions.goodbyes()
        try:
            if registered:
                yield client.catalog.add_replicas(registered, client.site)
        finally:
            for goodbye in goodbyes:
                yield goodbye


class GdmpClient:
    """One site's GDMP client commands."""

    def __init__(
        self,
        sim: Simulator,
        site: str,
        config: GdmpConfig,
        topology: Topology,
        request_client: RequestClient,
        catalog: CatalogProxy,
        storage: StorageManager,
        data_mover: DataMover,
        server: GdmpServer,
        plugins: Optional[PluginRegistry] = None,
        site_runtime=None,
        tracelog: Optional[TraceLog] = None,
    ):
        self.sim = sim
        self.site = site
        self.config = config
        self.topology = topology
        self.rpc = request_client
        self.catalog = catalog
        self.storage = storage
        self.mover = data_mover
        self.server = server
        self.plugins = plugins or PluginRegistry()
        self.site_runtime = site_runtime  # GdmpSite, for plugin hooks
        self.tracelog = tracelog
        #: this site's :class:`~repro.observatory.station.SiteWeather`
        #: forecast cache when the grid runs the weather service (wired
        #: by DataGrid); None keeps ranking on the pure-probe path
        self.weather = None
        self.stats = {
            "published": 0,
            "replicated": 0,
            "bytes_replicated": 0.0,
            "replicas_deleted": 0,
            "orphans_purged": 0,
            "release_failures": 0,
        }
        self._replicating: set[str] = set()
        #: source -> LFNs whose release that source did not hear; one
        #: resend leg per source hands them back
        self._unreleased: dict[str, list[str]] = {}
        server.client = self

    @contextmanager
    def _root_span(self, name: str, **attrs):
        """Span a top-level client command: the span becomes the current
        process's ambient context, so every nested call — RPC, GridFTP
        control, transfer flows, catalog update — joins its trace, and
        it closes ``ok`` when the block ends or ``error`` (with the
        exception's text) when anything escapes it.  Yields the span, or
        None without a trace log."""
        if self.tracelog is None:
            yield None
            return
        span = self.tracelog.begin(
            name,
            parent=self.sim.current_context,
            kind="local",
            host=self.site,
            service="gdmp-client",
            **attrs,
        )
        self.sim.active_process.context = span.context
        try:
            yield span
        except BaseException as exc:
            self.tracelog.finish(span, "error", detail=str(exc))
            raise
        self.tracelog.finish(span, "ok")

    # -- service 1: subscribe -------------------------------------------------
    def subscribe_to(self, producer_site: str,
                     filter_text: Optional[str] = None) -> Process:
        """Register this site as a consumer of ``producer_site``'s files.

        ``filter_text`` is an LDAP filter over published file attributes
        (size, filetype, and any user metadata); only matching files are
        notified (§4.2: "Users can specify filters to obtain the exact
        information that they require")."""
        return self.rpc.call(
            producer_site,
            "subscribe",
            {"site": self.site, "filter": filter_text},
        )

    def unsubscribe_from(self, producer_site: str) -> Process:
        """Withdraw this site's subscription at a producer."""
        return self.rpc.call(producer_site, "unsubscribe", {"site": self.site})

    # -- service 2: publish -----------------------------------------------------
    def publish(self, lfn: str, path: str, **attributes) -> Process:
        """Publish an existing local file: register it (and its metadata) in
        the replica catalog and notify all subscribers — a
        :meth:`publish_set` of one.  Returns the LFN."""

        def run():
            (name,) = yield from self._publish_set(
                [{"path": path, "lfn": lfn, "attributes": attributes}],
                "gdmp:publish", lfn=lfn,
            )
            return name

        return self.sim.spawn(run(), name=f"gdmp-publish {lfn}")

    def produce_and_publish(
        self, lfn: str, size: float, payload=None, **attributes
    ) -> Process:
        """Convenience for workloads: create the local file, then publish."""

        def run():
            path = self.config.storage_path(lfn)
            self.storage.pool.ensure_space(size)
            # attributes are stored on the file too, so they travel with
            # replicas (plugins read them at the destination)
            self.storage.fs.create(
                path, size, now=self.sim.now, payload=payload,
                **{k: str(v) for k, v in attributes.items()},
            )
            result = yield self.publish(lfn, path, **attributes)
            return result

        return self.sim.spawn(run(), name=f"gdmp-produce {lfn}")

    # -- service 3: remote catalog for failure recovery ---------------------------
    def get_remote_catalog(self, site: str) -> Process:
        """A remote site's LFN -> path holdings (failure recovery)."""
        return self.rpc.call(site, "get_catalog", {})

    # -- service 4: replication ----------------------------------------------------
    def replicate(
        self,
        lfn: str,
        prefer_site: Optional[str] = None,
        streams: Optional[int] = None,
        tcp_buffer: Optional[int] = None,
    ) -> Process:
        """Create a local replica of ``lfn`` (the §4.1 pipeline): a
        :meth:`replicate_set` of one.

        The file pays a set's whole control conversation alone — one
        ``info_bulk``, one stage request, one GridFTP dial and
        negotiation, one ``add_replicas`` flush, one ``release`` and one
        ``QUIT`` — which is the per-transfer setup cost EXP-GDMP
        measures.  Returns the set's one :class:`ReplicationReport`, its
        ``total_duration`` counted from this call until the set closed.
        """

        def run():
            started = self.sim.now
            (report,) = yield self.replicate_set(
                [lfn], prefer_site, streams, tcp_buffer
            )
            return replace(report, total_duration=self.sim.now - started)

        return self.sim.spawn(run(), name=f"gdmp-replicate {lfn}")

    def _replicate(
        self,
        info,
        prefer_site: Optional[str],
        streams: Optional[int],
        tcp_buffer: Optional[int],
        transfer_set: _TransferSet,
    ) -> Process:
        """The §4.1 pipeline for one file of ``transfer_set``, from its
        already-fetched :class:`LogicalFileInfo`: it rides the set's
        session with its source and the set's staging wave, and leaves
        its pin and its catalog registration to the set's end."""
        lfn = info.lfn
        streams = streams or self.config.parallel_streams
        tcp_buffer = tcp_buffer or self.config.tcp_buffer

        def stage_at(source):
            """The stage answer for this file at ``source``: the wave's
            when it asked this source, else one request of the set's."""
            answer = yield from transfer_set.take_prestaged(source, lfn)
            if answer is not None:
                return answer
            answers = yield from transfer_set.stage(source, [lfn])
            answer = answers[lfn]
            if "error" in answer:
                raise RemoteCallError(
                    "request_stage", source, answer["error"]
                )
            return answer

        def attempt_from(source, local_path):
            """One full attempt against one source.  Returns
            (move_report, stage_wait, transfer_duration)."""
            stage_started = self.sim.now
            staged = yield from stage_at(source)
            stage_wait = self.sim.now - stage_started
            reservation = None
            try:
                # pre-processing (file-type specific)
                plugin = self.plugins.for_info(info)
                yield from plugin.pre_process(self.site_runtime, info)
                # allocate local space, then move the bytes (§4.4: the
                # transfer starts only if the space can be allocated)
                reservation = self.storage.prepare_incoming(local_path, info.size)
                transfer_started = self.sim.now
                report = yield from self.mover.fetch(
                    src_host=source,
                    remote_path=staged["path"],
                    local_path=local_path,
                    expected_crc=info.crc,
                    streams=streams,
                    tcp_buffer=tcp_buffer,
                    sessions=transfer_set.sessions,
                )
                transfer_duration = self.sim.now - transfer_started
                if report.channels == "warm":
                    transfer_set.warm += 1
                # post-processing (e.g. attach to the local federation)
                yield from plugin.post_process(self.site_runtime, report.stored)
            except BaseException:
                if reservation is not None:
                    reservation.release()
                raise
            self.storage.commit_incoming(reservation)
            return report, stage_wait, transfer_duration

        def run():
            started = self.sim.now
            with self._root_span("gdmp:replicate", lfn=lfn):
                if lfn in self._replicating:
                    raise GdmpError(
                        f"{self.site} is already replicating {lfn!r}"
                    )
                self._replicating.add(lfn)
                try:
                    result = yield from replicate_body(started)
                finally:
                    self._replicating.discard(lfn)
            return result

        def replicate_body(started):
            local_path = self.config.storage_path(lfn)
            if self.storage.fs.exists(local_path):
                if lfn in self.server.held:
                    raise GdmpError(f"{self.site} already holds {lfn!r}")
                # a file on disk that was never recorded as held is debris
                # from an earlier attempt interrupted between materializing
                # the bytes and the local bookkeeping (e.g. a host crash
                # mid-pipeline): purge it and transfer afresh, so an
                # interrupted replication converges instead of wedging on
                # "already present"
                self.storage.fs.delete(local_path)
                self.stats["orphans_purged"] += 1

            # source ranking: preferred producer first if it has a replica,
            # then the cost-function order; failed sources are skipped
            # (§4.3's pluggable error recovery: alternate-replica failover)
            ranking = ranked_sources(
                self.topology,
                info.locations,
                self.site,
                info.size,
                prefer_site=prefer_site,
                weather=self.weather,
            )
            if self.weather is not None:
                # provenance accounting: did history or the probe ladder
                # make this selection?
                self.weather.note_selection(
                    "history" if any(s.basis == "history" for s in ranking)
                    else "probe"
                )

            def on_failover(_source, _error):
                self.mover.metrics.counter(
                    "gdmp.mover.failovers", site=self.site
                ).inc()

            (report, stage_wait, transfer_duration), source, failed = (
                yield from failover_walk(
                    [score.site for score in ranking],
                    lambda source: attempt_from(source, local_path),
                    describe=repr(lfn),
                    on_failover=on_failover,
                )
            )
            # the set registers the new replica at its end
            self.server.record_held(lfn, local_path)
            self.stats["replicated"] += 1
            self.stats["bytes_replicated"] += info.size
            return ReplicationReport(
                lfn=lfn,
                source=source,
                destination=self.site,
                size=info.size,
                total_duration=self.sim.now - started,
                transfer_duration=transfer_duration,
                stage_wait=stage_wait,
                attempts=report.attempts,
                crc_retries=report.crc_retries,
                streams=report.streams,
                buffer=report.buffer,
                stored=report.stored,
                failed_sources=tuple(failed),
            )

        return self.sim.spawn(run(), name=f"gdmp-replicate {lfn}")

    def _stage_call(self, source: str, operation: str, lfns: list,
                    ahead: bool = False):
        """Generator: ``request_stage`` / ``release`` for ``lfns`` at
        ``source``, answered per LFN; ``ahead`` marks a set's staging
        wave, which the source answers without waiting for tape.  Pins
        are counted at the source, so the envelope is an exactly-once
        write: a transport retry must not count twice."""
        outcome = yield from self.rpc.invoke(
            source, operation,
            {"lfns": lfns, "ahead": True} if ahead else {"lfns": lfns},
            size=REQUEST_MESSAGE_SIZE + BULK_ITEM_SIZE * (len(lfns) - 1),
            idempotent=True,
        )
        return outcome.payload

    def _release(self, source: str, lfns: list):
        """Generator: hand the transfer pins on ``lfns`` back to
        ``source``.  It never raises: the goodbye must neither mask the
        failure being propagated nor crash a caller that is not waiting
        yet.  A release the source did not hear is remembered and sent
        again by a leg of its own, which nobody waits for."""
        try:
            yield from self._stage_call(source, "release", lfns)
        except ServiceError:
            self.stats["release_failures"] += 1
            unheard = self._unreleased.setdefault(source, [])
            if not unheard:
                self.sim.spawn(self._resend_releases(source),
                               name=f"gdmp-rerelease@{source}")
            unheard.extend(lfns)

    def _resend_releases(self, source: str):
        """Generator, never raises: the releases ``source`` did not hear,
        sent again after a pause that doubles per resend.  As with a
        set's own releases, no reply is not no pins: a file no longer
        pinned answers False and changes nothing."""
        unheard = self._unreleased[source]
        for resend in range(RELEASE_RESENDS):
            yield self.sim.timeout(RELEASE_RESEND_PAUSE * 2 ** resend)
            lfns = list(unheard)
            try:
                yield from self._stage_call(source, "release", lfns)
            except ServiceError:
                continue
            del unheard[:len(lfns)]
            if not unheard:
                break
        del self._unreleased[source]

    def replicate_set(
        self,
        lfns,
        prefer_site: Optional[str] = None,
        streams: Optional[int] = None,
        tcp_buffer: Optional[int] = None,
        skip_held: bool = False,
    ) -> Process:
        """Replicate a whole transfer set, the set being the unit of
        control-plane work.

        Where N calls to :meth:`replicate` would pay N of everything, the
        set pays per *source*: two catalog envelopes (one ``info_bulk``
        up front, one bulk ``add_replicas`` flush at the boundary), one
        ``request_stage`` wave at the start — every file not yet held is
        ranked and its likely source asked to stage and pin it, tape
        mounts overlapping each other and the transfers — one GridFTP
        session per source, dialled and negotiated by the first file
        that needs it, and one ``release`` and one ``QUIT`` per source at
        the end.  A file at its turn is one ``RETR``.

        Files still move one at a time, in input order (a set does not
        share its tail link with itself).  Sets no longer do: a site's
        :class:`~repro.workload.components.Replicator` runs several at
        once, as many as fill its inbound pipe, and each is this call,
        unchanged, with its own sessions and pins.  If a file fails,
        the replicas fetched so far are still registered before the error
        propagates (no replica is left invisible to the grid).  Returns
        the list of :class:`ReplicationReport` in input order.

        ``skip_held`` makes the call re-entrant after an interruption:
        files already held locally are not transferred again, but still
        join the registration flush — ``add_replicas`` is idempotent at
        the catalog, so this repairs a registration that a previous,
        interrupted pass transferred but never managed to flush.
        """
        lfns = list(lfns)

        def run():
            reports: list[ReplicationReport] = []
            registered: list[str] = []
            # a local of this process, never client state: a set orphaned
            # by a component crash keeps running beside its re-run
            transfer_set = _TransferSet(self, streams, tcp_buffer)
            with self._root_span(
                "gdmp:replicate-set", count=len(lfns)
            ) as span:
                if lfns:
                    infos = yield self.catalog.info_bulk(lfns)
                    member = None  # the file being moved
                    try:
                        transfer_set.prestage(
                            [i for i in infos if i.lfn not in self.server.held],
                            prefer_site,
                        )
                        for file_info in infos:
                            if skip_held and file_info.lfn in self.server.held:
                                registered.append(file_info.lfn)
                                continue
                            member = self._replicate(
                                file_info, prefer_site, streams, tcp_buffer,
                                transfer_set,
                            )
                            reports.append((yield member))
                            registered.append(file_info.lfn)
                    finally:
                        # hang up, hand the pins back and flush the
                        # deferred registrations in one envelope — even
                        # when a later file failed mid-set
                        try:
                            yield from transfer_set.close(member, registered)
                        finally:
                            if span is not None:
                                span.attrs.update(transfer_set.counts())
            return reports

        return self.sim.spawn(run(), name=f"gdmp-replicate-set x{len(lfns)}")

    def publish_set(self, specs) -> Process:
        """Publish a set of existing local files in one catalog envelope.

        ``specs`` is a list of dicts with keys ``path``, optional ``lfn``
        (None = automatic generation) and optional ``attributes``.  The
        whole set registers via one ``publish_bulk`` round trip, and each
        subscriber receives a single ``notify`` listing every matching
        file (``attributes`` keyed by LFN).  Returns the LFNs in input
        order.
        """
        specs = list(specs)
        return self.sim.spawn(
            self._publish_set(specs, "gdmp:publish-set", count=len(specs)),
            name=f"gdmp-publish-set x{len(specs)}",
        )

    def _publish_set(self, specs: list, span_name: str, **span_attrs):
        """Generator: the body of :meth:`publish_set` under a root span
        ``span_name``."""
        with self._root_span(span_name, **span_attrs):
            if not specs:
                return []
            stored = [self.storage.fs.stat(spec["path"]) for spec in specs]
            lfns = yield self.catalog.publish_bulk(self.site, [
                {"size": st.size, "modified": st.created_at, "crc": st.crc,
                 "lfn": spec.get("lfn"), "attributes": spec.get("attributes", {})}
                for spec, st in zip(specs, stored)
            ])
            # subscriber -> {lfn: attributes} of the files its filter selects
            news: dict[str, dict[str, dict]] = {}
            for spec, st, lfn in zip(specs, stored, lfns):
                self.server.record_held(lfn, spec["path"])
                self.stats["published"] += 1
                attributes = {
                    "lfn": lfn,
                    "size": f"{st.size:.0f}",
                    **{k: str(v) for k, v in spec.get("attributes", {}).items()},
                }
                for subscriber in self.server.subscribers_for(attributes):
                    news.setdefault(subscriber, {})[lfn] = attributes
            # §4.2: "The subscribers are notified of the existence of new
            # files." — one notification per subscriber for the whole set
            for subscriber in sorted(news):
                yield from self.rpc.invoke(subscriber, "notify", {
                    "producer": self.site, "lfns": list(news[subscriber]),
                    "attributes": news[subscriber],
                })
        return lfns

    def delete_replica(self, lfn: str) -> Process:
        """Reliably delete this site's replica of ``lfn`` (§3.1's replica
        management triad: creation, deletion, management).

        Catalog-first ordering: the replica is deregistered before the
        bytes are freed, so no window exists in which the catalog
        advertises a replica that is already gone.  Pinned files (serving
        an in-flight transfer) are refused.
        """

        def run():
            path = self.server.path_of(lfn)
            if self.storage.pool.pin_count(path) > 0:
                raise GdmpError(
                    f"{lfn!r} is pinned (serving a transfer); retry later"
                )
            detached = False
            stored = self.storage.fs.stat(path)
            yield self.catalog.remove_replica(lfn, self.site)
            if self.site_runtime is not None and hasattr(
                stored.payload, "iter_objects"
            ):
                federation = self.site_runtime.federation
                if federation.is_attached(stored.payload.name):
                    federation.detach(stored.payload.name)
                    detached = True
            self.storage.fs.delete(path)
            del self.server.held[lfn]
            self.stats["replicas_deleted"] += 1
            return {"lfn": lfn, "freed_bytes": stored.size,
                    "detached": detached}

        return self.sim.spawn(run(), name=f"gdmp-delete {lfn}")

    def replicate_missing_from(self, producer: str) -> Process:
        """Failure recovery: diff the producer's catalog against local
        holdings and fetch everything missing (§4.1's recovery use case)."""

        def run():
            remote = yield self.get_remote_catalog(producer)
            missing = sorted(
                lfn for lfn in remote if lfn not in self.server.held
            )
            # the whole recovery set travels as one transfer set: two
            # catalog envelopes instead of two per file
            reports = yield self.replicate_set(missing, prefer_site=producer)
            return reports

        return self.sim.spawn(run(), name=f"gdmp-recover-from {producer}")
