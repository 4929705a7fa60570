"""The GDMP server: one per site (Figure 3).

Registers the site's request-manager operations:

* ``subscribe`` / ``unsubscribe`` — the producer-consumer model's
  subscription registry;
* ``notify`` — a producer announcing newly published files; if the site is
  configured for automatic replication the files are fetched immediately;
* ``get_catalog`` — "obtaining a remote site's file catalog for failure
  recovery" (§4.1);
* ``request_stage`` — ask the site to stage files from its MSS to its disk
  pool and pin them for upcoming transfers (§4.4);
* ``release`` — drop the transfer pins afterwards.

Both carry a list of LFNs and answer per LFN, so a transfer set pays one
envelope per source where single files would pay one each.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.ldapsim import Entry, FilterSyntaxError, parse_filter
from repro.gdmp.request_manager import GdmpError, RequestServer
from repro.gdmp.storage_manager import StageStatus, StorageManager
from repro.services.bus import ServiceRequest
from repro.services.replay import ReplayWindow
from repro.simulation.kernel import Simulator

__all__ = ["GdmpServer"]


class GdmpServer:
    """Site-local GDMP daemon logic behind the request manager."""

    def __init__(
        self,
        sim: Simulator,
        site: str,
        request_server: RequestServer,
        storage: StorageManager,
    ):
        self.sim = sim
        self.site = site
        self.request_server = request_server
        self.storage = storage
        self.stats = {"subscriptions": 0, "notifications": 0, "stage_served": 0,
                      "auto_replication_failures": 0}
        #: subscriber site -> LDAP filter text (None = everything); filters
        #: are evaluated against a published file's attributes, so a
        #: regional center can subscribe to, e.g.,
        #: ``(&(filetype=objectivity)(run=2001*))`` only.
        self.subscribers: dict[str, Optional[str]] = {}
        #: LFN -> local path for every file this site holds/published.
        self.held: dict[str, str] = {}
        #: notifications received and not yet replicated (when manual)
        self.pending_news: list[dict] = []
        #: set by GdmpSite after the client exists (auto-replication)
        self.client = None

        request_server.register("subscribe", self._op_subscribe)
        request_server.register("unsubscribe", self._op_unsubscribe)
        request_server.register("notify", self._op_notify)
        request_server.register("get_catalog", self._op_get_catalog)
        # pins are counted, so a re-issued envelope must not count twice
        self.replay = ReplayWindow(sim)
        request_server.register(
            "request_stage", self._op_request_stage, replay=self.replay
        )
        request_server.register(
            "release", self._op_release, replay=self.replay
        )

    # -- bookkeeping used by the client ---------------------------------------
    def record_held(self, lfn: str, path: str) -> None:
        """Record that this site holds an LFN at a local path."""
        self.held[lfn] = path

    def path_of(self, lfn: str) -> str:
        """Local path of a held LFN; raises GdmpError when not held."""
        try:
            return self.held[lfn]
        except KeyError:
            raise GdmpError(f"{self.site} does not hold {lfn!r}") from None

    # -- handlers -----------------------------------------------------------------
    def _op_subscribe(self, request: ServiceRequest):
        subscriber = request.payload["site"]
        filter_text = request.payload.get("filter")
        if filter_text is not None:
            try:
                parse_filter(filter_text)  # validate before accepting
            except FilterSyntaxError as exc:
                raise GdmpError(f"bad subscription filter: {exc}") from exc
        self.subscribers[subscriber] = filter_text
        self.stats["subscriptions"] += 1
        return sorted(self.subscribers)

    def _op_unsubscribe(self, request: ServiceRequest):
        self.subscribers.pop(request.payload["site"], None)
        return sorted(self.subscribers)

    def subscribers_for(self, attributes: dict) -> list[str]:
        """Subscribers whose filter matches a file with ``attributes``."""
        entry = Entry(
            dn="x=notify",
            attributes={k: [str(v)] for k, v in attributes.items()},
        )
        matching = []
        for site, filter_text in sorted(self.subscribers.items()):
            if filter_text is None or parse_filter(filter_text)(entry):
                matching.append(site)
        return matching

    def _op_notify(self, request: ServiceRequest):
        """A producer announces new files.  With ``auto_replicate`` the
        consumer pulls each file at once (the production CMS deployment
        behaviour); otherwise the news is queued for a later explicit get."""
        news = {
            "producer": request.payload["producer"],
            "lfns": list(request.payload["lfns"]),
            "attributes": dict(request.payload.get("attributes", {})),
            "received_at": self.sim.now,
        }
        self.stats["notifications"] += 1
        client = self.client
        if client is not None and client.config.auto_replicate:
            self.sim.spawn(self._auto_replicate(news), name="gdmp-auto-replicate")
        else:
            self.pending_news.append(news)
        return True

    def _auto_replicate(self, news: dict):
        """Fetch announced files at once: a leg nobody waits on, so it
        *returns*.  A fetch that fails leaves its news in ``pending_news``,
        where a manual site would have kept it."""
        lfns, producer = news["lfns"], news["producer"]
        try:
            # one transfer set per announcement: two catalog envelopes
            # for the whole batch
            yield self.client.replicate_set(lfns, prefer_site=producer)
        except Exception:
            self.stats["auto_replication_failures"] += 1
            self.pending_news.append(news)

    def _op_get_catalog(self, request: ServiceRequest):
        return dict(self.held)

    def _op_request_stage(self, request: ServiceRequest):
        """Ensure each of ``lfns`` is on this site's disk pool (staging
        from tape if needed) and pin it.  The files stage concurrently —
        tape drives overlap — and the reply answers per LFN: the local
        path, size and CRC the caller needs to start its GridFTP get, or
        that file's ``error`` (not held, pool full of pins), which costs
        the other files nothing.

        ``ahead`` marks a transfer set's wave, sent before any of its
        files is due.  It must never outlast its caller's patience, so
        it does not wait for tape: a file on disk is pinned and answered
        as always, a file on tape starts staging — overlapping the other
        mounts and the set's transfers — and answers "staging" at once,
        unpinned.  Its owner asks again at the file's turn and joins the
        staging under way."""
        ahead = request.payload.get("ahead", False)
        answers, legs = {}, {}
        for lfn in request.payload["lfns"]:
            cold = (
                ahead and lfn in self.held
                and self.storage.status(self.held[lfn]) in (
                    StageStatus.ON_TAPE, StageStatus.STAGING
                )
            )
            leg = self.sim.spawn(
                self._stage(lfn, pin=not cold), name=f"gdmp-stage {lfn}"
            )
            if cold:
                answers[lfn] = {"error": "staging from tape"}
            else:
                legs[lfn] = leg
        for lfn, leg in legs.items():
            answers[lfn] = yield leg
        return answers

    def _stage(self, lfn: str, pin: bool):
        """One file's leg of ``request_stage``; *returns* its error, as a
        failure nobody is waiting on would crash the simulation."""
        try:
            path = self.path_of(lfn)
            stored = yield from self.storage.ensure_on_disk(path, pin=pin)
        except Exception as exc:
            return {"error": str(exc)}
        if pin:
            self.stats["stage_served"] += 1
        return {"path": path, "size": stored.size, "crc": stored.crc}

    def _op_release(self, request: ServiceRequest):
        """Drop one transfer pin per listed LFN.  A file that is not
        pinned (or no longer held) answers False and changes nothing."""
        released = {}
        for lfn in request.payload["lfns"]:
            path = self.held.get(lfn)
            released[lfn] = (
                path is not None and self.storage.pool.pin_count(path) > 0
            )
            if released[lfn]:
                self.storage.release(path)
        return released
