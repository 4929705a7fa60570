"""The two-tier lookup router: a drop-in `CatalogProxy` for sharded grids.

:class:`RlsCatalogProxy` presents the exact `CatalogProxy` surface the
`GdmpClient` and the workload components already program against, but
routes against the two-tier Replica Location Service instead of one
central catalog:

* **writes stay local** — publish / adopt / remove go to the owning
  site's Local Replica Catalog on the site's own host; cross-site
  knowledge travels as periodic compressed digests, not per-file RPCs;
* **reads go index-first** — ``rli.lookup_bulk`` prunes the probe set to
  the sites that *might* hold each LFN, then each candidate LRC is
  verified with a real ``catalog.info_bulk`` read (verify-on-use); a
  single name is a batch of one.  A bloom false
  positive or a stale index entry costs one wasted probe, never a wrong
  answer;
* **every fan-out is one wave** — the per-site RPCs of a multi-site
  question are in flight together and gathered in a fixed site order,
  so it costs one round trip (one timeout, if shards are dead) and the
  merged answer does not depend on arrival order;
* **degradation is total-order-free** — if the RLI is unreachable, or
  the index returns no candidates, or every candidate denies the file,
  the router widens to every site's LRC (a fallback broadcast), so a
  stale or dead index only ever costs extra RPCs.  A dead LRC is
  skipped and the rest still answer; retry/breaker apply per call.

The consistency contract this implements (see DESIGN.md): a read
observes every replica whose registration digest has reached the index,
plus everything at the reader's own site, plus — through the fallback
broadcast — anything registered anywhere as long as no false-positive
candidate confirmed first.  Location lists may omit replicas younger
than the digest staleness window; they never contain phantoms, because
every location in an answer came from the owning LRC itself.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Dict

from ..catalog.gdmp_catalog import LogicalFileInfo
from ..gdmp.replica_service import CatalogProxy, _NegativeEntry
from ..gdmp.request_manager import RequestClient
from ..services.bus import RemoteCallError
from ..telemetry.metrics import NO_METRICS, Histogram, MetricsRegistry

__all__ = ["RlsCatalogProxy"]

#: histogram bounds for LRC probes per resolved lookup
_HOP_BOUNDS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0)


class RlsCatalogProxy(CatalogProxy):
    """Routes catalog traffic through RLI → LRC for one site's client."""

    def __init__(
        self,
        client: RequestClient,
        own_site: str,
        rli_host: str,
        lrc_hosts: Dict[str, str],
        lookup_timeout: float = 30.0,
        metrics: MetricsRegistry = NO_METRICS,
    ):
        # the "catalog host" of the base class is the site's own LRC:
        # every inherited write path is already one-site-local.
        super().__init__(client, catalog_host=lrc_hosts[own_site])
        self.own_site = own_site
        self.rli_host = rli_host
        #: site name -> host of that site's LRC (site == host in DataGrid)
        self.lrc_hosts = dict(lrc_hosts)
        #: deterministic scatter and gather order of every wave
        self.site_order = list(lrc_hosts)
        self.lookup_timeout = lookup_timeout
        self.metrics = metrics
        self.stats.update(
            {
                "rli_lookups": 0,
                "rli_unavailable": 0,
                "fallback_broadcasts": 0,
                "uniqueness_probes": 0,
                "verify_misses": 0,
                "lrc_failures": 0,
                "adoptions": 0,
            }
        )

    # -- plumbing -------------------------------------------------------------

    def _routed_call(self, host: str, operation: str, payload: dict):
        """Generator: one RPC to the RLI or to an LRC, inside the caller's
        process, that *returns* its outcome — the reply, or the exception
        instance.

        It never raises, so a wave can run it as a leg: the gatherer is
        parked on one leg at a time, and the kernel treats a process that
        fails with nobody waiting on it as a crashed simulation.  Unlike
        the base `_guarded`, a transport failure here does NOT clear the
        whole client cache — one dead shard or index host says nothing
        about answers already verified at other sites — and every call
        carries a deadline so a black-holed endpoint costs a timeout, not
        a hang.  A bulk envelope is sized by the name list it carries."""
        self.stats["envelopes"] += 1
        try:
            return (yield from self._invoke(
                host, operation, payload, len(payload.get("lfns", ())),
                timeout=self.lookup_timeout,
            ))
        except Exception as exc:
            return exc

    def _wave(self, operation: str, payloads: Dict[str, dict]):
        """Generator: scatter ``operation`` to the LRC of every site in
        ``payloads`` (site -> its request) with all legs in flight at
        once, and gather the outcomes in the order of ``payloads``
        whatever order the replies arrive in, so a merged answer does
        not depend on the network.  The wave costs its slowest leg: dead
        shards share one ``lookup_timeout``."""
        legs = []
        for site, payload in payloads.items():
            host = self.lrc_hosts[site]
            legs.append(self.client.sim.spawn(
                self._routed_call(host, operation, payload),
                name=f"rls-{operation}@{host}",
            ))
        outcomes = []
        for leg in legs:
            # a leg that finished behind an earlier one is read in place
            outcomes.append(leg.value if leg.processed else (yield leg))
        return outcomes

    def _ask_index(self, operation: str, payload: dict):
        """Generator: ``(answer, used_index)`` from the RLI; an
        unreachable index answers ``(None, False)``."""
        answer = yield from self._routed_call(self.rli_host, operation, payload)
        if isinstance(answer, Exception):
            self.stats["rli_unavailable"] += 1
            return None, False
        self.stats["rli_lookups"] += 1
        return answer, True

    def _not_found(self, operation: str, lfn: str) -> RemoteCallError:
        return RemoteCallError(
            operation, "rls", f"unknown logical file {lfn!r}"
        )

    # -- reads ----------------------------------------------------------------

    @cached_property
    def _hops(self) -> Histogram:
        """LRC probes per looked-up name at this site, made on first use."""
        return self.metrics.histogram(
            "rls.lookup.hops", bounds=_HOP_BOUNDS, site=self.own_site
        )

    def _lookup(self, kind: str, lfn: str):
        """One per-name read: the cached ``kind`` answer if there is one,
        else a :meth:`_resolve_bulk` of one.  An absence is cached under
        both kinds as one negative entry, which ``info`` raises and
        ``locations`` answers as ``[]``."""

        def miss():
            found = (yield from self._resolve_bulk([lfn])).get(lfn)
            if found is None:
                absent = _NegativeEntry(self._not_found("catalog.info", lfn))
                self._cache_put(("info", lfn), absent)
                self._cache_put(("locations", lfn), absent)
                if kind == "info":
                    raise absent.error
                return []
            if kind == "info":
                return found
            return [dict(loc) for loc in found.locations]

        return self._cached_read(kind, lfn, f"rls-{kind}", miss)

    def _fetch_infos(self, lfns: list[str]):
        """The misses of an ``info_bulk``: one two-tier bulk resolve."""
        found = yield from self._resolve_bulk(lfns)
        for lfn in lfns:
            if lfn not in found:
                # match the central bulk contract: unknown LFNs raise
                raise self._not_found("catalog.info_bulk", lfn)
        return found

    def _resolve_bulk(self, lfns: list[str], lookup: bool = True):
        """Generator: two-tier bulk resolve — one ``rli.lookup_bulk``,
        then one wave of speculative ``catalog.info_bulk(missing_ok)``
        envelopes, one per involved site, locations merged across
        confirming sites in site order.  Names nobody confirmed go, in a
        second wave, to the sites not yet asked about them.  A
        ``lookup`` (a read, not a publish's uniqueness probe) counts a
        wave beyond the index's candidates as a fallback broadcast and
        observes each name's LRC probes in ``rls.lookup.hops``."""
        widened = "fallback_broadcasts" if lookup else "uniqueness_probes"
        cand_map, used_index = yield from self._ask_index(
            "rli.lookup_bulk", {"lfns": lfns}
        )
        cand_map = cand_map or {}
        if used_index and not all(cand_map.get(lfn) for lfn in lfns):
            self.stats[widened] += 1
        own, site_order = self.own_site, self.site_order
        #: name -> the sites asked about it so far
        asked: dict[str, set[str]] = {lfn: set() for lfn in lfns}
        merged: dict[str, LogicalFileInfo] = {}
        locations: dict[str, list[dict]] = {}
        pending = lfns
        for everywhere in (False, True):
            # one pass over the names: each joins the list of every site
            # it is meant for and not yet asked about it, so a site's
            # list keeps the names' order
            lists: dict[str, list[str]] = {site: [] for site in site_order}
            for lfn in pending:
                sites = site_order
                if not everywhere:
                    sites = cand_map.get(lfn) or site_order
                    if own not in sites:
                        sites = [own, *sites]
                done = asked[lfn]
                for site in sites:
                    if site not in done:
                        wanted = lists.get(site)
                        if wanted is not None:
                            wanted.append(lfn)
            by_site = {site: wanted for site, wanted in lists.items() if wanted}
            if not by_site:
                break
            for site, wanted in by_site.items():
                for lfn in wanted:
                    asked[lfn].add(site)
            answers = yield from self._wave(
                "catalog.info_bulk",
                {
                    site: {"lfns": wanted, "missing_ok": True}
                    for site, wanted in by_site.items()
                },
            )
            for wanted, found in zip(by_site.values(), answers):
                if isinstance(found, Exception):
                    self.stats["lrc_failures"] += 1
                    continue
                for info in found:
                    # the one copy of an LRC's dicts; the first info wins
                    held = locations.get(info.lfn)
                    if held is None:
                        merged[info.lfn] = info
                        held = locations[info.lfn] = []
                    held.extend(map(dict, info.locations))
                self.stats["verify_misses"] += len(wanted) - len(found)
            if everywhere:
                self.stats[widened] += 1
                break
            pending = [lfn for lfn in lfns if lfn not in merged]
            if not pending:
                break

        if lookup:
            hops = self._hops
            for lfn in lfns:
                hops.observe(len(asked[lfn]))
        # the merged tuple is the answer and both cache entries: a
        # ``locations`` read hands out copies of its dicts
        results: dict[str, LogicalFileInfo] = {}
        for lfn, info in merged.items():
            full = LogicalFileInfo(
                info.lfn, info.size, info.modified, info.crc,
                info.attributes, tuple(locations[lfn]),
            )
            results[lfn] = full
            self._cache_put(("info", lfn), full)
            self._cache_put(("locations", lfn), full.locations)
        return results

    def search(self, filter_text: str):
        """Filtered metadata search: one wave over every LRC, merged
        (locations concatenated per LFN; dead shards are skipped)."""

        def run():
            merged: dict[str, LogicalFileInfo] = {}
            locations: dict[str, list[dict]] = {}
            for found in (
                yield from self._wave(
                    "catalog.search",
                    dict.fromkeys(self.site_order, {"filter": filter_text}),
                )
            ):
                if isinstance(found, Exception):
                    self.stats["lrc_failures"] += 1
                    continue
                for info in found:
                    locations.setdefault(info.lfn, []).extend(
                        dict(loc) for loc in info.locations
                    )
                    merged.setdefault(info.lfn, info)
            return [
                replace(info, locations=tuple(locations[lfn]))
                for lfn, info in sorted(merged.items())
            ]

        return self.client.sim.spawn(run(), name="rls-search")

    # -- writes ---------------------------------------------------------------
    # Every write goes where the base class sends it, ``server_host`` —
    # this site's own LRC.  A publish first probes the grid for its
    # explicit names, and replica registration becomes metadata-carrying
    # adoption.

    def _publish(self, site: str, files: list[dict]):
        """Probe the whole grid for the explicit names of one publish —
        one bulk resolve, however many names — then write locally.
        Auto-generated names carry the site-unique stem: the local LRC
        alone can guarantee them.  A fresh name's empty candidate set is
        the expected answer here, so the widening counts as a uniqueness
        probe, not index degradation.  Probe-then-write is
        check-then-act: two sites publishing the same new name within
        one probe round trip both succeed."""
        explicit = [f["lfn"] for f in files if f.get("lfn") is not None]
        if explicit:
            taken = yield from self._resolve_bulk(explicit, lookup=False)
            for lfn in explicit:
                if lfn in taken:
                    raise RemoteCallError(
                        "catalog.publish_bulk",
                        "rls",
                        f"logical file name {lfn!r} already in use",
                    )
        return (yield from super()._publish(site, files))

    def add_replicas(self, lfns: list[str], site: str):
        """Register replicas at this site's LRC in one envelope, adopting
        each logical file (metadata and all) the LRC has never seen."""
        lfns = list(lfns)

        def run():
            infos = yield self.info_bulk(lfns)  # cache-warm after a set
            self.stats["adoptions"] += len(infos)
            files = [
                # what an LRC needs to adopt a logical file it never saw
                {"lfn": info.lfn, "size": info.size, "modified": info.modified,
                 "crc": info.crc, "attributes": info.attributes}
                for info in infos
            ]
            return (yield from self._apply_write(
                "adopt_bulk", {"files": files, "site": site}
            ))

        return self.client.sim.spawn(
            run(), name=f"rls-adopt-bulk x{len(lfns)}"
        )
