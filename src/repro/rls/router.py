"""The two-tier lookup router: a drop-in `CatalogProxy` for sharded grids.

:class:`RlsCatalogProxy` presents the exact `CatalogProxy` surface the
`GdmpClient` and the workload components already program against, but
routes against the two-tier Replica Location Service instead of one
central catalog:

* **writes stay local** — publish / adopt / remove go to the owning
  site's Local Replica Catalog on the site's own host; cross-site
  knowledge travels as periodic compressed digests, not per-file RPCs;
* **reads go index-first** — ``rli.lookup`` prunes the probe set to the
  sites that *might* hold the LFN, then each candidate LRC is verified
  with a real ``catalog.*`` read (verify-on-use).  A bloom false
  positive or a stale index entry costs one wasted probe, never a wrong
  answer;
* **degradation is total-order-free** — if the RLI is unreachable, or
  the index returns no candidates, or every candidate denies the file,
  the router falls back to probing every site's LRC (counted as a
  fallback broadcast), so a stale or dead index only ever costs extra
  RPCs.  A dead LRC is skipped and the remaining sites still answer;
  the existing retry/breaker middleware applies per call.

The consistency contract this implements (see DESIGN.md): a read
observes every replica whose registration digest has reached the index,
plus everything at the reader's own site, plus — through the fallback
broadcast — anything registered anywhere as long as no false-positive
candidate confirmed first.  Location lists may omit replicas younger
than the digest staleness window; they never contain phantoms, because
every location in an answer came from the owning LRC itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..catalog.gdmp_catalog import LogicalFileInfo
from ..gdmp.replica_service import CatalogProxy, _NegativeEntry
from ..gdmp.request_manager import RemoteError, RequestClient

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
        cache: bool = True,
        lookup_timeout: float = 30.0,
        metrics=None,
    ):
        # the "catalog host" of the base class is the site's own LRC:
        # every inherited write path is already one-site-local.
        super().__init__(client, catalog_host=lrc_hosts[own_site], cache=cache)
        self.own_site = own_site
        self.rli_host = rli_host
        #: site name -> host of that site's LRC (site == host in DataGrid)
        self.lrc_hosts = dict(lrc_hosts)
        #: deterministic probe order for fallback broadcasts
        self.site_order = list(lrc_hosts)
        self.lookup_timeout = lookup_timeout
        self.metrics = metrics
        self.stats.update(
            {
                "rli_lookups": 0,
                "rli_unavailable": 0,
                "fallback_broadcasts": 0,
                "verify_misses": 0,
                "lrc_failures": 0,
                "adoptions": 0,
            }
        )

    # -- plumbing -------------------------------------------------------------

    def _routed_call(
        self, host: str, operation: str, payload, n_items: int = 0
    ):
        """An RPC to an RLI or candidate LRC.  Unlike the base `_guarded`,
        a transport failure here does NOT clear the whole client cache —
        one dead shard or index host says nothing about answers already
        verified at other sites — and every call carries a deadline so a
        black-holed endpoint costs a timeout, not a hang."""
        self.stats["envelopes"] += 1

        def guarded():
            result = yield self._rpc(
                host, operation, payload, n_items,
                timeout=self.lookup_timeout,
            )
            return result

        return self.client.sim.spawn(
            guarded(), name=f"rls-{operation}@{host}"
        )

    def _observe_hops(self, hops: int) -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                "rls.lookup.hops", bounds=_HOP_BOUNDS, site=self.own_site
            ).observe(hops)

    def _probe_sites(
        self, candidates: List[str], used_index: bool
    ) -> Tuple[List[str], bool]:
        """(probe order, exhaustive) — own site first, then candidates;
        an unusable index or an empty candidate set widens to everyone."""
        if not used_index or not candidates:
            if used_index:
                self.stats["fallback_broadcasts"] += 1
            sites = self.site_order
            exhaustive = True
        else:
            sites = candidates
            exhaustive = len(set(candidates)) >= len(self.site_order)
        order = [self.own_site]
        order.extend(s for s in sites if s != self.own_site and s in self.lrc_hosts)
        return order, exhaustive

    def _lookup_candidates(self, lfn: str):
        """Generator: ask the RLI which sites might hold ``lfn``."""
        try:
            candidates = yield self._routed_call(
                self.rli_host, "rli.lookup", {"lfn": lfn}
            )
        except Exception:
            self.stats["rli_unavailable"] += 1
            return [], False
        self.stats["rli_lookups"] += 1
        return list(candidates), True

    def _not_found(self, operation: str, lfn: str) -> RemoteError:
        return RemoteError(
            operation, "rls", f"unknown logical file {lfn!r}"
        )

    def _resolve(self, lfn: str, record_negative: bool = True):
        """Generator: two-tier resolve of one LFN into a merged
        :class:`LogicalFileInfo` (or None when no LRC holds it).

        Probes every candidate (each confirming LRC contributes its
        locations), escalating to the remaining sites if nobody
        confirmed — index staleness costs probes, never answers."""
        candidates, used_index = yield from self._lookup_candidates(lfn)
        order, exhaustive = self._probe_sites(candidates, used_index)
        merged: Optional[LogicalFileInfo] = None
        locations: list[dict] = []
        hops = 0
        probed: set[str] = set()

        def probe(site: str):
            nonlocal merged, hops
            hops += 1
            probed.add(site)
            try:
                info = yield self._routed_call(
                    self.lrc_hosts[site], "catalog.info", {"lfn": lfn}
                )
            except RemoteError:
                # verified miss: bloom false positive or stale entry
                self.stats["verify_misses"] += 1
                return
            except Exception:
                # dead/unreachable LRC: degrade to the remaining sites
                self.stats["lrc_failures"] += 1
                return
            locations.extend(dict(loc) for loc in info.locations)
            if merged is None:
                merged = info

        for site in order:
            yield from probe(site)
        if merged is None and not exhaustive:
            # every candidate denied the file; the holder may simply be
            # younger than the last digest push — ask everyone else.
            self.stats["fallback_broadcasts"] += 1
            for site in self.site_order:
                if site not in probed:
                    yield from probe(site)
        self._observe_hops(hops)
        if merged is None:
            if record_negative:
                self._cache_put(
                    ("info", lfn),
                    _NegativeEntry(self._not_found("catalog.info", lfn)),
                )
                self._cache_put(("exists", lfn), False)
            return None
        result = LogicalFileInfo(
            lfn=merged.lfn,
            size=merged.size,
            modified=merged.modified,
            crc=merged.crc,
            attributes=merged.attributes,
            locations=tuple(locations),
        )
        self._cache_put(("info", lfn), result)
        self._cache_put(
            ("locations", lfn), tuple(dict(loc) for loc in result.locations)
        )
        self._cache_put(("exists", lfn), True)
        return result

    # -- reads ----------------------------------------------------------------

    def info(self, lfn: str):
        cached = self._cache_get(("info", lfn))
        if isinstance(cached, _NegativeEntry):
            self.stats["negative_hits"] += 1
            return self._immediate_error(cached.error)
        if cached is not None:
            return self._immediate(cached)

        def run():
            result = yield from self._resolve(lfn)
            if result is None:
                raise self._not_found("catalog.info", lfn)
            return result

        return self.client.sim.spawn(run(), name=f"rls-info {lfn}")

    def locations(self, lfn: str):
        cached = self._cache_get(("locations", lfn))
        if cached is not None:
            return self._immediate([dict(loc) for loc in cached])

        def run():
            result = yield from self._resolve(lfn)
            if result is None:
                return []
            return [dict(loc) for loc in result.locations]

        return self.client.sim.spawn(run(), name=f"rls-locations {lfn}")

    def info_bulk(self, lfns: list[str]):
        lfns = list(lfns)

        def run():
            known: dict[str, LogicalFileInfo] = {}
            missing: list[str] = []
            for lfn in lfns:
                cached = self._cache_get(("info", lfn))
                if cached is not None and not isinstance(
                    cached, _NegativeEntry
                ):
                    known[lfn] = cached
                else:
                    missing.append(lfn)
            if missing:
                resolved = yield from self._resolve_bulk(missing)
                known.update(resolved)
            absent = [lfn for lfn in lfns if lfn not in known]
            if absent:
                # match the central bulk contract: unknown LFNs raise
                raise self._not_found("catalog.info_bulk", absent[0])
            return [known[lfn] for lfn in lfns]

        return self.client.sim.spawn(run(), name=f"rls-info-bulk x{len(lfns)}")

    def _resolve_bulk(self, lfns: list[str]):
        """Generator: two-tier bulk resolve — one ``rli.lookup_bulk``,
        then one speculative ``catalog.info_bulk(missing_ok)`` envelope
        per involved site, locations merged across confirming sites."""
        try:
            cand_map = yield self._routed_call(
                self.rli_host,
                "rli.lookup_bulk",
                {"lfns": lfns},
                n_items=len(lfns),
            )
            used_index = True
            self.stats["rli_lookups"] += 1
        except Exception:
            self.stats["rli_unavailable"] += 1
            cand_map = {}
            used_index = False

        def plan(pending: list[str], broadcast: bool) -> dict[str, list[str]]:
            by_site: dict[str, list[str]] = {}
            for lfn in pending:
                if broadcast:
                    sites = self.site_order
                else:
                    sites = cand_map.get(lfn) or self.site_order
                    if not cand_map.get(lfn):
                        self.stats["fallback_broadcasts"] += 1
                for site in {self.own_site, *sites}:
                    if site in self.lrc_hosts:
                        by_site.setdefault(site, []).append(lfn)
            return by_site

        merged: dict[str, LogicalFileInfo] = {}
        locations: dict[str, list[dict]] = {lfn: [] for lfn in lfns}

        def sweep(by_site: dict[str, list[str]]):
            for site in sorted(by_site, key=self.site_order.index):
                wanted = by_site[site]
                try:
                    found = yield self._routed_call(
                        self.lrc_hosts[site],
                        "catalog.info_bulk",
                        {"lfns": wanted, "missing_ok": True},
                        n_items=len(wanted),
                    )
                except Exception:
                    self.stats["lrc_failures"] += 1
                    continue
                hits = set()
                for info in found:
                    hits.add(info.lfn)
                    locations[info.lfn].extend(
                        dict(loc) for loc in info.locations
                    )
                    merged.setdefault(info.lfn, info)
                self.stats["verify_misses"] += len(wanted) - len(hits)

        yield from sweep(plan(lfns, broadcast=False))
        unresolved = [lfn for lfn in lfns if lfn not in merged]
        if unresolved and used_index:
            self.stats["fallback_broadcasts"] += 1
            yield from sweep(plan(unresolved, broadcast=True))

        results: dict[str, LogicalFileInfo] = {}
        for lfn, info in merged.items():
            full = LogicalFileInfo(
                lfn=lfn,
                size=info.size,
                modified=info.modified,
                crc=info.crc,
                attributes=info.attributes,
                locations=tuple(locations[lfn]),
            )
            results[lfn] = full
            self._cache_put(("info", lfn), full)
            self._cache_put(
                ("locations", lfn), tuple(dict(loc) for loc in full.locations)
            )
        return results

    def locations_bulk(self, lfns: list[str]):
        lfns = list(lfns)

        def run():
            resolved = yield from self._resolve_bulk(
                [
                    lfn
                    for lfn in lfns
                    if self._cache_get(("locations", lfn)) is None
                ]
            )
            out: dict[str, list[dict]] = {}
            for lfn in lfns:
                cached = self._cache.get(("locations", lfn))
                if cached is not None:
                    out[lfn] = [dict(loc) for loc in cached]
                elif lfn in resolved:
                    out[lfn] = [dict(loc) for loc in resolved[lfn].locations]
                else:
                    out[lfn] = []
            return out

        return self.client.sim.spawn(
            run(), name=f"rls-locations-bulk x{len(lfns)}"
        )

    def lfn_exists(self, lfn: str):
        cached = self._cache_get(("exists", lfn))
        if cached is not None:
            if cached is False:
                self.stats["negative_hits"] += 1
            return self._immediate(cached)

        def run():
            result = yield from self._resolve(lfn)
            return result is not None

        return self.client.sim.spawn(run(), name=f"rls-lfn-exists {lfn}")

    def search(self, filter_text: str):
        """Filtered metadata search, fanned out over every LRC and merged
        (locations concatenated per LFN; dead shards are skipped)."""

        def run():
            merged: dict[str, LogicalFileInfo] = {}
            locations: dict[str, list[dict]] = {}
            for site in self.site_order:
                try:
                    found = yield self._routed_call(
                        self.lrc_hosts[site],
                        "catalog.search",
                        {"filter": filter_text},
                    )
                except Exception:
                    self.stats["lrc_failures"] += 1
                    continue
                for info in found:
                    locations.setdefault(info.lfn, []).extend(
                        dict(loc) for loc in info.locations
                    )
                    merged.setdefault(info.lfn, info)
            return [
                LogicalFileInfo(
                    lfn=lfn,
                    size=info.size,
                    modified=info.modified,
                    crc=info.crc,
                    attributes=info.attributes,
                    locations=tuple(locations[lfn]),
                )
                for lfn, info in sorted(merged.items())
            ]

        return self.client.sim.spawn(run(), name="rls-search")

    def site_files(self, site: str):
        """All LFNs a site holds — answered by that site's own LRC."""
        host = self.lrc_hosts.get(site)
        if host is None:
            return self._immediate([])
        return self._routed_call(host, "catalog.site_files", {"site": site})

    def list_lfns(self):
        """Every logical file name in the grid (union over all LRCs,
        sorted for a deterministic order; dead shards are skipped)."""

        def run():
            names: set[str] = set()
            for site in self.site_order:
                try:
                    found = yield self._routed_call(
                        self.lrc_hosts[site], "catalog.list_lfns", {}
                    )
                except Exception:
                    self.stats["lrc_failures"] += 1
                    continue
                names.update(found)
            return sorted(names)

        return self.client.sim.spawn(run(), name="rls-list-lfns")

    # -- writes ---------------------------------------------------------------
    # publish/publish_bulk/remove_replica(s) are inherited: the base
    # class already writes to ``server_host`` — this site's own LRC.
    # Only explicit user-chosen LFNs need a grid-wide uniqueness probe,
    # and replica registration becomes metadata-carrying adoption.

    def publish(
        self,
        site: str,
        size: float,
        modified: float,
        crc: int,
        lfn: Optional[str] = None,
        **attributes,
    ):
        if lfn is None:
            # auto-generated names carry the site-unique stem; the local
            # LRC alone can guarantee uniqueness
            return super().publish(site, size, modified, crc, **attributes)

        def run():
            taken = yield self.lfn_exists(lfn)
            if taken:
                raise RemoteError(
                    "catalog.publish",
                    "rls",
                    f"logical file name {lfn!r} already in use",
                )
            result = yield CatalogProxy.publish(
                self, site, size, modified, crc, lfn=lfn, **attributes
            )
            return result

        return self.client.sim.spawn(run(), name=f"rls-publish {lfn}")

    def publish_bulk(self, site: str, files: list[dict]):
        explicit = [f["lfn"] for f in files if f.get("lfn") is not None]
        if not explicit:
            return super().publish_bulk(site, files)

        def run():
            for lfn in explicit:
                taken = yield self.lfn_exists(lfn)
                if taken:
                    raise RemoteError(
                        "catalog.publish_bulk",
                        "rls",
                        f"logical file name {lfn!r} already in use",
                    )
            result = yield CatalogProxy.publish_bulk(self, site, files)
            return result

        return self.client.sim.spawn(
            run(), name=f"rls-publish-bulk x{len(files)}"
        )

    def add_replica(self, lfn: str, site: str):
        """Register a replica at this site's LRC, adopting the logical
        file (metadata and all) if the LRC has never seen it."""

        def run():
            info = yield self.info(lfn)  # warm from the replicate read
            self.stats["adoptions"] += 1
            result = yield self._write(
                "catalog.adopt",
                {
                    "lfn": lfn,
                    "site": site,
                    "size": info.size,
                    "modified": info.modified,
                    "crc": info.crc,
                    "attributes": info.attributes,
                },
            )
            self.invalidate(lfn)
            return result

        return self.client.sim.spawn(run(), name=f"rls-adopt {lfn}")

    def add_replicas(self, lfns: list[str], site: str):
        lfns = list(lfns)

        def run():
            infos = yield self.info_bulk(lfns)  # cache-warm after a set
            files = [
                {
                    "lfn": info.lfn,
                    "size": info.size,
                    "modified": info.modified,
                    "crc": info.crc,
                    "attributes": info.attributes,
                }
                for info in infos
            ]
            self.stats["adoptions"] += len(files)
            result = yield self._write(
                "catalog.adopt_bulk",
                {"files": files, "site": site},
                n_items=len(files),
            )
            for lfn in lfns:
                self.invalidate(lfn)
            return result

        return self.client.sim.spawn(
            run(), name=f"rls-adopt-bulk x{len(lfns)}"
        )
