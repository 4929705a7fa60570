"""Soft-state replica-location digests: site-side sources, index-side state.

The two-tier Replica Location Service moves replica knowledge between
sites as *digests* instead of per-file updates:

* each site's :class:`DigestSource` watches its Local Replica Catalog's
  write stream and periodically emits either a **full** digest (a bloom
  filter over every LFN the site currently holds) or an incremental
  **delta** (the exact LFNs added/removed since the last acknowledged
  push);
* the Replica Location Index keeps one :class:`SiteState` per site —
  the last full bloom plus exact add/remove overlays — and answers
  membership queries with :meth:`SiteState.might_hold`.

The index is *soft state*: a lost delta merely widens the staleness
window until the next full refresh rebuilds from scratch, and a stale
or false-positive answer costs the reader one wasted verify-on-use RPC
at the LRC, never a wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..catalog.operations import OPERATIONS
from .bloom import BloomFilter, hash_pair

__all__ = [
    "DIGEST_HEADER_SIZE",
    "DELTA_ITEM_SIZE",
    "DigestConfig",
    "DigestSource",
    "SiteState",
    "digest_wire_size",
]

#: fixed framing cost of any digest push (site name, generation, kind)
DIGEST_HEADER_SIZE = 64
#: per-LFN wire cost inside a delta digest (name + op tag + framing)
DELTA_ITEM_SIZE = 48
#: bloom capacity floor, so small sites get stable filter shapes
MIN_BLOOM_CAPACITY = 1024
#: bloom false-positive target at its capacity
BLOOM_FPP = 0.01
#: a delta larger than this fraction of the full set is promoted to a
#: full refresh (the bloom is cheaper than the explicit list)
DELTA_PROMOTE_RATIO = 0.25


@dataclass(frozen=True)
class DigestConfig:
    """Tuning knobs for digest generation, shared by source and pushers."""

    #: seconds between digest pushes from each site
    period: float = 30.0
    #: every Nth push is a full bloom refresh (1 = always full)
    full_every: int = 10

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.full_every < 1:
            raise ValueError("full_every must be >= 1")


def digest_wire_size(payload: dict) -> int:
    """Bytes a digest push occupies on the wire (for envelope sizing
    and the digest-bandwidth counters)."""
    if payload["kind"] == "full":
        return DIGEST_HEADER_SIZE + payload["bloom"].size_bytes
    return DIGEST_HEADER_SIZE + DELTA_ITEM_SIZE * (
        len(payload["added"]) + len(payload["removed"])
    )


class DigestSource:
    """Site-side digest generator, fed by the LRC's write stream.

    Register :meth:`on_write` as a ``ReplicaCatalogService`` write
    listener.  Between pushes it nets adds against removes, so a file
    published and deleted inside one period never leaves the site.
    Pending changes are cleared only by :meth:`ack` — an unacknowledged
    (lost) push keeps accumulating and is retried in the next one,
    which is safe because digest application is idempotent set algebra.
    """

    def __init__(
        self,
        site: str,
        list_lfns: Callable[[], Iterable[str]],
        config: Optional[DigestConfig] = None,
    ) -> None:
        self.site = site
        self.config = config or DigestConfig()
        self._list_lfns = list_lfns
        self._pending_added: set[str] = set()
        self._pending_removed: set[str] = set()
        self.generation = 0
        self.pushes_since_full = 0
        #: True until the first full digest has been acknowledged — the
        #: index knows nothing about this site before that.
        self.needs_full = True

    # -- write stream --------------------------------------------------

    def on_write(self, operation: str, payload: dict) -> None:
        row = OPERATIONS[operation]
        record = self._record_add if row.effect == "add" else self._record_remove
        for lfn in row.lfns(payload):
            record(lfn)

    def _record_add(self, lfn: str) -> None:
        self._pending_removed.discard(lfn)
        self._pending_added.add(lfn)

    def _record_remove(self, lfn: str) -> None:
        self._pending_added.discard(lfn)
        self._pending_removed.add(lfn)

    @property
    def pending_changes(self) -> int:
        return len(self._pending_added) + len(self._pending_removed)

    # -- digest generation ---------------------------------------------

    def build_bloom(self, lfns: Iterable[str]) -> BloomFilter:
        lfns = list(lfns)
        bloom = BloomFilter.for_capacity(
            max(len(lfns), MIN_BLOOM_CAPACITY), fpp=BLOOM_FPP
        )
        bloom.update(lfns)
        return bloom

    def next_digest(self) -> dict:
        """Build the next push payload (does NOT advance state — call
        :meth:`ack` once the index acknowledged it)."""
        cfg = self.config
        current = list(self._list_lfns())
        full_due = (
            self.needs_full
            or self.pushes_since_full + 1 >= cfg.full_every
            or self.pending_changes
            > max(1, int(len(current) * DELTA_PROMOTE_RATIO))
        )
        generation = self.generation + 1
        if full_due:
            return {
                "kind": "full",
                "site": self.site,
                "generation": generation,
                "count": len(current),
                "bloom": self.build_bloom(current),
            }
        return {
            "kind": "delta",
            "site": self.site,
            "generation": generation,
            "count": len(current),
            "added": sorted(self._pending_added),
            "removed": sorted(self._pending_removed),
        }

    def ack(self, payload: dict) -> None:
        """The index accepted ``payload``: clear what it covered — and
        only that.  A write that landed while the push was in flight is
        not in the payload and must ride the next delta."""
        self.generation = payload["generation"]
        if payload["kind"] == "full":
            # the index now answers from this bloom: an add it contains
            # is covered; a remove it still advertises is not
            bloom = payload["bloom"]
            self._pending_added = {
                lfn for lfn in self._pending_added if lfn not in bloom
            }
            self._pending_removed = {
                lfn for lfn in self._pending_removed if lfn in bloom
            }
            self.needs_full = False
            self.pushes_since_full = 0
        else:
            self._pending_added.difference_update(payload["added"])
            self._pending_removed.difference_update(payload["removed"])
            self.pushes_since_full += 1


@dataclass
class SiteState:
    """Index-side view of one site: last full bloom + exact overlays."""

    site: str
    bloom: Optional[BloomFilter] = None
    added: set = field(default_factory=set)
    removed: set = field(default_factory=set)
    generation: int = 0
    entry_count: int = 0
    updated_at: float = 0.0
    fulls_applied: int = 0
    deltas_applied: int = 0

    def might_hold(self, lfn: str) -> bool:
        return self.might_hold_pair(lfn, hash_pair(lfn))

    def might_hold_pair(self, lfn: str, pair: tuple[int, int]) -> bool:
        """:meth:`might_hold` with a precomputed bloom hash pair, so the
        index hashes each looked-up LFN once across all sites."""
        if lfn in self.added:
            return True
        if lfn in self.removed:
            return False
        return self.bloom is not None and self.bloom.contains_pair(pair)

    def apply(self, payload: dict, now: float) -> bool:
        """Merge one digest; returns False for stale/duplicate pushes."""
        if payload["site"] != self.site:
            raise ValueError(
                f"digest for {payload['site']!r} applied to state of "
                f"{self.site!r}"
            )
        if payload["generation"] <= self.generation:
            return False  # duplicate or out-of-order retry; set algebra
            # below is idempotent anyway, but skipping keeps counters honest
        self.generation = payload["generation"]
        self.entry_count = payload["count"]
        self.updated_at = now
        if payload["kind"] == "full":
            self.bloom = payload["bloom"]
            self.added.clear()
            self.removed.clear()
            self.fulls_applied += 1
        else:
            for lfn in payload["added"]:
                self.removed.discard(lfn)
                self.added.add(lfn)
            for lfn in payload["removed"]:
                self.added.discard(lfn)
                self.removed.add(lfn)
            self.deltas_applied += 1
        return True

    def fingerprint(self) -> str:
        bloom_fp = self.bloom.fingerprint() if self.bloom is not None else "-"
        return (
            f"{self.site}:g{self.generation}:n{self.entry_count}:"
            f"+{len(self.added)}:-{len(self.removed)}:{bloom_fp}"
        )


class ReplicaLocationIndex:
    """The in-memory core of the RLI: per-site soft state + membership.

    This object is transport-agnostic; ``repro.rls.rli`` wraps it in
    ``rli.*`` bus operations.  All state transitions are driven by
    digests pushed from the sites — the index never contacts an LRC.
    """

    def __init__(self, sites: Iterable[str] = ()) -> None:
        self.states: Dict[str, SiteState] = {
            site: SiteState(site) for site in sites
        }
        self.stats: Dict[str, int] = {
            "digests_full": 0,
            "digests_delta": 0,
            "digests_stale": 0,
            "digest_bytes": 0,
            "delta_items": 0,
            "lookups": 0,
            "candidates_returned": 0,
            "empty_lookups": 0,
        }

    def apply(self, payload: dict, now: float) -> bool:
        site = payload["site"]
        state = self.states.get(site)
        if state is None:
            state = self.states[site] = SiteState(site)
        applied = state.apply(payload, now)
        if not applied:
            self.stats["digests_stale"] += 1
            return False
        self.stats["digest_bytes"] += digest_wire_size(payload)
        if payload["kind"] == "full":
            self.stats["digests_full"] += 1
        else:
            self.stats["digests_delta"] += 1
            self.stats["delta_items"] += len(payload["added"]) + len(
                payload["removed"]
            )
        return True

    def candidate_sites(self, lfn: str) -> List[str]:
        """Sites that *might* hold ``lfn`` (site registration order)."""
        self.stats["lookups"] += 1
        pair = hash_pair(lfn)
        candidates = [
            site for site, state in self.states.items()
            if state.might_hold_pair(lfn, pair)
        ]
        if candidates:
            self.stats["candidates_returned"] += len(candidates)
        else:
            self.stats["empty_lookups"] += 1
        return candidates

    def staleness(self, now: float) -> Dict[str, float]:
        """Seconds since each site's last applied digest."""
        return {
            site: now - state.updated_at
            for site, state in self.states.items()
            if state.generation > 0
        }

    def fingerprint(self) -> str:
        parts = [
            self.states[site].fingerprint() for site in sorted(self.states)
        ]
        stats = ",".join(f"{k}={self.stats[k]}" for k in sorted(self.stats))
        return "|".join(parts) + "||" + stats
