"""The ``catalog.*`` operation table: one row per wire operation.

Everything that must know the catalog's six operations reads this
table instead of spelling them out again — the service that hosts a
catalog, the read replica that mirrors one, the site-side proxy and the
digest feed of the Replica Location Index (all in :mod:`repro.gdmp` and
:mod:`repro.rls`, which import downward to here).  Adding or changing an
operation is one row, one :class:`GdmpCatalog` method and one proxy stub.

A row stays while some caller sends it.  A name is a batch of one on
the wire as in process: a per-name read or publish is an ``info_bulk``
or ``publish_bulk`` envelope carrying one item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.catalog.gdmp_catalog import GdmpCatalog

__all__ = ["CatalogOperation", "OPERATIONS", "READ_OPERATIONS", "WRITE_OPERATIONS"]


@dataclass(frozen=True)
class CatalogOperation:
    """How one ``catalog.<name>`` operation applies, and what it touches."""

    name: str
    #: the operation itself: ``apply(catalog, wire payload)`` -> answer
    apply: Callable[[GdmpCatalog, dict], Any]
    #: None for a read; ``"add"`` / ``"remove"`` for a write, by what it
    #: does to the set of names its site holds
    effect: Optional[str] = None
    #: payload key holding the batch (``"lfns"`` / ``"files"``) of a bulk
    #: operation; None when the payload names at most one LFN
    batch: Optional[str] = None
    #: the catalog may choose the names (a publish): the answer carries
    #: them back, where every other write answers True
    mints: bool = False

    def n_items(self, payload: dict) -> int:
        """Batched items in ``payload`` (what an envelope is sized by)."""
        return 0 if self.batch is None else len(payload[self.batch])

    def lfns(self, payload: dict, answer: Any = None) -> list[str]:
        """The LFNs ``payload`` touches.  A publish still on its way to
        the catalog may leave names to it: pass the ``answer`` to read
        them from there (a propagated payload has them filled in)."""
        if self.mints and answer is not None:
            return list(answer)
        if self.batch is None:
            return [payload["lfn"]]
        if "lfns" in payload:  # the batch itself, or a propagated list
            return list(payload["lfns"])
        return [item["lfn"] for item in payload[self.batch]]

    def propagated(self, payload: dict, answer: Any) -> dict:
        """The payload of an applied write as listeners and replicas get
        it: every name the catalog generated filled in, so a replica
        replays the registration byte-for-byte, and a bulk write's names
        listed under ``lfns`` whatever its batch key."""
        names = self.lfns(payload, answer)
        if self.batch is None:
            return {**payload, "lfn": names[0]}
        filled = {**payload, "lfns": names}
        if self.batch == "files":
            filled["files"] = [
                {**item, "lfn": lfn} for item, lfn in zip(payload["files"], names)
            ]
        return filled


_Op = CatalogOperation

#: every ``catalog.*`` operation, writes first, keyed by its bare name
OPERATIONS: dict[str, CatalogOperation] = {
    row.name: row
    for row in (
        _Op("publish_bulk", lambda c, p: c.publish_bulk(p["site"], p["files"]),
            "add", "files", mints=True),
        _Op("add_replica_bulk",
            lambda c, p: c.add_replicas(list(p["lfns"]), p["site"]),
            "add", "lfns"),
        _Op("adopt_bulk", lambda c, p: c.adopt_bulk(list(p["files"]), p["site"]),
            "add", "files"),
        _Op("remove_replica",
            lambda c, p: c.remove_replica(p["lfn"], p["site"]), "remove"),
        _Op("info_bulk",
            lambda c, p: c.info_bulk(
                list(p["lfns"]), missing_ok=p.get("missing_ok", False)
            ),
            batch="lfns"),
        _Op("search", lambda c, p: c.search(p["filter"])),
    )
}

#: ``catalog.*`` operations that change the catalog (exactly-once)
WRITE_OPERATIONS = tuple(
    name for name, row in OPERATIONS.items() if row.effect is not None
)
#: ``catalog.*`` operations any catalog copy can answer
READ_OPERATIONS = tuple(
    name for name, row in OPERATIONS.items() if row.effect is None
)
