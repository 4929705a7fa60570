"""repro.rls — the two-tier Replica Location Service.

Shards the replica catalog into per-site Local Replica Catalogs (LRCs)
under a soft-state Replica Location Index (RLI) fed by periodic
bloom-compressed digests, following the Giggle/EDG "Next-Generation
Data Management Services" design referenced from the source paper's
lineage: writes stay local to the owning site, cross-site lookups go
index-first with verify-on-use at the LRCs, and index staleness is
bounded by the digest cadence — it can cost extra probes, never wrong
answers.
"""

from .bloom import BloomFilter
from .digest import (
    DigestConfig,
    DigestSource,
    ReplicaLocationIndex,
    SiteState,
    digest_wire_size,
)
from .rli import RliService
from .router import RlsCatalogProxy
from .runtime import RlsConfig, RlsRuntime

__all__ = [
    "BloomFilter",
    "DigestConfig",
    "DigestSource",
    "ReplicaLocationIndex",
    "RliService",
    "RlsCatalogProxy",
    "RlsConfig",
    "RlsRuntime",
    "SiteState",
    "digest_wire_size",
]
