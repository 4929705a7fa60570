"""Deterministic bloom filters for replica-location digests.

A :class:`BloomFilter` summarises the set of logical file names a site
holds so the Replica Location Index can answer "which sites *might*
hold LFN X?" from a few hundred kilobytes instead of a full copy of
every Local Replica Catalog.  False positives are tolerated (the RLS
router verifies candidates at the LRC before trusting them); false
negatives never happen for keys that were added.

Hashing is intentionally **randomness-free**: the k bit positions for a
key come from double hashing over a single ``blake2b`` digest of the
key bytes.  Two filters built from the same key set are byte-identical
regardless of insertion order, process, or host — which is what lets
the determinism gate fingerprint digests directly.
"""

from __future__ import annotations

import hashlib
import math
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

__all__ = ["BloomFilter", "hash_pair"]

#: lower bound on bits so tiny/empty filters still have a sane shape
_MIN_BITS = 64
#: keys hashed per array pass of :meth:`BloomFilter.update` (bounds its
#: position arrays at ``n_hashes`` x this many int64s)
_UPDATE_CHUNK = 1 << 16


def hash_pair(key: str) -> tuple[int, int]:
    """Two independent 64-bit hashes of ``key`` from one blake2b digest.

    The pair is filter-shape-independent, so a caller probing many
    filters for the same key (the RLI checks every site's bloom per
    lookup) can hash once and reuse it via :meth:`BloomFilter.
    contains_pair`.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little")
    # h2 must be odd so the double-hash probe sequence cycles all bits
    # for power-of-two sizes and never degenerates to a fixed point.
    return h1, h2 | 1


_hash_pair = hash_pair


class BloomFilter:
    """Fixed-size bloom filter over string keys.

    ``n_bits`` and ``n_hashes`` fully determine behaviour; use
    :meth:`for_capacity` to size one from an expected key count and a
    target false-positive probability.
    """

    __slots__ = ("n_bits", "n_hashes", "n_added", "_bits")

    def __init__(self, n_bits: int, n_hashes: int) -> None:
        if n_bits < 1:
            raise ValueError("n_bits must be positive")
        if n_hashes < 1:
            raise ValueError("n_hashes must be positive")
        self.n_bits = max(int(n_bits), _MIN_BITS)
        self.n_hashes = int(n_hashes)
        self.n_added = 0
        self._bits = bytearray((self.n_bits + 7) // 8)

    # -- sizing --------------------------------------------------------

    @classmethod
    def for_capacity(cls, capacity: int, fpp: float = 0.01) -> "BloomFilter":
        """Size a filter for ``capacity`` keys at false-positive rate ``fpp``."""
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if not 0.0 < fpp < 1.0:
            raise ValueError("fpp must be in (0, 1)")
        capacity = max(capacity, 1)
        n_bits = math.ceil(-capacity * math.log(fpp) / (math.log(2) ** 2))
        n_hashes = max(1, round(n_bits / capacity * math.log(2)))
        return cls(n_bits, n_hashes)

    # -- membership ----------------------------------------------------

    def _positions(self, key: str) -> Iterator[int]:
        h1, h2 = _hash_pair(key)
        n_bits = self.n_bits
        for i in range(self.n_hashes):
            yield (h1 + i * h2) % n_bits

    def add(self, key: str) -> None:
        bits = self._bits
        for pos in self._positions(key):
            bits[pos >> 3] |= 1 << (pos & 7)
        self.n_added += 1

    def update(self, keys: Iterable[str]) -> None:
        """:meth:`add` every key, setting byte-identical bits: the k
        positions of a chunk of keys are computed and set as whole arrays,
        from the same two words of each key's digest as :func:`hash_pair`.
        ``(h1 + i*h2) mod n == (h1 mod n + i*(h2 mod n)) mod n``, and the
        right side stays below ``n_hashes * n_bits``: exact in int64."""
        keys = iter(keys)
        blake2b = hashlib.blake2b
        n_bits = np.uint64(self.n_bits)
        probes = np.arange(self.n_hashes, dtype=np.int64)
        bits = np.frombuffer(self._bits, dtype=np.uint8)
        while chunk := b"".join(
            blake2b(key.encode("utf-8"), digest_size=16).digest()
            for key in islice(keys, _UPDATE_CHUNK)
        ):
            words = np.frombuffer(chunk, dtype="<u8").reshape(-1, 2)
            h1 = (words[:, 0] % n_bits).astype(np.int64)
            h2 = ((words[:, 1] | np.uint64(1)) % n_bits).astype(np.int64)
            positions = (h1[:, None] + probes * h2[:, None]) % self.n_bits
            positions = positions.ravel()
            np.bitwise_or.at(
                bits, positions >> 3,
                np.left_shift(1, positions & 7).astype(np.uint8),
            )
            self.n_added += len(words)

    def __contains__(self, key: str) -> bool:
        return self.contains_pair(hash_pair(key))

    def contains_pair(self, pair: tuple[int, int]) -> bool:
        """Membership test from a precomputed :func:`hash_pair`."""
        h1, h2 = pair
        bits = self._bits
        n_bits = self.n_bits
        for i in range(self.n_hashes):
            pos = (h1 + i * h2) % n_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    # -- accounting ----------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Wire size of the bit array (what a digest push transfers)."""
        return len(self._bits)

    def fill_ratio(self) -> float:
        """Fraction of bits set — a saturation warning signal."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.n_bits

    def fingerprint(self) -> str:
        """Stable hex digest of shape + bit contents (determinism gate)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{self.n_bits}:{self.n_hashes}:".encode())
        h.update(bytes(self._bits))
        return h.hexdigest()

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self.n_bits, self.n_hashes)
        clone._bits[:] = self._bits
        clone.n_added = self.n_added
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BloomFilter(n_bits={self.n_bits}, n_hashes={self.n_hashes}, "
            f"n_added={self.n_added}, fill={self.fill_ratio():.3f})"
        )
