"""Simulated public-key scheme.

NOT CRYPTOGRAPHY.  The simulation needs public-key *semantics* — only the
private key can produce a signature, anyone holding the public key can check
it — without shipping real crypto.  We model the underlying mathematics with
a module-level registry mapping each public key to its private counterpart:
``verify`` consults the registry the way real verification consults number
theory.  Code under test only ever holds the public half, so the access
pattern (and therefore every protocol bug we could make) matches real GSI.
"""

from __future__ import annotations

import hashlib
import secrets
import weakref
from dataclasses import dataclass

__all__ = ["KeyPair", "sign", "verify"]

#: The "mathematics": public key -> its pair.  Populated at key generation;
#: consulted only by :func:`verify`.  Held weakly: a pair lives as long as
#: something holding it does (a credential, a CA, a certificate it signed),
#: so a dropped grid takes its keys with it.
_KEYSPACE: "weakref.WeakValueDictionary[str, KeyPair]" = (
    weakref.WeakValueDictionary()
)


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


@dataclass(frozen=True)
class KeyPair:
    """A simulated asymmetric key pair."""

    public: str
    private: str

    @classmethod
    def generate(cls) -> "KeyPair":
        private = secrets.token_hex(16)
        pair = cls(public=_digest("public-of", private), private=private)
        _KEYSPACE[pair.public] = pair
        return pair

    def sign(self, data: str) -> str:
        """Signature over ``data`` with this pair's private key."""
        return sign(self.private, data)


def sign(private_key: str, data: str) -> str:
    """Produce a signature over ``data`` with ``private_key``."""
    return _digest("signature", private_key, data)


def verify(public_key: str, data: str, signature: str) -> bool:
    """Check ``signature`` over ``data`` against ``public_key``.

    Returns False for unknown keys, tampered data, or forged signatures.
    """
    pair = _KEYSPACE.get(public_key)
    if pair is None:
        return False
    return signature == _digest("signature", pair.private, data)
