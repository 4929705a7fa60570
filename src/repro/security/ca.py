"""Certificate authority and X.509-style certificates."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

from repro.security.keys import KeyPair, verify

__all__ = ["Certificate", "CertificateAuthority", "CertificateError"]


class CertificateError(Exception):
    """Invalid, expired, or untrusted certificate."""


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a subject DN to a public key.

    ``issuer`` is the signer's DN; ``issuer_public`` its public key, so a
    verifier can walk the chain without a directory lookup.  Validity is in
    simulation seconds.  ``issuer_keys`` is no part of what is signed or
    compared: it keeps the issuer's pair alive in the weakly held key space
    (:mod:`repro.security.keys`) for as long as the certificate is, so the
    certificate stays verifiable.
    """

    subject: str
    public_key: str
    issuer: str
    issuer_public: str
    valid_from: float
    valid_until: float
    signature: str
    is_proxy: bool = False
    issuer_keys: Optional[KeyPair] = field(
        default=None, compare=False, repr=False
    )

    def signed_payload(self) -> str:
        """The canonical string the signature covers."""
        return "|".join(
            [
                self.subject,
                self.public_key,
                self.issuer,
                f"{self.valid_from:.6f}",
                f"{self.valid_until:.6f}",
                "proxy" if self.is_proxy else "eec",
            ]
        )

    def check_signature(self) -> bool:
        """Whether the issuer's signature verifies."""
        return verify(self.issuer_public, self.signed_payload(), self.signature)

    def check_validity(self, now: float) -> None:
        """Raise CertificateError unless signed and within validity at ``now``."""
        if self not in _SIGNED:
            if not self.check_signature():
                raise CertificateError(f"bad signature on {self.subject!r}")
            _SIGNED.add(self)
        if now < self.valid_from:
            raise CertificateError(f"certificate for {self.subject!r} not yet valid")
        if now > self.valid_until:
            raise CertificateError(f"certificate for {self.subject!r} expired")


#: certificates whose signature verified, by value: a certificate keeps
#: its issuer's pair in the key space (``issuer_keys``), so a signature
#: that verified once always will, and each certificate pays for the check
#: once.  Kept here, not on the certificate, so no copy of one
#: (``_make_cert``) inherits a verdict; weakly, so a verdict lives no
#: longer than a certificate holding it.
_SIGNED: "weakref.WeakSet[Certificate]" = weakref.WeakSet()


def _make_cert(
    subject: str,
    public_key: str,
    issuer_dn: str,
    issuer_keys: KeyPair,
    valid_from: float,
    valid_until: float,
    is_proxy: bool,
) -> Certificate:
    unsigned = Certificate(
        subject=subject,
        public_key=public_key,
        issuer=issuer_dn,
        issuer_public=issuer_keys.public,
        valid_from=valid_from,
        valid_until=valid_until,
        signature="",
        is_proxy=is_proxy,
        issuer_keys=issuer_keys,
    )
    return Certificate(
        **{**unsigned.__dict__, "signature": issuer_keys.sign(unsigned.signed_payload())}
    )


class CertificateAuthority:
    """A root of trust that issues end-entity certificates."""

    def __init__(self, name: str = "/C=CH/O=TestGrid/CN=Grid CA"):
        self.name = name
        self.keys = KeyPair.generate()
        self.certificate = _make_cert(
            subject=name,
            public_key=self.keys.public,
            issuer_dn=name,
            issuer_keys=self.keys,
            valid_from=0.0,
            valid_until=float("inf"),
            is_proxy=False,
        )

    def issue(
        self,
        subject: str,
        public_key: str,
        valid_from: float = 0.0,
        lifetime: float = 365 * 86400.0,
    ) -> Certificate:
        """Issue an end-entity certificate for a subject's public key."""
        if not subject.startswith("/"):
            raise ValueError(f"subject DN must start with '/': {subject!r}")
        return _make_cert(
            subject=subject,
            public_key=public_key,
            issuer_dn=self.name,
            issuer_keys=self.keys,
            valid_from=valid_from,
            valid_until=valid_from + lifetime,
            is_proxy=False,
        )


def verify_chain(
    chain: list[Certificate],
    trusted_cas: list[CertificateAuthority],
    now: float,
) -> str:
    """Validate a certificate chain ``[leaf, ..., end-entity]`` and return
    the authenticated *identity* DN (the end-entity subject — proxies
    inherit the identity of the credential that signed them).

    Raises :class:`CertificateError` on any failure.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    trusted = {ca.name: ca.keys.public for ca in trusted_cas}
    for cert in chain:
        cert.check_validity(now)
    for child, parent in zip(chain, chain[1:]):
        if child.issuer != parent.subject or child.issuer_public != parent.public_key:
            raise CertificateError(
                f"broken chain: {child.subject!r} not issued by {parent.subject!r}"
            )
        if not child.is_proxy:
            raise CertificateError(
                f"non-proxy certificate {child.subject!r} issued by a non-CA"
            )
    root = chain[-1]
    if trusted.get(root.issuer) != root.issuer_public:
        raise CertificateError(f"issuer {root.issuer!r} is not a trusted CA")
    if root.is_proxy:
        raise CertificateError("chain terminates in a proxy, not an end entity")
    return root.subject
