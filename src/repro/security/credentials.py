"""User, host, and proxy credentials.

A :class:`Credential` bundles a certificate chain with the private key of
the leaf certificate.  ``create_proxy`` implements GSI single sign-on: a
short-lived key pair is generated and its certificate is signed by the
current leaf, so subsequent authentications never touch the long-lived key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.security.ca import Certificate, CertificateAuthority, _make_cert
from repro.security.keys import KeyPair

__all__ = ["Credential", "ProxyCredential", "CredentialError", "new_user_credential"]

DEFAULT_PROXY_LIFETIME = 12 * 3600.0  # grid-proxy-init default: 12 hours


class CredentialError(Exception):
    """Credential misuse (expired proxy, missing key, ...)."""


@dataclass
class Credential:
    """A certificate chain plus the leaf private key."""

    chain: list[Certificate]
    keys: KeyPair

    @property
    def certificate(self) -> Certificate:
        return self.chain[0]

    @property
    def subject(self) -> str:
        return self.chain[0].subject

    @property
    def identity(self) -> str:
        """The end-entity DN, regardless of proxy depth."""
        return self.chain[-1].subject

    def check(self, now: float) -> None:
        """Raise CertificateError unless every chain link is valid at ``now``."""
        for cert in self.chain:
            cert.check_validity(now)

    def create_proxy(
        self,
        now: float,
        lifetime: float = DEFAULT_PROXY_LIFETIME,
    ) -> "ProxyCredential":
        """Single sign-on: derive a short-lived proxy credential."""
        self.check(now)
        proxy_keys = KeyPair.generate()
        proxy_cert = _make_cert(
            subject=self.certificate.subject + "/CN=proxy",
            public_key=proxy_keys.public,
            issuer_dn=self.certificate.subject,
            issuer_keys=self.keys,
            valid_from=now,
            valid_until=now + lifetime,
            is_proxy=True,
        )
        return ProxyCredential(chain=[proxy_cert, *self.chain], keys=proxy_keys)


@dataclass
class ProxyCredential(Credential):
    """A delegatable short-lived credential (the product of proxy init)."""

    delegation_depth: int = field(default=1)

    def delegate(self, now: float, lifetime: float | None = None) -> "ProxyCredential":
        """Create a further-restricted proxy for a remote service (GSI
        delegation: the lifetime can never exceed the parent proxy's)."""
        remaining = self.certificate.valid_until - now
        if remaining <= 0:
            raise CredentialError("cannot delegate from an expired proxy")
        lifetime = remaining if lifetime is None else min(lifetime, remaining)
        child = self.create_proxy(now, lifetime)
        return ProxyCredential(
            chain=child.chain,
            keys=child.keys,
            delegation_depth=self.delegation_depth + 1,
        )


def new_user_credential(
    ca: CertificateAuthority,
    subject: str,
    now: float = 0.0,
    lifetime: float = 365 * 86400.0,
) -> Credential:
    """Issue a fresh long-lived end-entity credential from ``ca``."""
    keys = KeyPair.generate()
    cert = ca.issue(subject, keys.public, valid_from=now, lifetime=lifetime)
    return Credential(chain=[cert], keys=keys)
