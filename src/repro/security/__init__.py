"""Grid Security Infrastructure (GSI) substrate.

The paper: "Every client request to a GDMP server is authenticated and
authorized by a security service.  GDMP uses the Globus Security
Infrastructure (GSI), which provides single sign-on capabilities for Grid
resources."

This package reproduces GSI *semantics* — certificate chains rooted in
trusted CAs, short-lived proxy credentials created from a user credential
(single sign-on), proxy-to-proxy delegation, chain verification, and
gridmap-file authorization — over a simulated public-key scheme (see
:mod:`repro.security.keys`; no real cryptography, by design).  The
package holds the credentials and the checks; who authenticates whom is
the bus's business: :class:`repro.services.middleware.GsiAuthenticator`
verifies the caller's chain and maps it through the gridmap, per request
on the Request Manager and in ``ADAT`` on the GridFTP control channel.
"""

from repro.security.ca import Certificate, CertificateAuthority, CertificateError
from repro.security.credentials import (
    Credential,
    CredentialError,
    ProxyCredential,
    new_user_credential,
)
from repro.security.gridmap import AuthorizationError, GridMap
from repro.security.keys import KeyPair, sign, verify

__all__ = [
    "AuthorizationError",
    "Certificate",
    "CertificateAuthority",
    "CertificateError",
    "Credential",
    "CredentialError",
    "GridMap",
    "KeyPair",
    "ProxyCredential",
    "new_user_credential",
    "sign",
    "verify",
]
