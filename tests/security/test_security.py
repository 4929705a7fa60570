"""Tests for the GSI security substrate: keys, CA, proxies, gridmap."""

import dataclasses
import gc

import pytest

from repro.security import (
    AuthorizationError,
    CertificateAuthority,
    CertificateError,
    GridMap,
    KeyPair,
    new_user_credential,
    verify,
)
from repro.security.ca import Certificate, verify_chain


@pytest.fixture
def ca():
    return CertificateAuthority()


@pytest.fixture
def alice(ca):
    return new_user_credential(ca, "/O=Grid/OU=cern.ch/CN=Alice")


@pytest.fixture
def server(ca):
    return new_user_credential(ca, "/O=Grid/OU=anl.gov/CN=gdmp/host=grid.anl.gov")


# ------------------------------------------------------------- keys -------
def test_sign_verify_round_trip():
    keys = KeyPair.generate()
    sig = keys.sign("hello")
    assert verify(keys.public, "hello", sig)


def test_verify_rejects_tampered_data():
    keys = KeyPair.generate()
    sig = keys.sign("hello")
    assert not verify(keys.public, "hullo", sig)


def test_verify_rejects_wrong_key():
    a, b = KeyPair.generate(), KeyPair.generate()
    sig = a.sign("hello")
    assert not verify(b.public, "hello", sig)


def test_verify_unknown_public_key():
    assert not verify("no-such-key", "data", "sig")


# ------------------------------------------------------------- certs ------
def test_ca_issues_verifiable_certificate(ca, alice):
    assert alice.certificate.check_signature()
    assert verify_chain(alice.chain, [ca], now=0.0) == alice.subject


def test_chain_from_untrusted_ca_rejected(alice):
    other_ca = CertificateAuthority("/C=XX/O=Evil/CN=Bogus CA")
    with pytest.raises(CertificateError, match="not a trusted CA"):
        verify_chain(alice.chain, [other_ca], now=0.0)


def test_expired_certificate_rejected(ca):
    cred = new_user_credential(ca, "/O=Grid/CN=Shortlived", now=0.0, lifetime=10.0)
    verify_chain(cred.chain, [ca], now=5.0)
    with pytest.raises(CertificateError, match="expired"):
        verify_chain(cred.chain, [ca], now=11.0)


def test_not_yet_valid_certificate_rejected(ca):
    cred = new_user_credential(ca, "/O=Grid/CN=Future", now=100.0)
    with pytest.raises(CertificateError, match="not yet valid"):
        verify_chain(cred.chain, [ca], now=50.0)


def test_subject_dn_must_be_absolute(ca):
    keys = KeyPair.generate()
    with pytest.raises(ValueError):
        ca.issue("CN=NoSlash", keys.public)


# ------------------------------------------------------------- proxies ----
def test_proxy_authenticates_as_user_identity(ca, alice):
    proxy = alice.create_proxy(now=0.0)
    identity = verify_chain(proxy.chain, [ca], now=1.0)
    assert identity == alice.subject
    assert proxy.subject.endswith("/CN=proxy")
    assert proxy.identity == alice.subject


def test_proxy_expires_independently(ca, alice):
    proxy = alice.create_proxy(now=0.0, lifetime=100.0)
    verify_chain(proxy.chain, [ca], now=99.0)
    with pytest.raises(CertificateError, match="expired"):
        verify_chain(proxy.chain, [ca], now=101.0)


def test_delegated_proxy_keeps_identity_and_depth(ca, alice):
    proxy = alice.create_proxy(now=0.0, lifetime=1000.0)
    delegated = proxy.delegate(now=10.0)
    assert verify_chain(delegated.chain, [ca], now=20.0) == alice.subject
    assert delegated.delegation_depth == 2
    assert len(delegated.chain) == 3


def test_delegation_cannot_outlive_parent(ca, alice):
    proxy = alice.create_proxy(now=0.0, lifetime=100.0)
    delegated = proxy.delegate(now=50.0, lifetime=10_000.0)
    assert delegated.certificate.valid_until <= 100.0


def test_delegation_from_expired_proxy_rejected(ca, alice):
    from repro.security import CredentialError

    proxy = alice.create_proxy(now=0.0, lifetime=10.0)
    with pytest.raises(CredentialError):
        proxy.delegate(now=20.0)


def test_forged_chain_rejected(ca, alice, server):
    # splice Alice's proxy onto the server's end-entity certificate
    proxy = alice.create_proxy(now=0.0)
    forged = [proxy.chain[0], server.chain[0]]
    with pytest.raises(CertificateError, match="broken chain"):
        verify_chain(forged, [ca], now=1.0)


# ------------------------------------------------------------- gridmap ----
def test_gridmap_authorize(ca, alice):
    gm = GridMap()
    gm.add(alice.subject, "hepuser")
    assert gm.authorize(alice.subject) == "hepuser"


def test_gridmap_rejects_unknown_dn():
    gm = GridMap()
    with pytest.raises(AuthorizationError):
        gm.authorize("/O=Grid/CN=Nobody")


def test_gridmap_remove():
    gm = GridMap({"/O=G/CN=A": "a"})
    gm.remove("/O=G/CN=A")
    with pytest.raises(AuthorizationError):
        gm.authorize("/O=G/CN=A")


def test_gridmap_parse_classic_format():
    text = '''
    # comment
    "/O=Grid/OU=cern.ch/CN=Alice" hepuser
    "/O=Grid/OU=anl.gov/CN=Bob" bob
    '''
    gm = GridMap.parse(text)
    assert gm.authorize("/O=Grid/OU=cern.ch/CN=Alice") == "hepuser"
    assert gm.authorize("/O=Grid/OU=anl.gov/CN=Bob") == "bob"


def test_gridmap_parse_rejects_malformed():
    with pytest.raises(ValueError):
        GridMap.parse("/O=Grid/CN=NoQuotes user")
    with pytest.raises(ValueError):
        GridMap.parse('"/O=Grid/CN=NoAccount"')


def test_gridmap_dn_validation():
    gm = GridMap()
    with pytest.raises(ValueError):
        gm.add("CN=relative", "user")


# ------------------------------------------------ remembered verdicts -------
def test_a_tampered_copy_of_a_verified_certificate_still_fails(ca, alice):
    assert verify_chain(alice.chain, [ca], now=0.0) == alice.subject
    forged = dataclasses.replace(
        alice.certificate, subject="/O=Grid/OU=cern.ch/CN=Mallory"
    )
    with pytest.raises(CertificateError, match="bad signature"):
        verify_chain([forged], [ca], now=0.0)
    # the genuine one is still accepted after the forgery was refused
    assert verify_chain(alice.chain, [ca], now=1.0) == alice.subject


def test_a_verified_certificate_still_expires(ca):
    cred = new_user_credential(ca, "/O=Grid/CN=Brief", now=0.0, lifetime=10.0)
    proxy = cred.create_proxy(now=0.0, lifetime=5.0)
    assert verify_chain(proxy.chain, [ca], now=0.0) == cred.subject
    with pytest.raises(CertificateError, match="expired"):
        verify_chain(proxy.chain, [ca], now=6.0)
    with pytest.raises(CertificateError, match="expired"):
        verify_chain(cred.chain, [ca], now=10.5)


def test_a_verdict_is_not_copied_with_the_certificate(ca, alice):
    """``_make_cert`` builds a certificate from another's ``__dict__``:
    a verdict kept there would ride into the copy."""
    verify_chain(alice.chain, [ca], now=0.0)
    fields = {field.name for field in dataclasses.fields(Certificate)}
    assert set(vars(alice.certificate)) == fields


def test_a_verdict_lives_no_longer_than_its_certificate(ca):
    from repro.security import ca as ca_module

    subject = "/O=Grid/CN=Transient"
    cred = new_user_credential(ca, subject)
    verify_chain(cred.chain, [ca], now=0.0)
    assert cred.certificate in ca_module._SIGNED
    del cred
    gc.collect()
    assert [c for c in ca_module._SIGNED if c.subject == subject] == []


def test_dropped_grids_leave_no_key_pairs_behind():
    """The key space holds pairs weakly: two grids built, used and dropped
    leave it where it was, while a live certificate keeps its issuer's
    pair — and so its signature — verifiable."""
    from repro.gdmp import DataGrid, GdmpConfig
    from repro.netsim.units import MB
    from repro.security import keys

    gc.collect()
    start = len(keys._KEYSPACE)
    for _ in range(2):
        grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")],
                        catalog_host="cern", seed=3)
        grid.run(until=grid.site("cern").client.produce_and_publish(
            "kept.db", 1 * MB))
        assert len(keys._KEYSPACE) > start
        del grid
    gc.collect()
    assert len(keys._KEYSPACE) == start

    cert = CertificateAuthority("/C=CH/O=Brief/CN=Gone CA").issue(
        "/O=Grid/CN=Orphan", KeyPair.generate().public)
    gc.collect()
    assert cert.check_signature()
