"""DNs are normalized once at insert — whitespace variants resolve to the
same entry, malformed DNs fail early with `LdapError`."""

import pytest

from repro.catalog.ldapsim import (
    LdapDirectory,
    LdapError,
    normalize_dn,
    parent_dn,
    split_dn,
)


@pytest.fixture
def directory():
    d = LdapDirectory()
    d.add("o=grid", {"objectClass": ["organization"]})
    d.add("cn=files,o=grid", {"objectClass": ["collection"]})
    return d


def test_whitespace_variants_normalize_identically():
    canonical = "cn=files,o=grid"
    for variant in (
        "cn=files, o=grid",
        " cn=files ,o=grid",
        "cn = files , o = grid",
        "\tcn=files,\to=grid ",
    ):
        assert normalize_dn(variant) == canonical
        assert split_dn(variant) == ["cn=files", "o=grid"]


def test_whitespace_variants_resolve_to_the_same_entry(directory):
    entry = directory.get("cn=files,o=grid")
    assert directory.get(" cn = files , o=grid ") == entry  # a fresh view
    assert directory.exists("cn=files , o =grid")
    # modifications through a variant land on the canonical entry
    directory.modify_add("cn = files, o=grid", "filename", "f1")
    assert directory.get("cn=files,o=grid").values("filename") == ["f1"]


def test_add_through_variant_collides_with_canonical(directory):
    with pytest.raises(LdapError):
        directory.add("cn = files , o=grid", {"objectClass": ["collection"]})


def test_search_base_accepts_whitespace_variants(directory):
    found = directory.search(" cn=files , o=grid ", "(objectClass=*)",
                             scope="base")
    assert [e.dn for e in found] == ["cn=files,o=grid"]


@pytest.mark.parametrize(
    "bad",
    ["", "   ", "nodelimiter", "=value", " = value,o=grid",
     "cn=x,,o=grid", "cn=x,nodelim,o=grid", ","],
)
def test_malformed_dns_raise(bad):
    with pytest.raises(LdapError):
        split_dn(bad)
    with pytest.raises(LdapError):
        normalize_dn(bad)


@pytest.mark.parametrize("bad", ["", "nodelimiter", "cn=x,,o=grid"])
def test_malformed_dns_rejected_at_insert(directory, bad):
    with pytest.raises(LdapError):
        directory.add(bad, {"objectClass": ["x"]})


def test_exists_is_false_for_malformed_dns(directory):
    assert not directory.exists("not a dn")
    assert not directory.exists("")


def test_parent_dn_is_normalized():
    assert parent_dn("cn = x , o = grid") == "o=grid"
    assert parent_dn("o=grid") is None


def test_children_keyed_by_canonical_dn(directory):
    directory.add("lf = a , cn=files, o=grid", {"objectClass": ["logicalFile"]})
    kids = directory.children("cn = files ,o=grid")
    assert [e.dn for e in kids] == ["lf=a,cn=files,o=grid"]
