"""The bulk write path: ``add_many`` parses a DN against its known parent
and must agree with a full ``split_dn`` parse on every spelling and every
refusal; the GDMP and Globus layers check a batch's names with one probe,
refuse the first offender and write nothing when they refuse."""

import random

import pytest

from repro.catalog.gdmp_catalog import GdmpCatalog
from repro.catalog.ldapsim import LdapDirectory, LdapError, split_dn
from repro.catalog.replica_catalog import CatalogError, ReplicaCatalog

LEAF = {"objectClass": ["leaf"], "run": ["7"]}


def base():
    d = LdapDirectory()
    d.add("o=grid", {"objectClass": ["organization"]})
    d.add("cn=c,o=grid", {"objectClass": ["collection"], "filename": []})
    d.add("lf=old,cn=c,o=grid", dict(LEAF))
    return d


def state(d):
    """Everything a batch writes, and what a search sees of it."""
    return (
        d.dns(),
        d._dns, d._parents, d._kids, d._shapes, d._columns, d._postings,
        d.search_naive("o=grid"),
    )


def reference_add(d, dn, attributes):
    """One entry, its DN parsed in full by ``split_dn``: the spelling and
    the refusals ``add_many`` must reproduce."""
    parts = split_dn(dn)
    normal = ",".join(parts)
    if d.exists(normal):
        raise LdapError(f"entry exists: {normal!r}")
    parent = ",".join(parts[1:]) if len(parts) > 1 else None
    if parent is not None and not d.exists(parent):
        raise LdapError(f"parent {parent!r} of {normal!r} does not exist")
    d.add(normal, attributes)


def check_postings(d):
    """Every stored value is found by an indexed search exactly as by
    the full scan: no row missing from a posting, none posted twice."""
    for view in d.search_naive("o=grid"):
        for attr, values in view.attributes.items():
            for value in values:
                text = f"({attr}={value})"
                assert d.search("o=grid", text) == d.search_naive("o=grid", text)


def check_batch(batch):
    """``add_many(batch)`` equals one reference add per entry, or raises
    the same error and changes nothing."""
    expected, refused = base(), None
    for dn, attributes in batch:
        try:
            reference_add(expected, dn, attributes)
        except LdapError as exc:
            refused = str(exc)
            break
    d = base()
    if refused is None:
        d.add_many(batch)
        assert state(d) == state(expected)
        check_postings(d)
        return d
    with pytest.raises(LdapError) as caught:
        d.add_many(batch)
    assert str(caught.value) == refused
    assert state(d) == state(base())
    return None


BATCHES = {
    "whitespace-variant parents": [
        ("lf=x, cn=c,o=grid", LEAF),
        ("lf=y,cn=c, o=grid", LEAF),
        (" lf = z ,cn = c , o=grid ", LEAF),
        ("\tlf=t ,cn=c,o=grid", LEAF),
    ],
    "malformed leading RDN": [("lf=a,cn=c,o=grid", LEAF), ("lfx,cn=c,o=grid", LEAF)],
    "blank RDN attribute": [(" =x,cn=c,o=grid", LEAF)],
    "empty RDN attribute": [("=x,cn=c,o=grid", LEAF)],
    "empty leading RDN": [(",cn=c,o=grid", LEAF)],
    "empty inner RDN": [("lf=a,,cn=c,o=grid", LEAF)],
    "empty DN": [("", LEAF)],
    "RDN values holding '='": [
        ("lf=a=b,cn=c,o=grid", LEAF),
        (" lf = c = d ,cn=c,o=grid", LEAF),
        ("lf==,cn=c,o=grid", LEAF),
        ("lf=,cn=c,o=grid", LEAF),
    ],
    "parent earlier in the batch": [
        ("cn=new,o=grid", {"objectClass": ["collection"]}),
        ("lf=x,cn=new,o=grid", LEAF),
        ("lf=y, cn=new,o=grid", LEAF),
        ("lf=z,cn = new,o=grid", LEAF),
    ],
    "missing parent": [("lf=x,cn=c,o=grid", LEAF), ("lf=x,cn=missing,o=grid", LEAF)],
    "child before its parent": [
        ("lf=x,cn=later,o=grid", LEAF),
        ("cn=later,o=grid", {"objectClass": ["collection"]}),
    ],
    "duplicate within the batch": [
        ("lf=x,cn=c,o=grid", LEAF),
        ("lf = x,cn=c,o=grid", LEAF),
    ],
    "duplicate of a stored entry": [
        ("lf=new,cn=c,o=grid", LEAF),
        ("lf=old ,cn=c,o=grid", LEAF),
    ],
    "duplicate top-level entry": [("o=grid", LEAF)],
    "new top-level entries": [("o=other", LEAF), ("cn=a, o=other", LEAF)],
    "values of every shape": [
        ("lf=m,cn=c,o=grid", {"objectClass": ("leaf",), "run": ["7", "7"], "tag": []}),
        ("lf=p,cn=c,o=grid", {"objectClass": ["leaf"], "tag": ["q", "q"]}),
        ("lf=n,cn=c,o=grid", {"objectClass": {"leaf"}, "run": ("8", "7")}),
        *(
            (f"lf=s{i},cn=c,o=grid", {"objectClass": ["leaf"], "run": [str(i % 2)]})
            for i in range(12)
        ),
    ],
}


@pytest.mark.parametrize("name", BATCHES)
def test_add_many_agrees_with_a_full_parse_per_entry(name):
    check_batch(BATCHES[name])


def test_a_variant_parent_spells_its_children_canonically():
    d = check_batch(BATCHES["whitespace-variant parents"])
    assert d.dns() == [
        "cn=c,o=grid", "lf=old,cn=c,o=grid", "lf=t,cn=c,o=grid",
        "lf=x,cn=c,o=grid", "lf=y,cn=c,o=grid", "lf=z,cn=c,o=grid", "o=grid",
    ]
    d = check_batch(BATCHES["RDN values holding '='"])
    assert "lf=c = d,cn=c,o=grid" in d.dns()


def random_dn(rng, parents):
    """A DN under one of ``parents``: canonical, respaced or broken."""
    rdn = rng.choice(["lf", "cn", "loc"]) + "=" + rng.choice(["a", "b", "c=d", "e"])
    parent = rng.choice(parents)
    kind = rng.random()
    if kind < 0.15:
        rdn = rng.choice(["lfx", " =x", "=x", "", " "])
    elif kind < 0.35:
        rdn = rdn.replace("=", rng.choice([" = ", "= ", " ="]), 1)
        rdn = rng.choice(["", " ", "\t"]) + rdn
    elif kind < 0.5:
        parent = parent.replace(",", rng.choice([", ", " ,", ",,"]), 1)
    return f"{rdn},{parent}" if parent else rdn


@pytest.mark.parametrize("seed", range(40))
def test_random_batches_agree_with_a_full_parse_per_entry(seed):
    rng = random.Random(4400 + seed)
    parents = ["o=grid", "cn=c,o=grid", "cn=c,o=grid", "cn=x,o=grid", ""]
    batch = []
    for _ in range(rng.randint(1, 6)):
        dn = random_dn(rng, parents)
        batch.append((dn, {"objectClass": [rng.choice(["leaf", "node"])]}))
        if rng.random() < 0.3:
            parents.append(dn)  # a later entry may sit under this one
    check_batch(batch)


# -- one membership probe per batch -------------------------------------------
def files(*lfns):
    return [{"lfn": lfn, "size": 1.0, "modified": 0.0, "crc": 0} for lfn in lfns]


def test_a_taken_name_mid_batch_refuses_the_publish_and_writes_nothing():
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files("a", "b"))
    rc = catalog.catalog
    with pytest.raises(CatalogError, match="'b' already in use"):
        catalog.publish_bulk("anl", files("new1", "b", "new2", "a"))
    assert rc.collection_filenames("gdmp") == ["a", "b"]
    assert rc.location_filenames("gdmp", "cern") == ["a", "b"]
    assert not rc.location_exists("gdmp", "anl")
    assert not catalog.lfn_exists("new1")
    with pytest.raises(CatalogError):
        rc.logical_file_attributes("gdmp", "new1")


def test_a_name_twice_in_one_publish_is_refused_at_its_second_use():
    catalog = GdmpCatalog()
    with pytest.raises(CatalogError, match="'x' already in use"):
        catalog.publish_bulk("cern", files("w", "x", "y", "x"))
    assert catalog.list_lfns() == []


@pytest.mark.parametrize("bad", ["a=b", "c(d)", " a", "a "])
def test_a_name_refused_by_its_dn_leaves_no_name_behind(bad):
    # reserved characters, or a spelling that normalizes onto "a"
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files("a"))
    with pytest.raises(CatalogError):
        catalog.publish_bulk("cern", files("ok", bad))
    assert catalog.list_lfns() == ["a"]
    assert catalog.publish_bulk("cern", files("ok")) == ["ok"]


def test_a_generated_name_skips_one_named_earlier_in_the_batch():
    (first,) = GdmpCatalog().publish_bulk("cern", files(None))
    catalog = GdmpCatalog()
    lfns = catalog.publish_bulk("cern", files(first, None))
    assert lfns[0] == first and lfns[1] != first
    assert sorted(catalog.list_lfns()) == sorted(lfns)


@pytest.mark.parametrize("write", ["publish_bulk", "adopt_bulk"])
def test_a_batch_refused_by_a_dn_leaves_no_location_behind(write):
    catalog = GdmpCatalog()
    batch = files("ok", "a=b")
    with pytest.raises(CatalogError):
        if write == "publish_bulk":
            catalog.publish_bulk("anl", batch)
        else:
            catalog.adopt_bulk(batch, "anl")
    assert not catalog.catalog.location_exists("gdmp", "anl")
    assert catalog.list_lfns() == []


def test_generated_names_skip_taken_ones_in_counter_order():
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files("file.000002", "file.000003"))
    assert catalog.publish_bulk("cern", files(None, None, None)) == [
        "file.000001", "file.000004", "file.000005"
    ]
    # a refused batch still used up the numbers it drew
    with pytest.raises(CatalogError):
        catalog.publish_bulk("cern", files(None, "file.000001"))
    assert catalog.publish_bulk("cern", files(None)) == ["file.000007"]


def test_an_unregistered_name_mid_batch_refuses_the_location_write():
    rc = ReplicaCatalog()
    rc.create_collection("c")
    rc.create_location("c", "cern", hostname="cern", url_prefix="gsiftp://cern/s")
    rc.bulk_add_filenames_to_collection("c", ["f0", "f1"])
    rc.bulk_add_filenames_to_location("c", "cern", ["f0"])
    with pytest.raises(CatalogError, match="'zz' is not in collection 'c'"):
        rc.bulk_add_filenames_to_location("c", "cern", ["f1", "zz", "f0", "yy"])
    assert rc.location_filenames("c", "cern") == ["f0"]
    assert rc.collection_filenames("c") == ["f0", "f1"]


def test_an_unknown_name_mid_batch_refuses_add_replicas():
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files("a", "b"))
    with pytest.raises(CatalogError, match="unknown logical file 'q'"):
        catalog.add_replicas(["a", "q", "b", "r"], "anl")
    assert not catalog.catalog.location_exists("gdmp", "anl")


#: directory operations one ``publish_bulk`` at a known site costs,
#: whatever its size: the uniqueness probe, the collection's name list,
#: the logical-file entries, the location's membership probe and its
#: name list — plus one probe of generated candidates when the catalog
#: chooses the names
PUBLISH_OPERATIONS = 5


@pytest.mark.parametrize("named", [True, False])
@pytest.mark.parametrize("count", [1, 10, 300])
def test_a_publish_costs_the_directory_the_same_operations_at_any_size(
    count, named
):
    catalog = GdmpCatalog()
    catalog.publish_bulk("cern", files("first"))
    directory = catalog.catalog.directory
    before = directory.operations
    lfns = [f"f{i:04d}" if named else None for i in range(count)]
    catalog.publish_bulk("cern", files(*lfns))
    assert directory.operations - before == PUBLISH_OPERATIONS + (not named)
