"""The directory's column layout: entries are snapshot views, batches
validate before they mutate, every mutation path keeps the postings in
step with the columns, and a full catalog costs the cyclic collector
next to nothing per entry."""

import gc
import random

import pytest

from repro.catalog import GdmpCatalog
from repro.catalog.ldapsim import LdapDirectory, LdapError, parent_dn

from .test_search_differential import ATTRS, VALUES, random_filter


@pytest.fixture
def directory():
    d = LdapDirectory()
    d.add("o=g", {"objectClass": ["org"], "x": ["1"]})
    d.add("a=1,o=g", {"objectClass": ["leaf"]})
    d.add("a=2,o=g", {"objectClass": ["leaf"]})
    return d


def everything(directory):
    return [directory.get(dn) for dn in directory.dns()]


# -- views ------------------------------------------------------------------------
def test_changing_a_returned_entry_changes_nothing_stored(directory):
    directory.get("o=g").attributes["y"] = ["z"]
    directory.get("o=g").attributes["x"].append("2")
    (found,) = directory.search("o=g", "(x=1)", scope="base")
    found.attributes["x"][0] = "9"
    directory.children("o=g")[0].attributes.clear()
    assert directory.get("o=g").attributes == {"objectClass": ["org"], "x": ["1"]}
    assert directory.search("o=g", "(y=z)") == []
    assert directory.search("o=g", "(x=9)") == []
    assert [e.dn for e in directory.search("o=g", "(x=1)")] == ["o=g"]
    assert directory.get("a=1,o=g").attributes == {"objectClass": ["leaf"]}


def test_a_view_lists_attributes_in_the_order_they_were_added(directory):
    directory.modify_add("a=1,o=g", "zeta", "1")
    directory.modify_add_many("a=1,o=g", "alpha", ["2", "3"])
    directory.modify_add("a=1,o=g", "zeta", "4")
    assert list(directory.get("a=1,o=g").attributes) == [
        "objectClass", "zeta", "alpha",
    ]
    directory.modify_delete("a=1,o=g", "zeta")
    directory.modify_add("a=1,o=g", "zeta", "5")
    assert directory.get("a=1,o=g").attributes == {
        "objectClass": ["leaf"], "alpha": ["2", "3"], "zeta": ["5"],
    }
    assert directory.get("a=1,o=g", ("zeta",)).attributes == {"zeta": ["5"]}


def test_an_empty_attribute_is_kept_until_deleted(directory):
    directory.add("c=1,o=g", {"objectClass": ["coll"], "filename": []})
    assert directory.get("c=1,o=g").attributes["filename"] == []
    assert directory.search("o=g", "(filename=*)") == []
    directory.modify_delete("c=1,o=g", "filename")
    with pytest.raises(LdapError):
        directory.modify_delete("c=1,o=g", "filename")


# -- batches ------------------------------------------------------------------------
@pytest.mark.parametrize(
    "batch",
    [
        ["a=1,o=g", "a=9,o=g"],        # the second DN does not exist
        ["a=1,o=g", "a = 1, o=g"],     # one DN named twice
        ["o=g", "a=1,o=g", "a=2,o=g"],  # a parent before its children
    ],
)
def test_a_bad_delete_batch_leaves_the_directory_unchanged(directory, batch):
    before = directory.search("o=g")
    with pytest.raises(LdapError):
        directory.delete_many(batch)
    assert directory.search("o=g") == before
    assert [e.dn for e in directory.search("o=g", "(objectClass=leaf)")] == [
        "a=1,o=g", "a=2,o=g",
    ]


def test_a_subtree_goes_leaves_first_in_one_batch(directory):
    directory.delete_many(["a=2,o=g", "a=1,o=g", "o=g"])
    assert len(directory) == 0
    directory.add("o=g", {"objectClass": ["org"]})
    assert directory.dns() == ["o=g"]


# -- every mutation path against the oracle -------------------------------------------
def check_against_views(directory, rng):
    """``search`` equals ``search_naive`` on every scope and a spread of
    filters; ``has_value`` and ``children`` agree with the views."""
    views = everything(directory)
    dns = [view.dn for view in views]
    bases = ["o=grid"] + rng.sample(dns, min(3, len(dns)))
    filters = [random_filter(rng) for _ in range(6)] + [
        f"({attr}={VALUES[attr][0]})" for attr in ATTRS
    ]
    for base in bases:
        for scope in ("base", "one", "subtree"):
            for filter_text in filters:
                assert directory.search(base, filter_text, scope) == (
                    directory.search_naive(base, filter_text, scope)
                ), (filter_text, scope, base)
    for view in views:
        for attr in ATTRS:
            held = view.attributes.get(attr, [])
            for value in VALUES[attr] + ["grow"]:
                assert directory.has_value(view.dn, attr, value) == (
                    value in held
                ), (view.dn, attr, value)
        assert directory.children(view.dn) == [
            other for other in views if parent_dn(other.dn) == view.dn
        ]


def random_step(directory, rng, graveyard):
    """One random mutation through a public write path."""
    dns = directory.dns()
    leaves = [dn for dn in dns if dn != "o=grid" and not directory.children(dn)]
    kind = rng.choice(
        ["add", "add", "modify_add", "delete_value", "delete_attr", "delete"]
    )
    if kind == "add":
        batch = []
        for _ in range(rng.randint(1, 4)):
            if graveyard and rng.random() < 0.3:
                dn = graveyard.pop()  # a deleted DN, added again
                if directory.exists(parent_dn(dn)) or any(
                    parent_dn(dn) == b for b, _ in batch
                ):
                    batch.append((dn, {"objectClass": ["again"]}))
                continue
            parent = rng.choice(dns + [b for b, _ in batch])
            if parent.count(",") >= 3:
                parent = "o=grid"
            dn = f"cn=n{rng.randrange(10**6)},{parent}"
            attrs = {"objectClass": [rng.choice(VALUES["objectClass"])]}
            for attr in rng.sample(ATTRS[1:], rng.randint(0, 3)):
                attrs[attr] = rng.sample(VALUES[attr], rng.randint(0, 2))
            batch.append((dn, attrs))
        directory.add_many(batch)
        return
    view = directory.get(rng.choice(dns))
    if kind == "modify_add" or (kind.startswith("delete_") and not view.attributes):
        attr = rng.choice(ATTRS)
        directory.modify_add_many(
            view.dn, attr, rng.choices(VALUES[attr], k=rng.randint(0, 3))
        )
        return
    if kind in ("delete_value", "delete_attr"):
        attr = rng.choice(list(view.attributes))
        values = view.attributes[attr]
        if kind == "delete_attr" or not values:
            directory.modify_delete(view.dn, attr)
        else:
            directory.modify_delete(view.dn, attr, rng.choice(values))
    elif leaves:
        gone = rng.sample(leaves, rng.randint(1, min(3, len(leaves))))
        directory.delete_many(gone)
        graveyard.extend(gone)


@pytest.mark.parametrize("seed", range(5))
def test_every_mutation_path_keeps_search_equal_to_the_views(seed):
    rng = random.Random(3100 + seed)
    directory = LdapDirectory()
    directory.add("o=grid", {"objectClass": ["organization"]})
    directory.add_many(
        (f"cn=s{i},o=grid", {"objectClass": ["top"], "owner": ["cms"]})
        for i in range(12)
    )
    # one value's posting grows from one row to a set and back to nothing
    rows = [f"cn=s{i},o=grid" for i in range(12)]
    for dn in rows + rows[::-1]:
        if directory.has_value(dn, "run", "grow"):
            directory.modify_delete(dn, "run", "grow")
        else:
            directory.modify_add(dn, "run", "grow")
        check_against_views(directory, rng)
    # a deleted DN comes back on a reused row, with another shape
    directory.delete("cn=s0,o=grid")
    check_against_views(directory, rng)
    directory.add("cn=s0,o=grid", {"run": ["grow"], "objectClass": ["again"]})
    check_against_views(directory, rng)
    graveyard: list[str] = []
    for _ in range(40):
        random_step(directory, rng, graveyard)
        check_against_views(directory, rng)


# -- what a catalog costs the collector ---------------------------------------------
#: tracked objects per directory entry an 8 × 3 000 ``publish_bulk`` build
#: adds: measured 442 / 24 011 = 0.0184, plus 10 % — the budget
#: ``tools/smoke.py directory_census`` gates (9.0 when every entry was an
#: ``Entry`` with a dict of lists and a posting dict per value)
TRACKED_PER_ENTRY = 0.0203


def catalog_files(site, count):
    rng = random.Random(f"2001-{site}")
    return [
        {
            "lfn": f"cl-{site}-{i:06d}.dat", "size": 1000.0 + i,
            "modified": 0.0, "crc": i,
            "attributes": {
                "run": rng.randrange(400),
                "kind": rng.choice(("aod", "esd", "raw")),
            },
        }
        for i in range(count)
    ]


def test_a_catalog_costs_the_collector_its_measured_census_plus_a_tenth():
    # a small build first pays lazy imports and caches
    GdmpCatalog().publish_bulk("warm", catalog_files("warm", 10))
    gc.collect()
    gc.freeze()  # count only what the build adds
    try:
        catalog = GdmpCatalog()
        for site in ("cern", "anl", "caltech", "slac", "fnal", "bnl", "ral", "in2p3"):
            catalog.publish_bulk(site, catalog_files(site, 3000))
        gc.collect()
        added = len(gc.get_objects())
    finally:
        gc.unfreeze()
    entries = len(catalog.catalog.directory)
    assert entries == 8 * 3000 + 11
    assert added / entries <= TRACKED_PER_ENTRY
