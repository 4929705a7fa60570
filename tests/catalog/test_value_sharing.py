"""A catalog value is stored once: the directory interns every ``str`` it
stores, so each distinct value of an attribute is one object across
column cells, posting keys and directories.  Sharing changes identity
only — what a directory holds, finds and refuses is what it was when
every cell kept its own copy — and a proxy's cache keeps one copy of an
answer while every caller still gets copies it may change."""

from collections import defaultdict
from unittest import mock

import pytest

from repro.catalog import ldapsim
from repro.catalog.gdmp_catalog import GdmpCatalog
from repro.catalog.ldapsim import LdapDirectory, LdapError
from repro.gdmp import DataGrid, GdmpConfig
from repro.rls import RlsConfig

from .test_bulk_ingest import BATCHES, base, check_postings, state


def fresh(text: str) -> str:
    """An equal string that is a new object (``str(text)`` is ``text``)."""
    return "".join(list(text))


def objects_by_text(d: LdapDirectory, attr: str) -> dict[str, set[int]]:
    """text -> ids of the objects holding it in ``attr``'s column cells
    and posting keys."""
    ids: dict[str, set[int]] = defaultdict(set)
    for cell in d._columns.get(attr, ()):
        for value in cell if type(cell) is list else (cell,):
            if value is not None:
                ids[value].add(id(value))
    for key in d._postings.get(attr, {}):
        ids[key].add(id(key))
    return ids


def assert_one_object_per_value(d: LdapDirectory, attr: str) -> None:
    shared = objects_by_text(d, attr)
    assert shared, attr
    assert {text: len(ids) for text, ids in shared.items()} == dict.fromkeys(
        shared, 1
    ), attr


def test_add_many_stores_each_value_once():
    d = base()
    d.add_many(
        (
            f"lf=f{i},cn=c,o=grid",
            {
                "objectClass": (fresh("leaf"),),
                "modified": (fresh("0.000000"),),
                "run": [fresh(f"{i % 3:04d}")],
                "tag": (fresh("hot"), fresh(f"tag{i % 2}")),
            },
        )
        for i in range(12)
    )
    for attr in ("objectClass", "modified", "run", "tag"):
        assert_one_object_per_value(d, attr)
    assert len(objects_by_text(d, "modified")) == 1
    assert set(objects_by_text(d, "run")) == {"7", "0000", "0001", "0002"}


def test_modify_add_many_stores_each_value_once():
    d = base()
    d.add("loc=a,cn=c,o=grid", {"objectClass": ["location"], "filename": []})
    d.add("loc=b,cn=c,o=grid", {"objectClass": ["location"], "filename": []})
    names = [f"name-{i:03d}.dat" for i in range(20)]
    d.modify_add_many("cn=c,o=grid", "filename", [fresh(n) for n in names])
    d.modify_add_many("loc=a,cn=c,o=grid", "filename", [fresh(n) for n in names])
    d.modify_add("loc=b,cn=c,o=grid", "filename", fresh(names[0]))
    assert_one_object_per_value(d, "filename")
    assert len(objects_by_text(d, "filename")) == len(names)


def test_publish_bulk_shares_values_within_and_across_catalogs():
    files = [
        {"lfn": f"f-{i:04d}.dat", "size": 1000.0 + i, "modified": 0.0,
         "crc": i, "attributes": {"run": i % 5, "kind": "aod"}}
        for i in range(40)
    ]
    catalogs = [GdmpCatalog(), GdmpCatalog()]
    for site, catalog in zip(("cern", "anl"), catalogs):
        catalog.publish_bulk(site, [dict(f) for f in files])
    for catalog in catalogs:
        d = catalog.catalog.directory
        for attr in ("size", "modified", "crc", "run", "kind", "lfn", "filename"):
            assert_one_object_per_value(d, attr)
        assert len(objects_by_text(d, "modified")) == 1
        assert len(objects_by_text(d, "run")) == 5
    # a size or a checksum both sites hold is one object in both
    first, second = (objects_by_text(c.catalog.directory, "size") for c in catalogs)
    assert first == second


@pytest.mark.parametrize("name", BATCHES)
def test_sharing_changes_no_state_search_or_refusal(name):
    """Every ``test_bulk_ingest`` batch, its strings fresh objects,
    leaves the same rows, columns, postings, DNs and search results —
    or the same ``LdapError`` — as a directory that interns nothing."""
    batch = [
        (fresh(dn), {attr: [fresh(v) for v in values]
                     for attr, values in attributes.items()})
        for dn, attributes in BATCHES[name]
    ]

    def outcome():
        d = base()
        try:
            d.add_many(batch)
        except LdapError as exc:
            return str(exc), state(d)
        check_postings(d)
        return None, state(d) + (
            d.search("o=grid", "(run=7)"),
            d.search("o=grid", "(|(objectClass=leaf)(tag=q))", scope="one"),
            d.children("cn=c,o=grid"),
        )

    shared = outcome()
    with mock.patch.object(ldapsim, "intern", lambda text: text):
        unshared = outcome()
    assert shared == unshared


# -- the proxy cache keeps one copy, callers get their own ---------------------

SITES = ["cern", "anl", "caltech"]


def central_grid():
    return DataGrid([GdmpConfig(name) for name in SITES], catalog_host="cern")


def sharded_grid():
    return DataGrid(
        [GdmpConfig(name) for name in SITES], catalog_host="cern",
        rls=RlsConfig(),
    )


@pytest.mark.parametrize("build", [central_grid, sharded_grid])
def test_a_changed_locations_answer_changes_no_later_answer(build):
    grid = build()
    proxy = grid.site("anl").client.catalog
    grid.run(until=proxy.publish("anl", 10.0, 0.0, 3, lfn="kept.dat"))
    info = grid.run(until=proxy.info("kept.dat"))
    expected = [dict(loc) for loc in info.locations]
    answer = grid.run(until=proxy.locations("kept.dat"))
    assert answer == expected
    answer[0]["url"] = "gsiftp://elsewhere/kept.dat"
    answer.append({"location": "phantom"})
    again = grid.run(until=proxy.locations("kept.dat"))
    assert again == expected
    again[0].clear()
    assert grid.run(until=proxy.locations("kept.dat")) == expected
    cached = grid.run(until=proxy.info("kept.dat"))
    assert [dict(loc) for loc in cached.locations] == expected


def test_the_router_caches_one_tuple_for_both_kinds():
    """A routed answer's locations are copied once from the LRC's, and
    the cached ``locations`` entry is the cached ``info``'s own tuple."""
    grid = sharded_grid()
    owner = grid.site("anl").client.catalog
    grid.run(until=owner.publish("anl", 10.0, 0.0, 3, lfn="one.dat"))
    reader = grid.site("cern").client.catalog
    info = grid.run(until=reader.info("one.dat"))
    assert reader._cache[("info", "one.dat")] is info
    assert reader._cache[("locations", "one.dat")] is info.locations
