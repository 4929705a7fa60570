"""The ``catalog.*`` operation table and its four consumers agree: what
the table lists is what a service registers, what a replica serves and
applies, what the digest feed classifies and what a proxy invalidates."""

import pytest

from repro.catalog.operations import (
    OPERATIONS,
    READ_OPERATIONS,
    WRITE_OPERATIONS,
)
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.catalog_replication import enable_catalog_replication
from repro.gdmp.request_manager import GdmpError
from repro.rls import DigestConfig, RlsConfig
from repro.rls.digest import DigestSource

SITES = [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")]

META = {"size": 10.0, "modified": 1.0, "crc": 3}
#: one wire payload per write, in an order each can succeed in, with the
#: names it touches at the catalog (``None`` = the catalog's choice)
WRITES = [
    ("publish_bulk", {"site": "cern", "files": [{**META, "lfn": "a.db"}]},
     "add", ["a.db"]),
    ("publish_bulk",
     {"site": "cern", "files": [{**META, "lfn": None, "attributes": {"k": 1}}]},
     "add", ["file.000001"]),
    ("publish_bulk",
     {"site": "cern", "files": [{**META, "lfn": "b.db"}, dict(META)]},
     "add", ["b.db", "file.000002"]),
    ("add_replica_bulk", {"lfns": ["b.db", "a.db"], "site": "anl"},
     "add", ["b.db", "a.db"]),
    ("adopt_bulk",
     {"site": "anl", "files": [{"lfn": "far.db", **META, "attributes": {"k": 2}},
                               {"lfn": "b.db", **META}]},
     "add", ["far.db", "b.db"]),
    ("remove_replica", {"lfn": "a.db", "site": "anl"}, "remove", ["a.db"]),
    ("remove_replica", {"lfn": "far.db", "site": "anl"}, "remove", ["far.db"]),
]


def catalog_names(site):
    return {
        op for op in site.request_server._handlers if op.startswith("catalog.")
    }


def test_the_table_is_the_six_operations_split_by_effect():
    # a name is a batch of one on the wire: no per-name twin of a batch
    assert list(OPERATIONS) == [
        "publish_bulk", "add_replica_bulk", "adopt_bulk", "remove_replica",
        "info_bulk", "search",
    ]
    assert set(WRITE_OPERATIONS) | set(READ_OPERATIONS) == set(OPERATIONS)
    assert {op for op, *_ in WRITES} == set(WRITE_OPERATIONS)


def test_every_catalog_host_registers_exactly_the_tables_names():
    wire = {f"catalog.{name}" for name in OPERATIONS}
    central = DataGrid(SITES, catalog_host="cern")
    assert catalog_names(central.site("cern")) == wire
    assert catalog_names(central.site("anl")) == set()
    enable_catalog_replication(central, ["anl"])
    assert catalog_names(central.site("anl")) == {
        "catalog.apply", *(f"catalog.{name}" for name in READ_OPERATIONS)
    }
    sharded = DataGrid(SITES, catalog_host="cern", rls=RlsConfig())
    for site in sharded.sites.values():  # every LRC
        assert catalog_names(site) == wire


def test_every_write_reaches_the_replica_and_the_digest_feed():
    """No write can be forgotten: each one, sent over the wire, leaves
    the replica equal to the primary (``adopt_bulk`` was "unknown
    catalog write" there once) and is classified by the digest
    source with exactly the names it touched."""
    grid = DataGrid(SITES, catalog_host="cern")
    [replica] = enable_catalog_replication(grid, ["caltech"]).values()
    invalidated = []
    replica.apply_listeners.append(invalidated.append)
    # holdings large enough that a two-name change stays a delta
    source = DigestSource("cern", lambda: ["held"] * 100, DigestConfig(
        full_every=10**6))
    source.ack(source.next_digest())
    grid.catalog_service.write_listeners.append(source.on_write)
    client = grid.site("anl").request_client
    primary = grid.catalog_backend
    for op, payload, effect, names in WRITES:
        grid.run(until=client.call(
            "cern", f"catalog.{op}", payload, idempotent=True))
        grid.run()  # propagation to the replica
        assert invalidated.pop() == names, op
        assert not invalidated
        delta = source.next_digest()
        assert delta["added" if effect == "add" else "removed"] == sorted(names)
        assert not delta["removed" if effect == "add" else "added"], op
        source.ack(delta)
        assert replica.catalog.list_lfns() == primary.list_lfns(), op
        assert (replica.catalog.info_bulk(primary.list_lfns())
                == primary.info_bulk(primary.list_lfns())), op
    assert replica.applied_writes == len(WRITES)
    # far.db lost its only replica and was retired on both copies
    assert primary.list_lfns() == [
        "a.db", "file.000001", "b.db", "file.000002"
    ]
    with pytest.raises(GdmpError, match="unknown catalog write 'info_bulk'"):
        replica.apply("info_bulk", {"lfns": ["a.db"]})


def test_a_replica_answers_a_speculative_probe_for_an_unknown_name():
    grid = DataGrid(SITES, catalog_host="cern")
    enable_catalog_replication(grid, ["caltech"])
    grid.run(until=grid.site("cern").client.catalog.publish(
        "cern", lfn="here.db", **META))
    grid.run()
    probe = grid.site("anl").request_client.call(
        "caltech", "catalog.info_bulk",
        {"lfns": ["ghost.db", "here.db"], "missing_ok": True},
    )
    assert [info.lfn for info in grid.run(until=probe)] == ["here.db"]
    probe = grid.site("anl").request_client.call(
        "caltech", "catalog.info_bulk",
        {"lfns": ["ghost.db"], "missing_ok": True},
    )
    assert grid.run(until=probe) == []


def test_a_proxy_write_invalidates_the_names_the_table_says_it_touched():
    grid = DataGrid(SITES, catalog_host="cern")
    proxy = grid.site("anl").client.catalog
    lfns = grid.run(until=proxy.publish_bulk(
        "anl", [{**META, "lfn": "x.db"}, dict(META)]))
    assert lfns == ["x.db", "file.000001"]
    grid.run(until=proxy.info_bulk(lfns))           # warm both
    assert proxy._cache.keys() == {("info", lfn) for lfn in lfns}
    grid.run(until=proxy.add_replicas(["file.000001"], "caltech"))
    assert proxy._cache.keys() == {("info", "x.db")}
    grid.run(until=proxy.remove_replica("x.db", "anl"))
    assert not proxy._cache
