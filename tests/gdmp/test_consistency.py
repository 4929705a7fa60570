"""Tests for §2.2 consistency policies: associated files travel together."""

import pytest

from repro.gdmp import (
    AssociatedFilesPolicy,
    FileAssociationGraph,
    IndependentFilesPolicy,
)
from repro.objectdb import Federation, NavigationError


# ----------------------------------------------------------- the graph ----
def test_closure_dependencies_first():
    graph = FileAssociationGraph()
    graph.add_association("aod.db", "esd.db")
    graph.add_association("esd.db", "raw.db")
    closure = graph.closure("aod.db")
    assert closure == ["raw.db", "esd.db", "aod.db"]


def test_closure_of_independent_file_is_itself():
    graph = FileAssociationGraph()
    assert graph.closure("solo.db") == ["solo.db"]


def test_closure_handles_cycles():
    graph = FileAssociationGraph()
    graph.add_association("a.db", "b.db")
    graph.add_association("b.db", "a.db")
    closure = graph.closure("a.db")
    assert sorted(closure) == ["a.db", "b.db"]


def test_self_association_ignored():
    graph = FileAssociationGraph()
    graph.add_association("a.db", "a.db")
    assert graph.requires("a.db") == set()


def test_graph_from_federation():
    fed = Federation("cms", site="cern")
    fed.declare_type("aod")
    fed.declare_type("raw")
    db_a = fed.create_database("aod.db")
    db_b = fed.create_database("raw.db")
    ca, cb = db_a.create_container(), db_b.create_container()
    raw = db_b.new_object(cb, "raw", 100, "0/raw")
    aod = db_a.new_object(ca, "aod", 10, "0/aod")
    aod.associate("upstream", raw.oid)
    # intra-file association must NOT create an edge
    aod2 = db_a.new_object(ca, "aod", 10, "1/aod")
    aod2.associate("sibling", aod.oid)

    graph = FileAssociationGraph.from_federation(fed)
    assert graph.requires("aod.db") == {"raw.db"}
    assert graph.requires("raw.db") == set()


def test_policies():
    graph = FileAssociationGraph()
    graph.add_association("a.db", "b.db")
    assert IndependentFilesPolicy().replication_set("a.db") == ["a.db"]
    assert AssociatedFilesPolicy(graph).replication_set("a.db") == [
        "b.db",
        "a.db",
    ]


# ----------------------------------------------------- end-to-end GDMP ----
def make_coupled_store(grid):
    """Two published Objectivity files at CERN with a cross-file
    association aod.db -> raw.db."""
    from repro.objectdb import DatabaseFile

    cern = grid.site("cern")
    cern.federation.declare_type("aod")
    cern.federation.declare_type("raw")
    raw_db = DatabaseFile(301, "raw.db")
    raw_container = raw_db.create_container()
    raw = raw_db.new_object(raw_container, "raw", 100_000, "0/raw")
    aod_db = DatabaseFile(302, "aod.db")
    aod_container = aod_db.create_container()
    aod = aod_db.new_object(aod_container, "aod", 10_000, "0/aod")
    aod.associate("upstream", raw.oid)
    for db in (raw_db, aod_db):
        grid.run(
            until=cern.client.produce_and_publish(
                db.name, db.size, payload=db,
                filetype="objectivity", schema="aod;raw",
            )
        )
        cern.federation.attach(db)
    return aod_db, raw_db


def test_plain_replication_breaks_navigation(grid):
    aod_db, _raw_db = make_coupled_store(grid)
    anl = grid.site("anl")
    grid.run(until=anl.client.replicate("aod.db"))
    aod = anl.federation.find_by_key("0/aod")
    with pytest.raises(NavigationError):
        anl.federation.navigate(aod, "upstream")


def test_consistent_replication_preserves_navigation(grid):
    aod_db, raw_db = make_coupled_store(grid)
    cern, anl = grid.site("cern"), grid.site("anl")
    graph = FileAssociationGraph.from_federation(cern.federation)
    policy = AssociatedFilesPolicy(graph)
    reports = grid.run(
        until=anl.client.replicate_set(
            policy.replication_set("aod.db"), skip_held=True
        )
    )
    assert [r.lfn for r in reports] == ["raw.db", "aod.db"]
    aod = anl.federation.find_by_key("0/aod")
    raw = anl.federation.navigate(aod, "upstream")[0]
    assert raw.logical_key == "0/raw"


def test_consistent_replication_skips_already_held(grid):
    make_coupled_store(grid)
    cern, anl = grid.site("cern"), grid.site("anl")
    graph = FileAssociationGraph.from_federation(cern.federation)
    policy = AssociatedFilesPolicy(graph)
    grid.run(until=anl.client.replicate("raw.db"))
    reports = grid.run(
        until=anl.client.replicate_set(
            policy.replication_set("aod.db"), skip_held=True
        )
    )
    assert [r.lfn for r in reports] == ["aod.db"]
