"""Observability of the two-tier RLS: registry snapshot + health report."""

from .conftest import converge, publish


def _lookup(grid, reader_site, lfn):
    proxy = grid.site(reader_site).client.catalog
    return grid.run(until=proxy.info(lfn))


def test_snapshot_carries_ldap_and_rli_stats(rls_grid):
    grid = rls_grid
    publish(grid, "anl", "watched.dat")
    converge(grid)
    _lookup(grid, "cern", "watched.dat")

    metrics = grid.metrics.snapshot()

    # per-site LRC search machinery (LDAP index/filter-cache counters)
    ldap = metrics["catalog.ldap.index_searches"]
    assert {c["labels"].get("site") for c in ldap["children"]} >= {
        "cern", "anl", "caltech"
    }
    assert "catalog.ldap.filter_cache_hits" in metrics
    assert "catalog.ldap.filter_cache_misses" in metrics

    # index-side digest accounting
    assert metrics["rls.rli.digests_full"]["children"][0]["value"] > 0
    assert "rls.rli.digest_bytes" in metrics
    assert "rls.rli.staleness_seconds" in metrics
    generations = metrics["rls.rli.generation"]
    assert all(c["value"] > 0 for c in generations["children"])

    # site-side pusher accounting
    pushes = metrics["rls.pusher.pushes"]
    assert {c["labels"]["site"] for c in pushes["children"]} == {
        "cern", "anl", "caltech"
    }

    # router verify-on-use counters ride in the proxy stats
    assert "catalog.proxy.rli_lookups" in metrics
    assert "catalog.proxy.verify_misses" in metrics


def test_health_report_renders_rls_subsystem(rls_grid):
    grid = rls_grid
    publish(grid, "anl", "reported.dat")
    converge(grid)
    _lookup(grid, "cern", "reported.dat")

    report = grid.health_report()
    assert "-- rls --" in report
    assert "rls.rli.digests_full" in report
    assert "rls.pusher.pushes" in report
    assert "catalog.ldap.index_searches" in report
    assert "rls.lookup.hops" in report
