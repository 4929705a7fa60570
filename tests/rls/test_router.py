"""Two-tier routing behaviour: verify-on-use, fallbacks, caching."""

import pytest

from repro.catalog.gdmp_catalog import LogicalFileInfo
from repro.gdmp import DataGrid, GdmpConfig
from repro.rls import RlsConfig
from repro.rls.digest import DigestConfig, DigestSource
from repro.services import RemoteCallError

from .conftest import FAST_DIGESTS, converge, publish


def proxy_of(grid, site):
    return grid.site(site).client.catalog


def test_pre_digest_lookup_falls_back_to_broadcast(rls_grid):
    """Before any digest reaches the index, a cross-site lookup still
    answers — the empty candidate set widens to a full broadcast."""
    grid = rls_grid
    publish(grid, "anl", "fresh.dat")
    reader = proxy_of(grid, "cern")
    info = grid.run(until=reader.info("fresh.dat"))
    assert {loc["location"] for loc in info.locations} == {"anl"}
    assert reader.stats["fallback_broadcasts"] >= 1
    assert reader.stats["rli_lookups"] >= 1  # index answered, just empty


def test_converged_lookup_routes_through_index(rls_grid):
    grid = rls_grid
    publish(grid, "anl", "routed.dat")
    converge(grid)
    assert grid.rls.index.candidate_sites("routed.dat") == ["anl"]
    reader = proxy_of(grid, "caltech")
    broadcasts_before = reader.stats["fallback_broadcasts"]
    info = grid.run(until=reader.info("routed.dat"))
    assert {loc["location"] for loc in info.locations} == {"anl"}
    assert reader.stats["fallback_broadcasts"] == broadcasts_before
    # probes: own site (miss) + the one candidate
    assert reader.stats["verify_misses"] >= 1


def test_false_positive_candidate_is_verified_not_trusted(rls_grid):
    """A crafted digest makes the index claim anl holds a ghost file;
    the router must verify at the LRC and answer 'not found' — stale
    or false-positive index state costs probes, never phantoms."""
    grid = rls_grid
    ghost = "ghost.dat"
    source = DigestSource(
        "anl", lambda: [ghost], DigestConfig(period=5.0)
    )
    payload = source.next_digest()
    payload["generation"] = grid.rls.index.states["anl"].generation + 1
    assert grid.rls.index.apply(payload, now=grid.sim.now)
    assert "anl" in grid.rls.index.candidate_sites(ghost)

    reader = proxy_of(grid, "cern")
    with pytest.raises(RemoteCallError):
        grid.run(until=reader.info(ghost))
    assert reader.stats["verify_misses"] >= 1
    assert not grid.rls.backends["anl"].lfn_exists(ghost)


def test_stale_index_racing_concurrent_delete(rls_grid):
    """The last replica is removed after the index learned of it; a
    lookup in the staleness window verify-misses and answers not-found."""
    grid = rls_grid
    publish(grid, "anl", "doomed.dat")
    converge(grid)
    owner = proxy_of(grid, "anl")
    grid.run(until=owner.remove_replica("doomed.dat", "anl"))
    # the index has not yet seen the removal delta
    assert grid.rls.index.candidate_sites("doomed.dat") == ["anl"]
    assert grid.rls.holders("doomed.dat") == []

    reader = proxy_of(grid, "cern")
    misses_before = reader.stats["verify_misses"]
    with pytest.raises(RemoteCallError):
        grid.run(until=reader.info("doomed.dat"))
    assert reader.stats["verify_misses"] > misses_before
    # the removal digest eventually retires the stale entry
    grid.run(until=grid.sim.timeout(FAST_DIGESTS.period * 5))
    assert grid.rls.index.candidate_sites("doomed.dat") == []


def test_negative_cache_and_invalidation_on_publish(rls_grid):
    """Repeat misses are served from the negative cache; publishing the
    LFN later invalidates it so the new file is immediately visible."""
    grid = rls_grid
    reader = proxy_of(grid, "cern")
    for _ in range(3):
        with pytest.raises(RemoteCallError):
            grid.run(until=reader.info("later.dat"))
    assert reader.stats["negative_hits"] >= 2

    # cern itself publishes: its proxy's publish path invalidates the
    # negative entry on completion
    publish(grid, "cern", "later.dat")
    info = grid.run(until=reader.info("later.dat"))
    assert {loc["location"] for loc in info.locations} == {"cern"}


def test_an_absence_answers_later_locations_reads_without_envelopes(rls_grid):
    """A name no LRC holds costs one two-tier resolve; the absence it
    caches answers the later ``locations`` reads with ``[]`` and an
    ``info`` with the error, none of them on the wire.  Before the
    absence answered ``locations`` too, three reads cost 4, 8 and 12
    envelopes."""
    grid = rls_grid
    reader = proxy_of(grid, "cern")
    envelopes = []
    for _ in range(3):
        assert grid.run(until=reader.locations("ghost.dat")) == []
        envelopes.append(reader.stats["envelopes"])
    assert envelopes == [4, 4, 4]
    assert reader.stats["negative_hits"] == 2
    with pytest.raises(RemoteCallError):
        grid.run(until=reader.info("ghost.dat"))
    assert reader.stats["envelopes"] == 4
    assert reader.stats["negative_hits"] == 3

    # an absence an ``info`` read found answers ``locations`` the same way
    with pytest.raises(RemoteCallError):
        grid.run(until=reader.info("other.dat"))
    assert grid.run(until=reader.locations("other.dat")) == []
    assert reader.stats["envelopes"] == 8
    assert reader.stats["negative_hits"] == 4

    # a write of the name drops the absence under both kinds
    publish(grid, "cern", "ghost.dat")
    assert [loc["location"] for loc in grid.run(
        until=reader.locations("ghost.dat"))] == ["cern"]


def test_dead_lrc_degrades_to_remaining_sites(rls_grid):
    """With one site's host down, lookups for files elsewhere still
    answer; the dead shard costs a counted failure, not an error."""
    grid = rls_grid
    publish(grid, "anl", "survivor.dat")
    publish(grid, "caltech", "survivor-2.dat")
    converge(grid)
    grid.msgnet.set_host_down("caltech", True)

    reader = proxy_of(grid, "anl")
    info = grid.run(until=reader.info("survivor.dat"))
    assert {loc["location"] for loc in info.locations} == {"anl"}

    # a file only the dead site holds is (correctly) unanswerable
    failures_before = reader.stats["lrc_failures"]
    with pytest.raises(RemoteCallError):
        grid.run(until=reader.info("survivor-2.dat"))
    assert reader.stats["lrc_failures"] > failures_before

    grid.msgnet.set_host_down("caltech", False)
    reader.invalidate("survivor-2.dat")
    info = grid.run(until=reader.info("survivor-2.dat"))
    assert {loc["location"] for loc in info.locations} == {"caltech"}


def test_explicit_publish_rejects_grid_wide_duplicate(rls_grid):
    grid = rls_grid
    publish(grid, "anl", "unique.dat")
    converge(grid)
    with pytest.raises(RemoteCallError):
        publish(grid, "cern", "unique.dat")


def test_replication_adopts_metadata_at_destination(rls_grid):
    """add_replicas at a site that never saw the file adopts it into the
    local LRC, metadata included, and the next digest advertises it."""
    grid = rls_grid
    publish(grid, "anl", "spread.dat", size=123_456, crc=99)
    converge(grid)
    dest = proxy_of(grid, "cern")
    grid.run(until=dest.add_replicas(["spread.dat"], "cern"))
    assert dest.stats["adoptions"] == 1
    backend = grid.rls.backends["cern"]
    assert backend.lfn_exists("spread.dat")
    assert backend.info("spread.dat").crc == 99
    assert sorted(grid.rls.holders("spread.dat")) == ["anl", "cern"]
    grid.run(until=grid.sim.timeout(FAST_DIGESTS.period * 5))
    assert grid.rls.index.candidate_sites("spread.dat") == ["cern", "anl"]


# -- scatter-gather waves -----------------------------------------------------

WAVE_SITES = ["cern", "anl", "caltech", "fnal"]
MESH_SITES = [f"s{i}" for i in range(8)]


def sharded_grid(sites):
    return DataGrid(
        [GdmpConfig(name) for name in sites],
        catalog_host=sites[0],
        seed=2001,
        rls=RlsConfig(digest=FAST_DIGESTS, lookup_timeout=10.0),
    )


def blackhole_lrc(grid, site, down=True):
    """The site's LRC swallows ``catalog.*`` requests: callers time out."""
    grid.msgnet.set_service_down(site, "gdmp", down, prefix="catalog.")


def bus_requests(grid):
    """Requests the service bus has carried (``rpc.requests``, all labels)."""
    return sum(child.value for child in grid.metrics.children("rpc.requests"))


def explicit_files(*lfns):
    """``publish_bulk`` items with user-chosen names."""
    return [
        {"lfn": lfn, "size": 1.0, "modified": 0.0, "crc": 1, "attributes": {}}
        for lfn in lfns
    ]


def loc(site, lfn):
    return {
        "location": site,
        "hostname": site,
        "url": f"gsiftp://{site}/storage/{lfn}",
    }


def test_wave_answers_equal_the_serial_router():
    """The merged answers of every routed read — pinned to what the
    serial per-site loops returned for this grid: one file on three
    live sites and a crashed one, one bloom false positive, one file
    only the crashed LRC knows."""
    grid = sharded_grid(WAVE_SITES)
    for site, lfn, run in (
        ("anl", "shared.dat", 1),
        ("anl", "anl-only.dat", 1),
        ("fnal", "fnal-only.dat", 2),
        ("caltech", "lost.dat", 1),
    ):
        proxy = proxy_of(grid, site)
        grid.run(until=proxy.publish(site, 1000.0, 0.0, 7, lfn=lfn, run=run))
    converge(grid)
    for dest in ("fnal", "caltech", "cern"):
        grid.run(until=proxy_of(grid, dest).add_replicas(["shared.dat"], dest))
    grid.run(until=grid.sim.timeout(FAST_DIGESTS.period * 5))
    grid.rls.stop()
    # false positive: the index believes cern also holds anl-only.dat
    ghost = DigestSource(
        "cern", lambda: ["shared.dat", "anl-only.dat"], FAST_DIGESTS
    )
    payload = ghost.next_digest()
    payload["generation"] = grid.rls.index.states["cern"].generation + 1
    assert grid.rls.index.apply(payload, now=grid.sim.now)
    assert grid.rls.index.candidate_sites("anl-only.dat") == ["cern", "anl"]
    grid.msgnet.set_host_down("caltech", True)

    def record(lfn, run, *sites):
        return LogicalFileInfo(
            lfn=lfn, size=1000.0, modified=0.0, crc=7,
            attributes={"run": str(run)},
            locations=tuple(loc(site, lfn) for site in sites),
        )

    reader = proxy_of(grid, "fnal")
    # one LFN is a batch of one: locations in site order, as below
    assert grid.run(until=reader.info("shared.dat")) == record(
        "shared.dat", 1, "cern", "anl", "fnal"
    )
    assert grid.run(until=reader.info("anl-only.dat")) == record(
        "anl-only.dat", 1, "anl"
    )
    reader.invalidate()
    # bulk and search: answers in request order
    assert grid.run(
        until=reader.info_bulk(["anl-only.dat", "shared.dat", "fnal-only.dat"])
    ) == [
        record("anl-only.dat", 1, "anl"),
        record("shared.dat", 1, "cern", "anl", "fnal"),
        record("fnal-only.dat", 2, "fnal"),
    ]
    assert grid.run(until=reader.search("(run=1)")) == [
        record("anl-only.dat", 1, "anl"),
        record("shared.dat", 1, "cern", "anl", "fnal"),
    ]
    assert reader.stats["lrc_failures"] >= 3  # caltech, once per wave


def test_dead_legs_share_one_timeout():
    """Two black-holed LRCs time out while the gatherer is still parked
    on an earlier, live leg's successor: no leg crashes the simulation,
    and the lookup costs one ``lookup_timeout``, not one per dead site."""
    grid = sharded_grid(WAVE_SITES)
    publish(grid, "fnal", "far.dat")
    blackhole_lrc(grid, "anl")
    blackhole_lrc(grid, "caltech")
    reader = proxy_of(grid, "cern")
    began = grid.sim.now
    # the index is empty: one broadcast wave, legs cern, anl, caltech, fnal
    info = grid.run(until=reader.info("far.dat"))
    assert [entry["location"] for entry in info.locations] == ["fnal"]
    assert reader.stats["lrc_failures"] == 2
    assert 10.0 <= grid.sim.now - began < 11.0

    began = grid.sim.now
    found = grid.run(until=reader.search("(lfn=*)"))
    assert [entry.lfn for entry in found] == ["far.dat"]
    assert 10.0 <= grid.sim.now - began < 11.0


def test_publish_set_envelope_budget():
    """Ten explicit LFNs on an 8-site mesh: one index question, one
    probe envelope per site, one local write — not one probe per name
    per site."""
    grid = sharded_grid(MESH_SITES)
    client = grid.site("s3").client
    specs = []
    for i in range(10):
        path = f"/storage/set-{i}.dat"
        grid.site("s3").fs.create(path, 1000.0)
        specs.append({"path": path, "lfn": f"set-{i}.dat"})
    requests_before = bus_requests(grid)
    lfns = grid.run(until=client.publish_set(specs))
    assert lfns == [spec["lfn"] for spec in specs]
    assert bus_requests(grid) - requests_before <= len(MESH_SITES) + 3
    assert client.catalog.stats["uniqueness_probes"] == 1
    assert client.catalog.stats["fallback_broadcasts"] == 0


@pytest.mark.parametrize("bulk", [False, True])
def test_duplicate_inside_the_digest_period_is_refused(bulk):
    """The other site's registration has not been digested — the index
    returns no candidate — yet the broadcast wave still finds it."""
    grid = sharded_grid(WAVE_SITES)
    grid.rls.start()
    grid.run(until=grid.sim.timeout(FAST_DIGESTS.period * 2))
    publish(grid, "fnal", "taken.dat")
    assert grid.rls.index.candidate_sites("taken.dat") == []
    writer = proxy_of(grid, "anl")
    files = explicit_files("free.dat", "taken.dat")
    with pytest.raises(RemoteCallError, match="'taken.dat' already in use"):
        if bulk:
            grid.run(until=writer.publish_bulk("anl", files))
        else:
            grid.run(until=writer.publish("anl", 1.0, 0.0, 1, lfn="taken.dat"))
    assert grid.rls.holders("taken.dat") == ["fnal"]
    assert grid.rls.holders("free.dat") == []  # the refused set wrote nothing


def test_name_probed_free_is_found_once_published_elsewhere():
    """A uniqueness probe that found a name free leaves no negative
    entry behind: when another site publishes the name and its digest
    lands, this site's next ``info`` sees it."""
    grid = sharded_grid(WAVE_SITES)
    publish(grid, "fnal", "taken.dat")
    prober = proxy_of(grid, "anl")
    with pytest.raises(RemoteCallError):  # later.dat is probed and found free
        grid.run(until=prober.publish_bulk(
            "anl", explicit_files("later.dat", "taken.dat")
        ))
    publish(grid, "cern", "later.dat")
    converge(grid)
    info = grid.run(until=prober.info("later.dat"))
    assert [entry["location"] for entry in info.locations] == ["cern"]
