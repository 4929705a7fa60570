"""Every GridFTP conversation of the data plane rides the mover's session
table.  A one-file conversation — a chunk upload, a scrub probe, a
repair, an object shipment — dials without asking the server to keep
its data channels, hangs up in place and leaves nothing behind; a
transfer set's table, ``replicate()``'s set of one included, keeps its
sessions and says every goodbye at the set's end."""

from collections import Counter

from repro.chunks import ChunkConfig, ChunkRuntime
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.objectdb import EventStoreBuilder, ObjectTypeSpec
from repro.objectrep import GlobalObjectIndex, ObjectReplicator

SITES = ["cern", "anl", "s1", "s2", "s3"]


def spy_on_dials(grid):
    """``(client site, server host, cache_channels)`` of every dial."""
    dials = []
    for site in grid.sites.values():
        client = site.gridftp_client

        def open_session(host, tcp_buffer=None, streams=1,
                         cache_channels=False, _open=client.open_session,
                         _site=site.name):
            dials.append((_site, host, cache_channels))
            return _open(host, tcp_buffer, streams, cache_channels)

        client.open_session = open_session
    return dials


def channels(grid, since=0):
    return [s.attrs["channels"] for s in list(grid.tracelog)[since:]
            if s.name == "gridftp:transfer"]


def assert_nothing_left(grid, what):
    for site in grid.sites.values():
        assert site.gridftp_server.open_sessions == 0, (what, site.name)
        assert site.gridftp_client._unclosed == {}, (what, site.name)


def test_one_file_conversations_never_cache_and_leave_nothing_behind():
    grid = DataGrid([GdmpConfig(name) for name in SITES],
                    catalog_host="cern", seed=2001)
    runtime = ChunkRuntime(grid, ChunkConfig(
        k=2, m=1, placement_sites=["s1", "s2", "s3"], scrub_sites=["cern"],
        directory_host="cern", poll=2.0,
    ))
    cern, anl = grid.site("cern"), grid.site("anl")
    catalog = EventStoreBuilder(seed=3).build(
        cern.federation, n_events=200,
        types=(ObjectTypeSpec("aod", 10_000.0),), events_per_file=100,
    )
    index = GlobalObjectIndex()
    for name in cern.federation.database_names:
        index.record_file("cern", cern.federation.database(name))
    grid.run(until=cern.client.produce_and_publish("f.db", 2 * MB))
    dials = spy_on_dials(grid)
    mark = len(grid.tracelog)

    grid.run(until=runtime.store("anl").put_object(
        "obj", 6_000_000.0, "key-obj", 2, 1))
    assert_nothing_left(grid, "chunk upload")
    spec = runtime.directory.manifests["obj"].chunks[0]
    holder = next(iter(runtime.directory.locations[spec.chunk_id]))
    grid.site(holder).fs.corrupt(spec.path)
    grid.run(until=runtime.run_scrub_pass(poll=2.0))
    assert grid.metrics.value("chunks.repair", event="chunks_rebuilt") == 1
    assert grid.site(holder).fs.stat(spec.path).crc == spec.crc
    assert_nothing_left(grid, "scrub pass with a repair")
    dialled = len(dials)
    grid.run(until=anl.client.replicate("f.db"))
    assert_nothing_left(grid, "replicate()")
    # replicate() is a transfer set of one: its table asks to cache, and
    # its one file still finds the channels cold
    assert [cache for *_, cache in dials[dialled:]] == [True]
    del dials[dialled:]
    report = grid.run(until=ObjectReplicator(grid, "anl", index)
                      .replicate_objects(
                          [f"{e}/aod" for e in catalog.event_numbers[:20]]))
    assert report.files_created >= 1
    assert_nothing_left(grid, "object shipment")

    assert dials and not any(cache for *_, cache in dials)
    transfers = channels(grid, mark)
    assert transfers and set(transfers) == {"cold"}
    # chunk uploads and probes are not the mover's files
    assert grid.metrics.value("gdmp.mover.sessions_reused", site="anl") == 0
    assert grid.metrics.value("gdmp.mover.sessions_reused", site="cern") == 0

    # a set's table dials asking to cache and hangs up every session
    names = []
    for lfn in ("a.db", "b.db", "c.db"):
        grid.run(until=grid.site("s1").client.produce_and_publish(lfn, MB))
        names.append(lfn)
    grid.run(until=grid.site("s2").client.produce_and_publish("d.db", MB))
    names.append("d.db")
    del dials[:]
    mark = len(grid.tracelog)
    reports = grid.run(until=cern.client.replicate_set(names))
    assert [r.source for r in reports] == ["s1"] * 3 + ["s2"]
    assert sorted(dials) == [("cern", "s1", True), ("cern", "s2", True)]
    requests = Counter(s.name for s in list(grid.tracelog)[mark:]
                       if s.kind == "client")
    assert requests["gridftp:AUTH"] == requests["gridftp:QUIT"] == 2
    assert grid.metrics.value("gdmp.mover.sessions_reused", site="cern") == 2
    assert channels(grid, mark) == ["cold", "warm", "warm", "cold"]
    assert_nothing_left(grid, "replicate_set")
