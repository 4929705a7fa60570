"""What each request server answers to, by name and by host role.

One grid with every plane on (sharded RLS, weather, the workload queue,
the chunk directory) registers its operations on the sites' existing
request servers.  The sets below are the whole wire vocabulary of the
control plane: a plane that registers an operation nobody asked for —
or drops one a caller still issues — fails here by that name.
"""

from repro.chunks import ChunkConfig, ChunkRuntime
from repro.gdmp import DataGrid, GdmpConfig
from repro.observatory.station import WeatherConfig
from repro.rls import RlsConfig
from repro.simulation.randomness import RandomStreams
from repro.workload import ArrivalProfile, WorkloadEngine

#: every site: the GDMP daemon, its LRC (sharded mode gives each site
#: the six ``catalog.*`` operations) and the forecast subscriber
PLAIN_SITE = {
    "subscribe", "unsubscribe", "notify", "get_catalog",
    "request_stage", "release",
    "catalog.publish_bulk", "catalog.add_replica_bulk", "catalog.adopt_bulk",
    "catalog.remove_replica", "catalog.info_bulk", "catalog.search",
    "weather.push_digest",
}
TASK_QUEUE = {
    "task.submit", "task.submit_bulk", "task.claim", "task.renew",
    "task.complete", "task.complete_bulk", "task.fail", "task.wait",
}
#: the catalog host also carries the index and the pipeline's queue
INDEX_HOST = PLAIN_SITE | TASK_QUEUE | {
    "rli.push_digest", "rli.lookup_bulk",
}
#: the directory host carries the manifests and the scrub fleet's queue
DIRECTORY_HOST = PLAIN_SITE | TASK_QUEUE | {
    "chunk.init", "chunk.commit", "chunk.manifest", "chunk.list",
    "chunk.repair_done",
}


def test_registered_operations_per_host_role():
    grid = DataGrid(
        [GdmpConfig(name) for name in ("cern", "fnal", "anl")],
        catalog_host="cern", rls=RlsConfig(), weather=WeatherConfig(),
    )
    ChunkRuntime(grid, ChunkConfig(k=1, m=1, directory_host="fnal"))
    WorkloadEngine(
        grid, ArrivalProfile(rate=1.0, tick=1.0), lfns=["a.db"], total=1,
        rng=RandomStreams(1)["workload.arrivals"],
    )
    registered = {
        name: set(site.request_server._handlers)
        for name, site in grid.sites.items()
    }
    assert registered == {
        "cern": INDEX_HOST, "fnal": DIRECTORY_HOST, "anl": PLAIN_SITE,
    }
