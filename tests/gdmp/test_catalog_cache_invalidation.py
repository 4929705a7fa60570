"""The catalog proxy's read cache must not survive a failed catalog RPC:
a failure means the catalog host (or the path to it) is suspect, and a
cached answer could outlive a divergence the caller never observed."""

import pytest

from repro.experiments.scaffold import counter_total
from repro.netsim.units import MB
from repro.services import CallTimeout, RemoteCallError
from repro.simulation import Process


def _prime(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("f.db", MB))
    proxy = anl.client.catalog
    grid.run(until=proxy.info("f.db"))
    assert proxy._cache, "read should have warmed the cache"
    return anl, proxy


def test_cache_cleared_when_catalog_rpc_times_out(grid):
    anl, proxy = _prime(grid)
    # black-hole catalog operations at the catalog host; the next
    # uncached read is dropped on the wire and times out
    grid.msgnet.set_service_down("cern", "gdmp", prefix="catalog.")
    anl.request_client.default_timeout = 5.0
    with pytest.raises(CallTimeout):
        grid.run(until=proxy.locations("f.db"))
    assert not proxy._cache
    assert proxy.stats["failure_invalidations"] == 1


def test_cache_survives_successful_calls(grid):
    anl, proxy = _prime(grid)
    grid.run(until=proxy.locations("f.db"))
    assert proxy._cache
    assert proxy.stats["failure_invalidations"] == 0


def test_cache_rewarms_after_recovery(grid):
    anl, proxy = _prime(grid)
    grid.msgnet.set_service_down("cern", "gdmp", prefix="catalog.")
    anl.request_client.default_timeout = 5.0
    with pytest.raises(CallTimeout):
        grid.run(until=proxy.locations("f.db"))
    assert not proxy._cache
    grid.msgnet.set_service_down("cern", "gdmp", down=False,
                                 prefix="catalog.")
    info = grid.run(until=proxy.info("f.db"))
    assert info.lfn == "f.db"
    assert proxy._cache  # re-warmed from the recovered catalog


def test_a_cached_answer_is_an_event_not_a_process(grid):
    """A hit costs no request, no process and no simulated time — and an
    absence is a cached answer too: the stored fault, raised again."""
    anl, proxy = _prime(grid)
    grid.run(until=proxy.locations("f.db"))
    with pytest.raises(RemoteCallError) as missed:
        grid.run(until=proxy.info("nope.db"))
    requests = counter_total(grid, "rpc.requests")
    hits = proxy.stats["cache_hits"]
    now = grid.sim.now

    for read in (proxy.info, proxy.locations):
        queued = len(grid.sim._queue)
        answer = read("f.db")
        assert not isinstance(answer, Process) and answer.triggered
        # one event scheduled, the answer itself: no `_Initialize`
        assert len(grid.sim._queue) == queued + 1
        assert grid.run(until=answer) == grid.run(until=read("f.db"))
    with pytest.raises(RemoteCallError) as again:
        grid.run(until=proxy.info("nope.db"))
    assert again.value is missed.value

    assert grid.sim.now == now
    assert counter_total(grid, "rpc.requests") == requests
    assert proxy.stats["cache_hits"] == hits + 5
    assert proxy.stats["negative_hits"] == 1
