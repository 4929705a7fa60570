"""Tests for the authenticated RPC layer."""

import pytest

from repro.experiments.scaffold import counter_total
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.failover import failover_walk
from repro.gdmp.request_manager import GdmpError
from repro.security import new_user_credential
from repro.services import CallTimeout, RemoteCallError, ServiceRequest


def test_call_round_trip_pays_wan_latency(grid):
    anl = grid.site("anl")
    start = grid.sim.now
    result = grid.run(until=anl.request_client.call("cern", "get_catalog", {}))
    assert result == {}
    assert grid.sim.now - start >= 0.125  # at least one WAN round trip


def test_unknown_operation_raises_remote_error(grid):
    anl = grid.site("anl")
    with pytest.raises(RemoteCallError, match="unknown operation"):
        grid.run(until=anl.request_client.call("cern", "no_such_op", {}))


def test_unauthorized_caller_rejected(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    handled = []
    cern.request_server.register("probe", handled.append)
    # swap in a credential absent from the gridmap
    anl.request_client.credential = new_user_credential(grid.ca, "/O=Grid/CN=Intruder")
    with pytest.raises(RemoteCallError, match="security"):
        grid.run(until=anl.request_client.call("cern", "probe", {}))
    # refused before dispatch: the handler never ran
    assert not handled
    assert cern.request_server.stats["auth_failures"] == 1


def test_handler_takes_the_bus_request_after_the_security_stage(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    seen = []
    cern.request_server.register("whoami", seen.append)
    grid.run(until=anl.request_client.call("cern", "whoami", {"k": 1}))
    (request,) = seen
    assert isinstance(request, ServiceRequest)
    assert (request.operation, request.payload) == ("whoami", {"k": 1})
    assert request.caller_host == "anl"
    assert request.state["auth"].account == "gdmp-anl"
    assert request.state["auth"].identity == anl.credential.subject


def test_untrusted_ca_rejected(grid):
    from repro.security import CertificateAuthority

    rogue = CertificateAuthority("/O=Rogue/CN=CA")
    anl = grid.site("anl")
    anl.request_client.credential = new_user_credential(rogue, "/O=Rogue/CN=Eve")
    with pytest.raises(RemoteCallError, match="security"):
        grid.run(until=anl.request_client.call("cern", "get_catalog", {}))


def test_handler_gdmp_error_propagates_message(grid):
    cern = grid.site("cern")

    def failing_handler(request):
        raise GdmpError("deliberate failure")
        yield

    cern.request_server.register("explode", failing_handler)
    anl = grid.site("anl")
    with pytest.raises(RemoteCallError, match="deliberate failure") as raised:
        grid.run(until=anl.request_client.call("cern", "explode", {}))
    fault = raised.value
    assert (fault.operation, fault.server) == ("explode", "cern")
    assert fault.remote_message == "deliberate failure"
    assert str(fault) == "explode@cern: deliberate failure"
    assert fault.retryable is False


def test_failover_walk_moves_on_from_a_timeout_and_a_remote_fault(grid3):
    def refuse(request):
        raise GdmpError("not here")

    grid3.site("anl").request_server.register("fetch", refuse)
    grid3.site("caltech").request_server.register("fetch", lambda r: "bytes")
    grid3.msgnet.set_service_down("cern", "gdmp")
    client = grid3.site("anl").request_client
    skipped = []

    def fetch(source):
        outcome = yield from client.invoke(source, "fetch", {}, timeout=2.0)
        return outcome.payload

    def walk():
        return (yield from failover_walk(
            ["cern", "anl", "caltech"],
            fetch,
            on_failover=lambda source, exc: skipped.append(type(exc)),
        ))

    result, source, failed = grid3.run(until=grid3.sim.spawn(walk()))
    assert (result, source, failed) == ("bytes", "caltech", ("cern", "anl"))
    assert skipped == [CallTimeout, RemoteCallError]


def test_duplicate_handler_registration_rejected(grid):
    cern = grid.site("cern")
    with pytest.raises(ValueError):
        cern.request_server.register("get_catalog", lambda request: iter(()))


def test_concurrent_calls_resolve_to_correct_callers(grid):
    anl = grid.site("anl")
    caltech_missing = []

    def driver(sim):
        a = anl.request_client.call("cern", "get_catalog", {})
        b = anl.request_client.call("cern", "subscribe", {"site": "anl"})
        result_b = yield b
        result_a = yield a
        caltech_missing.append((result_a, result_b))

    grid.sim.spawn(driver(grid.sim))
    grid.run()
    result_a, result_b = caltech_missing[0]
    assert result_a == {}
    assert result_b == ["anl"]


def test_building_a_grid_spawns_no_process(born):
    DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    assert [process.name for process in born] == []


def test_a_handler_whose_answer_is_lost_to_a_crash_ends(grid, born):
    anl = grid.site("anl")

    def caller():
        with pytest.raises(CallTimeout):
            yield from anl.request_client.invoke(
                "cern", "catalog.list_lfns", timeout=5.0)

    grid.sim.spawn(caller())
    while not any(process.name == "gdmp-req@cern" for process in born):
        grid.sim.step()
    # the request is delivered; the caller's host goes down before the
    # answer lands
    grid.msgnet.set_host_down("anl")
    grid.run(until=grid.sim.now + 100.0)
    assert grid.msgnet.dropped_messages >= 1
    assert [process.name for process in born if process.is_alive] == []


def test_operation_counter(grid):
    anl = grid.site("anl")
    grid.run(until=anl.request_client.call("cern", "get_catalog", {}))
    assert counter_total(
        grid, "rpc.requests", service="gdmp", operation="get_catalog"
    ) == 1
    assert anl.request_client.stats["calls"] == 1
