"""End-to-end GridFTP tests over the simulated grid."""

import pytest

from repro.experiments.scaffold import counter_total
from repro.gridftp import RangeSet, TransferError
from repro.netsim.units import KiB, MB, to_mbps
from repro.security import new_user_credential


def drive(grid, call):
    """Run one client call — a generator — in a process of its own."""
    return grid.sim.run(until=grid.sim.spawn(call))


def connect(grid, server="cern"):
    return drive(grid, grid.client.connect(server))


# ------------------------------------------------------------ session -----
def test_connect_authenticates_and_maps_account(grid):
    session = connect(grid)
    assert session.account == "alice"
    assert session.server_subject.startswith("/O=Grid/OU=cern")
    assert grid.metrics.value("gridftp.sessions_opened", host="cern") == 1


def test_connect_rejects_unmapped_user(grid):
    stranger = new_user_credential(grid.ca, "/O=Grid/CN=Stranger")
    grid.client.credential = stranger
    with pytest.raises(TransferError, match="authentication failed"):
        connect(grid)
    assert grid.servers["cern"].stats["auth_failures"] == 1


def test_feat_lists_extensions(grid):
    session = connect(grid)
    features = drive(grid, grid.client.features(session))
    assert "SBUF" in features and "PARALLEL" in features


def test_size_mdtm_cksm(grid):
    session = connect(grid)
    assert drive(grid, grid.client.size(session, "/store/data.db")) == 10 * MB
    mtime = drive(
        grid, grid.client.modification_time(session, "/store/data.db")
    )
    assert mtime == 0.0
    crc = drive(grid, grid.client.checksum(session, "/store/data.db"))
    assert crc == grid.fs["cern"].stat("/store/data.db").crc


def test_size_of_missing_file_fails(grid):
    session = connect(grid)
    with pytest.raises(TransferError, match="SIZE"):
        drive(grid, grid.client.size(session, "/store/ghost"))


def test_negotiation_validation(grid):
    session = connect(grid)
    with pytest.raises(TransferError):
        drive(grid, grid.client.set_buffer(session, 100))
    with pytest.raises(TransferError):
        drive(grid, grid.client.set_parallelism(session, 0))


# ------------------------------------------------------------ transfers ---
def test_get_delivers_file_with_matching_crc(grid):
    session = connect(grid)
    result = drive(
        grid, grid.client.get(session, "/store/data.db", "/pool/data.db")
    )
    assert result.size == 10 * MB
    received = grid.fs["anl"].stat("/pool/data.db")
    original = grid.fs["cern"].stat("/store/data.db")
    assert received.crc == original.crc
    assert result.throughput > 0


def test_get_missing_file_raises(grid):
    session = connect(grid)
    with pytest.raises(TransferError, match="failed"):
        drive(grid, grid.client.get(session, "/store/ghost", "/pool/x"))


def test_parallel_tuned_get_is_faster(grid):
    grid.fs["cern"].create("/store/big.db", 50 * MB)
    session = connect(grid)
    slow = drive(
        grid, grid.client.get(session, "/store/big.db", "/pool/slow.db")
    )
    yield_buffer = drive(grid, grid.client.set_buffer(session, 1024 * KiB))
    drive(grid, grid.client.set_parallelism(session, 3))
    fast = drive(
        grid, grid.client.get(session, "/store/big.db", "/pool/fast.db")
    )
    assert fast.duration < slow.duration / 3
    assert to_mbps(fast.throughput) > 15


def test_get_emits_perf_and_restart_markers(grid):
    grid.fs["cern"].create("/store/big.db", 40 * MB)
    session = connect(grid)
    result = drive(
        grid, grid.client.get(session, "/store/big.db", "/pool/big.db")
    )
    # 40MB at ~4 Mbps untuned takes ~80s -> several 5s marker intervals
    assert len(result.perf_markers) > 3
    assert len(result.restart_markers) > 3
    marks = result.perf_markers
    assert all(
        b.bytes_transferred >= a.bytes_transferred for a, b in zip(marks, marks[1:])
    )
    assert result.restart_markers[-1].bytes_on_disk <= 40 * MB


def test_partial_get(grid):
    session = connect(grid)
    result = drive(
        grid,
        grid.client.get(
            session, "/store/data.db", "/pool/part.db", offset=1 * MB,
            length=2 * MB,
        ),
    )
    assert result.size == 2 * MB
    stored = grid.fs["anl"].stat("/pool/part.db")
    assert "#1000000+2000000" in stored.content_id


def test_injected_abort_reports_restart_marker(grid):
    grid.fs["cern"].create("/store/flaky.db", 20 * MB)
    grid.servers["cern"].failures.abort_after_bytes("/store/flaky.db", 5 * MB)
    session = connect(grid)
    with pytest.raises(TransferError) as exc_info:
        drive(
            grid, grid.client.get(session, "/store/flaky.db", "/pool/flaky.db")
        )
    marker = exc_info.value.restart_marker
    assert marker is not None
    assert marker.bytes_on_disk >= 5 * MB
    assert not grid.fs["anl"].exists("/pool/flaky.db")


def test_restarted_get_moves_only_remaining_bytes(grid):
    grid.fs["cern"].create("/store/flaky.db", 20 * MB)
    grid.servers["cern"].failures.abort_after_bytes("/store/flaky.db", 8 * MB)
    session = connect(grid)
    with pytest.raises(TransferError) as exc_info:
        drive(
            grid, grid.client.get(session, "/store/flaky.db", "/pool/flaky.db")
        )
    marker = exc_info.value.restart_marker
    result = drive(
        grid,
        grid.client.get(
            session, "/store/flaky.db", "/pool/flaky.db", restart=marker.ranges
        ),
    )
    # file complete and faithful
    received = grid.fs["anl"].stat("/pool/flaky.db")
    assert received.size == 20 * MB
    assert received.crc == grid.fs["cern"].stat("/store/flaky.db").crc
    # the retry moved only the missing bytes (plus nothing else)
    sent = grid.metrics.value("gridftp.bytes_sent", host="cern")
    assert sent == pytest.approx(20 * MB - marker.bytes_on_disk)


def test_corruption_injection_changes_crc(grid):
    grid.servers["cern"].failures.corrupt_next("/store/data.db")
    session = connect(grid)
    drive(grid, grid.client.get(session, "/store/data.db", "/pool/bad.db"))
    received = grid.fs["anl"].stat("/pool/bad.db")
    assert received.crc != grid.fs["cern"].stat("/store/data.db").crc
    # next transfer is clean again (one-shot injection)
    drive(grid, grid.client.get(session, "/store/data.db", "/pool/good.db"))
    assert (
        grid.fs["anl"].stat("/pool/good.db").crc
        == grid.fs["cern"].stat("/store/data.db").crc
    )


def test_put_uploads_file(grid):
    grid.fs["anl"].create("/local/results.db", 3 * MB)
    session = connect(grid)
    result = drive(
        grid, grid.client.put(session, "/local/results.db", "/store/results.db")
    )
    assert result.size == 3 * MB
    assert (
        grid.fs["cern"].stat("/store/results.db").crc
        == grid.fs["anl"].stat("/local/results.db").crc
    )


def test_put_existing_path_rejected(grid):
    grid.fs["anl"].create("/local/x", 1 * MB)
    session = connect(grid)
    with pytest.raises(TransferError, match="STOR"):
        drive(grid, grid.client.put(session, "/local/x", "/store/data.db"))


def test_third_party_transfer(grid):
    src = connect(grid, "cern")
    dst = connect(grid, "anl")
    result = drive(
        grid,
        grid.client.third_party_transfer(
            src, dst, "/store/data.db", "/mirror/data.db"
        ),
    )
    assert result.size == 10 * MB
    assert (
        grid.fs["anl"].stat("/mirror/data.db").crc
        == grid.fs["cern"].stat("/store/data.db").crc
    )


def test_unauthenticated_command_rejected(grid):
    from repro.gridftp.client import ClientSession

    fake = ClientSession(
        server_host="cern", session_id="bogus", account="", server_subject=""
    )
    with pytest.raises(TransferError):
        drive(grid, grid.client.size(fake, "/store/data.db"))


def test_eret_bad_offset_rejected(grid):
    session = connect(grid)
    with pytest.raises(TransferError):
        drive(
            grid,
            grid.client.get(session, "/store/data.db", "/pool/x",
                            offset=100 * MB),
        )


def test_eret_length_clamped_to_file(grid):
    session = connect(grid)
    result = drive(
        grid,
        grid.client.get(session, "/store/data.db", "/pool/clamped",
                        offset=9 * MB, length=5 * MB),
    )
    assert result.size == 1 * MB  # only 1 MB remains past the offset


def test_rest_applies_to_one_transfer_only(grid):
    """A REST marker must not leak into the next RETR of the session."""
    from repro.gridftp import RangeSet

    grid.fs["cern"].create("/store/two.db", 4 * MB)
    session = connect(grid)
    drive(
        grid,
        grid.client.get(session, "/store/two.db", "/pool/two-a",
                        restart=RangeSet([(0, 2 * MB)])),
    )
    sent_first = grid.metrics.value("gridftp.bytes_sent", host="cern")
    assert sent_first == pytest.approx(2 * MB)
    drive(grid, grid.client.get(session, "/store/two.db", "/pool/two-b"))
    sent_total = grid.metrics.value("gridftp.bytes_sent", host="cern")
    assert sent_total == pytest.approx(2 * MB + 4 * MB)


def test_stor_without_space_rejected(grid):
    from repro.storage import FileSystem

    grid.fs["anl"].create("/local/huge", 9 * MB)
    # shrink the server's free space by filling it
    free = grid.fs["cern"].free
    grid.fs["cern"].create("/filler", free - 1 * MB)
    session = connect(grid)
    with pytest.raises(TransferError, match="STOR"):
        drive(grid, grid.client.put(session, "/local/huge", "/store/huge"))


def test_quit_invalidates_session(grid):
    session = connect(grid)
    drive(grid, grid.client.quit(session))
    assert session.closed
    with pytest.raises(TransferError):
        drive(grid, grid.client.size(session, "/store/data.db"))


def test_a_handler_whose_150_is_lost_to_a_crash_ends(grid, monkeypatch):
    """The client crashes the instant the server sends its 150: the
    handler resumes when the reply would have landed, the engine refuses
    the data flow toward the down host, and the handler answers 426."""
    send = grid.msgnet.send
    handler, codes = [], []

    def crash_on_150(src, dst, service, payload, **kwargs):
        reply = getattr(payload, "payload", None)
        if getattr(src, "name", src) == "cern" and hasattr(reply, "code"):
            codes.append(reply.code)
            if reply.code == 150:
                handler.append(grid.sim.active_process)
                grid.msgnet.set_host_down("anl")
        return send(src, dst, service, payload, **kwargs)

    session = connect(grid)
    monkeypatch.setattr(grid.msgnet, "send", crash_on_150)
    grid.sim.spawn(grid.client.get(session, "/store/data.db", "/pool/x"))
    grid.sim.run(until=grid.sim.now + 200.0)
    [process] = handler
    assert process.name == "gridftp-req@cern" and not process.is_alive
    assert codes == [150, 426]
    assert grid.metrics.value("gridftp.transfers_aborted", host="cern") == 1
    assert grid.engine.stats["bytes_delivered_aborted"] == 0
    assert not grid.fs["anl"].exists("/pool/x")


def test_put_and_get_throughput_are_similar(grid):
    """§6: "we have seen similar behaviour for the GridFTP put and get
    functions" — the transport is direction-symmetric."""
    grid.fs["cern"].create("/store/sym.db", 25 * MB)
    grid.fs["anl"].create("/local/sym.db", 25 * MB)
    session = connect(grid)
    drive(grid, grid.client.set_buffer(session, 1024 * KiB))
    drive(grid, grid.client.set_parallelism(session, 3))
    got = drive(
        grid, grid.client.get(session, "/store/sym.db", "/pool/sym.db")
    )
    put = drive(
        grid, grid.client.put(session, "/local/sym.db", "/store/sym-up.db")
    )
    assert got.throughput == pytest.approx(put.throughput, rel=0.25)


# ------------------------------------------------- cached data channels ---
STREAMS = 4


@pytest.fixture
def quiet_grid():
    """The two sites plus a third, on clean idle links: a transfer's
    duration is a function of its opening windows and nothing else."""
    from repro.netsim import TestbedParams
    from tests.gridftp.conftest import TwoSiteGrid

    g = TwoSiteGrid(TestbedParams(
        loss_rate=0.0, cross_traffic_mbps=0.0, extra_sites=("fnal",)
    ))
    for name in "abcd":
        g.fs["cern"].create(f"/store/{name}", 2 * MB, now=0.0)
    return g


def channels(grid, event):
    """Data channels the cern daemon has seen ``event`` happen to (for
    ``dropped``, whatever the reason)."""
    return counter_total(grid, f"gridftp.channels_{event}", host="cern")


def open_session(grid, cache_channels, server="cern"):
    return drive(grid, grid.client.open_session(
        server, 64 * KiB, STREAMS, cache_channels=cache_channels
    ))


def get(grid, session, name, **kwargs):
    grid.gets = getattr(grid, "gets", 0) + 1
    return drive(grid, grid.client.get(
        session, f"/store/{name}", f"/pool/{name}-{grid.gets}", **kwargs
    ))


def test_second_retr_is_warm_on_a_caching_session(quiet_grid):
    grid = quiet_grid
    session = open_session(grid, cache_channels=True)
    first = get(grid, session, "a")
    second = get(grid, session, "b")
    assert (first.channels, second.channels) == ("cold", "warm")
    assert second.duration < 0.8 * first.duration
    server = grid.servers["cern"]
    assert channels(grid, "reused") == STREAMS
    # a goodbye leaves nothing behind
    drive(grid, grid.client.quit(session))
    assert server.open_sessions == 0
    assert channels(grid, "dropped") == STREAMS


def test_plain_session_never_caches(quiet_grid):
    grid = quiet_grid
    session = open_session(grid, cache_channels=False)
    first = get(grid, session, "a")
    second = get(grid, session, "b")
    assert (first.channels, second.channels) == ("cold", "cold")
    assert second.duration == pytest.approx(first.duration, rel=1e-9)
    server = grid.servers["cern"]
    assert not server._sessions[session.session_id].parked
    assert channels(grid, "reused") == 0


def test_same_sbuf_and_opts_keep_the_channels(quiet_grid):
    grid = quiet_grid
    session = open_session(grid, cache_channels=True)
    get(grid, session, "a")
    drive(grid, grid.client.set_buffer(session, 64 * KiB))
    drive(grid, grid.client.set_parallelism(session, STREAMS, True))
    assert get(grid, session, "b").channels == "warm"


@pytest.mark.parametrize("change", ["sbuf", "opts", "opts-cache-off"])
def test_renegotiation_makes_the_next_retr_cold(quiet_grid, change):
    grid = quiet_grid
    session = open_session(grid, cache_channels=True)
    get(grid, session, "a")
    if change == "sbuf":
        drive(grid, grid.client.set_buffer(session, 128 * KiB))
    elif change == "opts":
        drive(grid, grid.client.set_parallelism(session, 2, True))
    else:
        drive(grid, grid.client.set_parallelism(session, STREAMS))
    assert get(grid, session, "b").channels == "cold"
    server = grid.servers["cern"]
    assert channels(grid, "dropped") == STREAMS
    assert channels(grid, "reused") == 0


def test_abort_drops_the_channels_and_the_restart_is_cold(quiet_grid):
    grid = quiet_grid
    server = grid.servers["cern"]
    session = open_session(grid, cache_channels=True)
    get(grid, session, "a")
    server.failures.abort_after_bytes("/store/b", 1 * MB)
    with pytest.raises(TransferError) as exc_info:
        get(grid, session, "b")
    assert channels(grid, "reused") == STREAMS  # opened warm
    assert not server._sessions[session.session_id].parked
    resumed = get(grid, session, "b",
                  restart=exc_info.value.restart_marker.ranges)
    assert resumed.channels == "cold"
    # the reconnect's windows are good again for the next file
    assert get(grid, session, "c").channels == "warm"


def test_drop_sessions_forgets_the_channels(quiet_grid):
    grid = quiet_grid
    server = grid.servers["cern"]
    session = open_session(grid, cache_channels=True)
    get(grid, session, "a")
    assert server.drop_sessions() == 1
    assert channels(grid, "dropped") == STREAMS
    with pytest.raises(TransferError) as exc_info:
        get(grid, session, "b")
    assert exc_info.value.session_lost
    redialled = open_session(grid, cache_channels=True)
    assert get(grid, redialled, "b").channels == "cold"


def test_idle_channels_expire(quiet_grid):
    grid = quiet_grid
    session = open_session(grid, cache_channels=True)
    first = get(grid, session, "a")
    grid.sim.run(until=grid.sim.now + 1.5)
    second = get(grid, session, "b")
    assert second.channels == "cold"
    assert second.duration == pytest.approx(first.duration, rel=1e-9)
    server = grid.servers["cern"]
    assert channels(grid, "expired") == STREAMS
    assert channels(grid, "reused") == 0


def test_channels_belong_to_one_peer(quiet_grid):
    """Parked channels are keyed by their endpoints: a transfer to
    another host — whole or partial — opens its own, cold."""
    grid = quiet_grid
    server = grid.servers["cern"]
    session = open_session(grid, cache_channels=True)
    get(grid, session, "a")                     # parks cern -> anl

    def third_party(verb, **extras):
        reply, _ = yield from grid.client._command(
            session, verb, "/store/b", dest_host="fnal", **extras
        )
        return reply.payload["channels"]

    parked = server._sessions[session.session_id].parked
    assert drive(grid, third_party("RETR")) == "cold"
    assert channels(grid, "reused") == 0
    assert {key[:2] for key in parked} == {("cern", "anl"), ("cern", "fnal")}
    # a partial transfer to the same peer rides that peer's channels ...
    assert drive(
        grid, third_party("ERET", offset=0.0, length=1.0 * MB)
    ) == "warm"
    assert channels(grid, "reused") == STREAMS
    # ... and one to the first peer that one's, never the other's
    assert len(parked) == 2 * STREAMS
    part = get(grid, session, "c", offset=1.0 * MB, length=0.5 * MB)
    assert part.channels == "cold"      # cern -> anl idled too long
    assert channels(grid, "expired") == STREAMS
    assert channels(grid, "reused") == STREAMS


def test_stor_opens_cold_and_conserves_bytes(quiet_grid):
    """An upload opens the same way a download does: one helper."""
    grid = quiet_grid
    grid.fs["anl"].create("/local/up", 3 * MB)
    session = open_session(grid, cache_channels=False)
    drive(grid, grid.client.put(session, "/local/up", "/store/up"))
    assert grid.fs["cern"].stat("/store/up").size == 3 * MB
    assert grid.metrics.value("gridftp.bytes_received", host="cern") == 3 * MB


def test_quit_hangs_up_a_session_that_never_logged_in(grid):
    """The goodbye a client owes after its ADAT went unanswered must
    work whether or not the ADAT ever arrived."""
    from repro.gridftp.protocol import Command

    def half_open():
        reply, _ = yield from grid.client._rpc("cern", Command("AUTH", "GSSAPI"))
        denied, _ = yield from grid.client._rpc(
            "cern", Command("SIZE", "/store/data.db", session=reply.payload)
        )
        goodbye, _ = yield from grid.client._rpc(
            "cern", Command("QUIT", session=reply.payload)
        )
        return denied.code, goodbye.code

    assert drive(grid, half_open()) == (530, 221)
    assert grid.servers["cern"].open_sessions == 0
