"""A transfer set is the unit of control-plane work: one GridFTP session,
one staging wave and one release per source, whatever happens to the
files in between — and every pin the set takes goes back exactly once."""

from collections import Counter

import pytest

from repro.faults import FaultCampaign, FaultEvent, FaultInjector
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.request_manager import GdmpError
from repro.netsim.units import GB, KiB, MB
from repro.services import CallTimeout
from repro.services.resilience import ResilienceConfig
from repro.simulation.kernel import Interrupt

SIZE = 1 * MB
TUNING = dict(streams=4, tcp_buffer=256 * KiB)


def make_grid(*sites, **kwargs):
    return DataGrid([GdmpConfig(name) for name in sites], **kwargs)


def publish(grid, site_name, lfns, size=SIZE):
    site = grid.site(site_name)
    for lfn in lfns:
        grid.run(until=site.client.produce_and_publish(lfn, size))
    return list(lfns)


def client_requests(grid, since=0):
    """Names of the bus requests issued since span index ``since``."""
    return [s.name for s in list(grid.tracelog)[since:] if s.kind == "client"]


def transfer_channels(grid, since=0):
    """How each data transfer since span index ``since`` opened its
    channels ("cold" / "warm"), in order."""
    return [s.attrs["channels"] for s in list(grid.tracelog)[since:]
            if s.name == "gridftp:transfer"]


def assert_no_sessions(grid):
    """No control session — so no parked data channel — outlives its set."""
    for site in grid.sites.values():
        assert site.gridftp_server.open_sessions == 0, site.name


def assert_no_pins(grid):
    for site in grid.sites.values():
        for stored in site.fs.listing():
            assert site.pool.pin_count(stored.path) == 0, (
                f"{stored.path} still pinned at {site.name}"
            )


def outcome(grid, dest, reports):
    """What a set leaves behind, without the clocks."""
    site = grid.site(dest)
    lfns = sorted(site.server.held)
    return {
        "reports": [
            (r.lfn, r.source, r.destination, r.size, r.attempts,
             r.crc_retries, r.streams, r.buffer, r.failed_sources,
             r.stored.path, r.stored.crc)
            for r in reports
        ],
        "held": dict(site.server.held),
        "crcs": {lfn: site.fs.stat(site.server.held[lfn]).crc for lfn in lfns},
        "locations": {
            lfn: sorted(
                loc["location"] for loc in grid.catalog_backend.locations(lfn)
            )
            for lfn in lfns
        },
    }


# -- (a) the request budget ----------------------------------------------------

def test_eight_file_set_from_one_source_costs_seventeen_requests():
    grid = make_grid("cern", "anl")
    lfns = publish(grid, "cern", [f"f{i}.db" for i in range(8)])
    mark = len(grid.tracelog)
    reports = grid.run(
        until=grid.site("anl").client.replicate_set(lfns, **TUNING)
    )
    assert [r.lfn for r in reports] == lfns
    assert Counter(client_requests(grid, mark)) == {
        "gdmp:catalog.info_bulk": 1,
        "gdmp:request_stage": 1,
        "gridftp:AUTH": 1, "gridftp:ADAT": 1,
        "gridftp:SBUF": 1, "gridftp:OPTS": 1,
        "gridftp:RETR": 8,
        "gridftp:QUIT": 1,
        "gdmp:release": 1,
        "gdmp:catalog.add_replica_bulk": 1,
    }
    assert grid.metrics.value("gridftp.sessions_opened", host="cern") == 1
    assert grid.metrics.value("gdmp.mover.sessions_reused", site="anl") == 7
    span = grid.tracelog.find("gdmp:replicate-set")
    assert (span.attrs["sessions"], span.attrs["prestaged"],
            span.attrs["restaged"]) == (1, 8, 0)
    # the wave belongs to the set, not to whichever file came first
    wave = grid.tracelog.find("gdmp:request_stage", kind="client")
    assert wave.parent_id == span.span_id
    # the first file opens its data channels, the other seven find them
    # warm; the goodbye closes them
    assert transfer_channels(grid, mark) == ["cold"] + ["warm"] * 7
    assert span.attrs["warm"] == 7
    streams = TUNING["streams"]
    assert grid.metrics.value(
        "gridftp.channels_reused", host="cern") == 7 * streams
    assert grid.metrics.value(
        "gridftp.channels_dropped", host="cern", reason="quit") == streams
    windows = [s.attrs["window"] for s in list(grid.tracelog)[mark:]
               if s.name == "gridftp:transfer"]
    assert windows[0] == streams * 2 * 1460
    assert all(streams * 2 * 1460 < w <= streams * TUNING["tcp_buffer"]
               for w in windows[1:])
    assert_no_pins(grid)
    assert_no_sessions(grid)


def test_single_replicate_keeps_its_eight_requests_in_order():
    """The per-transfer setup cost is Figure 5's measurement: a set of
    one dials, negotiates and moves its file, then says its three
    goodbyes — release, ``QUIT``, registration — at once."""
    grid = make_grid("cern", "anl")
    publish(grid, "cern", ["one.db", "two.db"])
    mark = len(grid.tracelog)
    anl = grid.site("anl").client
    report = grid.run(until=anl.replicate("one.db"))
    assert client_requests(grid, mark) == [
        "gdmp:catalog.info_bulk",
        "gdmp:request_stage",
        "gridftp:AUTH", "gridftp:ADAT", "gridftp:SBUF", "gridftp:OPTS",
        "gridftp:RETR",
        "gdmp:release", "gridftp:QUIT", "gdmp:catalog.add_replica_bulk",
    ]
    # ... to the tick: the goodbyes no longer queue behind each other,
    # and the QUIT is no longer inside the transfer
    assert report.total_duration == 1.9559950400000001
    assert report.transfer_duration == 1.57395056
    # a set's session ends with the set, so the next one, an instant
    # later, pays its slow start again
    again = grid.run(until=anl.replicate("two.db"))
    assert again.transfer_duration == pytest.approx(
        report.transfer_duration, rel=1e-9)
    assert transfer_channels(grid, mark) == ["cold", "cold"]
    assert grid.metrics.value("gridftp.channels_reused", host="cern") == 0
    assert_no_pins(grid)
    assert_no_sessions(grid)


def test_replicate_is_a_transfer_set_of_one():
    """``replicate(lfn)`` pays one of each envelope a set pays per
    source, leaves nothing behind, and reports the whole call."""
    grid = make_grid("cern", "anl")
    publish(grid, "cern", ["one.db"])
    mark = len(grid.tracelog)
    called = grid.sim.now
    report = grid.run(until=grid.site("anl").client.replicate("one.db"))
    returned = grid.sim.now
    assert Counter(client_requests(grid, mark)) == {
        "gdmp:catalog.info_bulk": 1,
        "gdmp:request_stage": 1,
        "gridftp:AUTH": 1, "gridftp:ADAT": 1,
        "gridftp:SBUF": 1, "gridftp:OPTS": 1,
        "gridftp:RETR": 1,
        "gridftp:QUIT": 1,
        "gdmp:release": 1,
        "gdmp:catalog.add_replica_bulk": 1,
    }
    assert grid.leaks() == []
    # locate -> ... -> register: from the call until the set closed,
    # which is when the registration landed
    registration = grid.tracelog.find(
        "gdmp:catalog.add_replica_bulk", kind="client")
    assert report.total_duration == returned - called
    assert registration.end == returned
    span = grid.tracelog.find("gdmp:replicate-set")
    assert span.start == called and span.end == returned
    # the set's member keeps the member's clock: its turn to its bytes
    member = grid.tracelog.find("gdmp:replicate")
    assert member.parent_id == span.span_id
    assert report.total_duration > member.end - member.start
    assert sorted(grid.site("anl").server.held) == ["one.db"]
    assert sorted(loc["location"] for loc in
                  grid.catalog_backend.locations("one.db")) == ["anl", "cern"]


# -- (b) same outcome as file-by-file ------------------------------------------

def _pull_singly(grid, dest, lfns):
    site = grid.site(dest)
    return [grid.run(until=site.client.replicate(lfn)) for lfn in lfns]


def test_set_leaves_what_file_by_file_replication_leaves():
    names = [f"f{i}.db" for i in range(5)]
    by_set, singly = make_grid("cern", "anl"), make_grid("cern", "anl")
    for grid in (by_set, singly):
        publish(grid, "cern", names)
    reports = by_set.run(until=by_set.site("anl").client.replicate_set(names))
    assert outcome(by_set, "anl", reports) == outcome(
        singly, "anl", _pull_singly(singly, "anl", names)
    )
    assert_no_pins(by_set)


def test_set_with_a_held_member_skips_it_and_still_registers_it():
    names = [f"f{i}.db" for i in range(4)]
    by_set, singly = make_grid("cern", "anl"), make_grid("cern", "anl")
    for grid in (by_set, singly):
        publish(grid, "cern", names)
        grid.run(until=grid.site("anl").client.replicate(names[1]))
    mark = len(by_set.tracelog)
    reports = by_set.run(
        until=by_set.site("anl").client.replicate_set(names, skip_held=True)
    )
    assert [r.lfn for r in reports] == [names[0], names[2], names[3]]
    assert Counter(client_requests(by_set, mark))["gridftp:RETR"] == 3
    rest = _pull_singly(singly, "anl", [names[0], names[2], names[3]])
    assert outcome(by_set, "anl", reports) == outcome(singly, "anl", rest)
    # the held member was never pre-staged, so never pinned
    assert_no_pins(by_set)


def test_replicas_before_a_failed_member_are_still_registered():
    grid = make_grid("cern", "anl")
    names = publish(grid, "cern", [f"f{i}.db" for i in range(5)])
    # the third file's bytes vanish at the source after the catalog
    # heard of it: its stage fails, and it has no other replica
    cern = grid.site("cern")
    cern.fs.delete(cern.server.held.pop(names[2]))
    anl = grid.site("anl")
    with pytest.raises(GdmpError, match="replica sources failed"):
        grid.run(until=anl.client.replicate_set(names))
    assert sorted(anl.server.held) == names[:2]
    assert [
        sorted(loc["location"] for loc in grid.catalog_backend.locations(lfn))
        for lfn in names
    ] == [["anl", "cern"]] * 2 + [["cern"]] * 3
    # the two files after it were pre-staged and never fetched
    assert_no_pins(grid)


# -- (c) a daemon restart under an open session ---------------------------------

def test_dropped_session_is_redialled_once_without_failover():
    grid = make_grid("cern", "anl")
    names = publish(grid, "cern", [f"f{i}.db" for i in range(4)])
    anl, cern = grid.site("anl"), grid.site("cern")
    fetch, calls = anl.mover.fetch, []

    def fetch_with_restart(**kwargs):
        calls.append(kwargs["remote_path"])
        if len(calls) == 3:
            cern.gridftp_server.drop_sessions()
        return fetch(**kwargs)

    anl.mover.fetch = fetch_with_restart
    reports = grid.run(until=anl.client.replicate_set(names))
    assert [r.lfn for r in reports] == names
    assert all(r.failed_sources == () and r.attempts == 1 for r in reports)
    assert grid.metrics.value("gdmp.mover.redials", site="anl") == 1
    assert grid.metrics.value("gridftp.sessions_opened", host="cern") == 2
    assert grid.metrics.value("gdmp.mover.failovers", site="anl") == 0
    assert_no_pins(grid)


# -- (d) CRC corruption re-transfers one file, on the same session --------------

def test_corruption_retransfers_only_its_file_on_the_same_session():
    grid = make_grid("cern", "anl")
    names = publish(grid, "cern", [f"f{i}.db" for i in range(4)])
    cern = grid.site("cern")
    cern.gridftp_server.failures.corrupt_next(cern.server.held[names[2]])
    mark = len(grid.tracelog)
    reports = grid.run(until=grid.site("anl").client.replicate_set(names))
    assert [r.crc_retries for r in reports] == [0, 0, 1, 0]
    requests = Counter(client_requests(grid, mark))
    assert requests["gridftp:RETR"] == 5
    assert requests["gridftp:AUTH"] == requests["gridftp:QUIT"] == 1
    # the corrupt copy arrived whole, so its channels were parked: the
    # re-transfer rides them, as does everything after
    assert transfer_channels(grid, mark) == ["cold"] + ["warm"] * 4
    assert grid.tracelog.find("gdmp:replicate-set").attrs["warm"] == 3
    assert_no_pins(grid)
    assert_no_sessions(grid)


# -- (e) a link flap resumes from the marker, on the same session ---------------

def test_link_flap_mid_file_resumes_on_the_same_session():
    grid = make_grid("cern", "anl")
    grid.enable_resilience()
    publish(grid, "cern", ["small.db", "after.db"])
    publish(grid, "cern", ["big.db"], size=60 * MB)
    injector = FaultInjector(grid, FaultCampaign("flap", (
        FaultEvent(grid.sim.now + 12.0, "link_down", "wan-cern-anl"),
        FaultEvent(grid.sim.now + 40.0, "link_up", "wan-cern-anl"),
    )))
    injector.start()
    anl = grid.site("anl")
    mark = len(grid.tracelog)
    small, big, after = grid.run(
        until=anl.client.replicate_set(["small.db", "big.db", "after.db"])
    )
    assert small.attempts == 1 and big.attempts >= 2
    assert big.stored.size == 60 * MB and big.failed_sources == ()
    assert grid.metrics.value("gdmp.mover.restarts", site="anl") >= 1
    requests = Counter(client_requests(grid, mark))
    assert requests["gridftp:AUTH"] == 1 and requests["gridftp:REST"] >= 1
    # the cut took the data channels with it: the file that was riding
    # them warm reconnects cold at its restart marker, and what that
    # reconnect learns is there again for the file after
    channels = transfer_channels(grid, mark)
    assert channels[:2] == ["cold", "warm"] and channels[-1] == "warm"
    assert set(channels[2:-1]) == {"cold"}
    assert grid.metrics.value(
        "gridftp.channels_dropped", host="cern", reason="abort"
    ) == anl.config.parallel_streams
    assert_no_pins(grid)
    assert_no_sessions(grid)


# -- (f) two sets on one client --------------------------------------------------

def test_overlapping_sets_hang_up_only_their_own_sessions():
    """The orphan-plus-re-run case: a set whose claimant crashed keeps
    running beside the set that re-claimed its work."""
    grid = make_grid("cern", "anl")
    first = publish(grid, "cern", [f"a{i}.db" for i in range(3)])
    second = publish(grid, "cern", [f"b{i}.db" for i in range(6)])
    anl = grid.site("anl")
    mark = len(grid.tracelog)
    sets = [anl.client.replicate_set(first), anl.client.replicate_set(second)]
    done = grid.run(until=grid.sim.all_of(sets))
    assert [[r.lfn for r in reports] for reports in done] == [first, second]
    requests = Counter(client_requests(grid, mark))
    # the short set's goodbye did not cut the long one off
    assert requests["gridftp:AUTH"] == requests["gridftp:QUIT"] == 2
    assert requests["gridftp:RETR"] == 9
    assert grid.metrics.value("gdmp.mover.redials", site="anl") == 0
    # nor did either ride the other's data channels: to the same peer,
    # at the same time, each set's first file still opened cold
    spans = grid.tracelog.spans(name="gdmp:replicate-set")[-2:]
    assert [span.attrs["warm"] for span in spans] == [2, 5]
    assert Counter(transfer_channels(grid, mark)) == {"cold": 2, "warm": 7}
    assert_no_pins(grid)
    assert_no_sessions(grid)


# -- (g) pins on the remaining exits ---------------------------------------------

def _arm_permanent_failure(grid, site, path):
    failures = grid.site(site).gridftp_server.failures

    def rearm(sim):
        while True:
            failures.abort_after_bytes(path, 0.1 * MB)
            yield sim.timeout(0.5)

    grid.sim.spawn(rearm(grid.sim))


def test_failover_inside_a_set_returns_every_pin():
    grid = make_grid("cern", "anl", "caltech")
    names = publish(grid, "cern", [f"f{i}.db" for i in range(3)])
    grid.run(until=grid.site("anl").client.replicate_set(names))
    _arm_permanent_failure(grid, "cern", f"/storage/{names[1]}")
    caltech = grid.site("caltech")
    reports = grid.run(
        until=caltech.client.replicate_set(names, prefer_site="cern")
    )
    assert [r.source for r in reports] == ["cern", "anl", "cern"]
    assert reports[1].failed_sources == ("cern",)
    span = grid.tracelog.spans(name="gdmp:replicate-set")[-1]
    # the failed-over file staged singly at anl; its cern pin went unused
    assert (span.attrs["sessions"], span.attrs["prestaged"],
            span.attrs["restaged"]) == (2, 3, 1)
    assert_no_pins(grid)


def test_prestage_the_source_cannot_satisfy_is_asked_again_at_the_turn():
    grid = make_grid("cern", "anl")
    names = publish(grid, "cern", ["f0.db", "f1.db"])
    cern = grid.site("cern")
    # the source forgets f1 for the length of the wave only
    path = cern.server.held.pop(names[1])
    anl = grid.site("anl")
    fetch = anl.mover.fetch

    def fetch_after_recall(**kwargs):
        cern.server.record_held(names[1], path)
        return fetch(**kwargs)

    anl.mover.fetch = fetch_after_recall
    reports = grid.run(until=anl.client.replicate_set(names))
    assert [r.lfn for r in reports] == names
    span = grid.tracelog.find("gdmp:replicate-set")
    assert (span.attrs["prestaged"], span.attrs["restaged"]) == (1, 1)
    assert_no_pins(grid)


@pytest.mark.parametrize("at", [0.3, 1.0], ids=["dialling", "moving"])
def test_interrupted_set_lets_its_file_land_then_cleans_up(at):
    grid = make_grid("cern", "anl")
    names = publish(grid, "cern", [f"f{i}.db" for i in range(4)], 20 * MB)
    anl, cern = grid.site("anl"), grid.site("cern")
    pulling = anl.client.replicate_set(names)
    pinned_while_moving = []

    def crash(sim):
        yield sim.timeout(at)
        pulling.interrupt("operator")
        yield sim.timeout(2.0)  # the first file is still on the wire
        pinned_while_moving.append(cern.pool.pin_count(f"/storage/{names[0]}"))

    grid.sim.spawn(crash(grid.sim))
    with pytest.raises(Interrupt):
        grid.run(until=pulling)
    # the file in flight kept its pin and its session until it landed;
    # nothing after it was started
    assert pinned_while_moving == [1]
    assert sorted(anl.server.held) == names[:1]
    grid.run()
    assert cern.gridftp_server.drop_sessions() == 0  # all hung up
    assert_no_pins(grid)
    assert not grid.tracelog.open_spans()


def test_release_of_an_unpinned_file_changes_nothing():
    grid = make_grid("cern", "anl")
    publish(grid, "cern", ["f.db"])
    anl, cern = grid.site("anl"), grid.site("cern")
    path = cern.server.held["f.db"]
    cern.pool.pin(path)  # somebody else's transfer
    staged = grid.run(until=grid.sim.spawn(anl.client._stage_call(
        "cern", "request_stage", ["f.db", "ghost.db"]
    )))
    assert staged["f.db"]["path"] == path and "error" in staged["ghost.db"]
    assert cern.pool.pin_count(path) == 2
    release = lambda: grid.run(until=grid.sim.spawn(  # noqa: E731
        anl.client._stage_call("cern", "release", ["f.db", "ghost.db"])
    ))
    assert release() == {"f.db": True, "ghost.db": False}
    cern.pool.unpin(path)
    assert release() == {"f.db": False, "ghost.db": False}
    assert cern.pool.pin_count(path) == 0


def test_any_failure_of_one_stage_leg_is_that_files_answer():
    grid = make_grid("cern", "anl")
    publish(grid, "cern", ["good.db", "bad.db"])
    anl, cern = grid.site("anl"), grid.site("cern")
    ensure = cern.storage.ensure_on_disk

    def ensure_or_break(path, pin=True):
        if "bad" not in path:
            return (yield from ensure(path, pin=pin))
        yield grid.sim.timeout(0.01)  # while the handler waits on good.db
        raise KeyError(path)

    cern.storage.ensure_on_disk = ensure_or_break
    staged = grid.run(until=grid.sim.spawn(anl.client._stage_call(
        "cern", "request_stage", ["good.db", "bad.db"]
    )))
    assert "path" in staged["good.db"] and "error" in staged["bad.db"]
    grid.run(until=grid.sim.spawn(
        anl.client._stage_call("cern", "release", ["good.db"])
    ))
    assert_no_pins(grid)


# -- (h) tape mounts overlap each other and the transfers -----------------------

def _cold_grid(count):
    """cern holds ``count`` 5 MB files on tape only (2 drives, 45 s
    mounts); anl wants them."""
    grid = DataGrid([
        GdmpConfig("cern", has_mss=True, disk_capacity=10 * GB),
        GdmpConfig("anl"),
    ])
    names = publish(grid, "cern", [f"cold{i}.db" for i in range(count)],
                    5 * MB)
    cern = grid.site("cern")
    for lfn in names:
        path = cern.server.held[lfn]
        grid.run(until=cern.storage.archive(path))
        cern.fs.delete(path)
    return grid, names


def test_staging_wave_overlaps_tape_mounts():
    grid, names = _cold_grid(4)
    started = grid.sim.now
    reports = grid.run(until=grid.site("anl").client.replicate_set(names))
    makespan = grid.sim.now - started
    assert grid.site("cern").mss.stats["staged_files"] == 4

    serial, names = _cold_grid(4)
    started = serial.sim.now
    _pull_singly(serial, "anl", names)
    serial_sum = serial.sim.now - started

    # four mounts on two drives take two rounds, not four
    assert makespan < serial_sum - 2 * 45.0
    # a file's clock starts at its turn, not at the wave: the first file
    # of each round waits for the tape — the second round less than a
    # mount, as it was mounting while the first round's files moved —
    # and its drive-mate is on disk by its turn
    waits = [r.stage_wait for r in reports]
    assert waits[0] > 45.0 and 30.0 < waits[2] < 45.0
    assert waits[1] < 1.0 and waits[3] < 1.0
    assert all(r.total_duration < 10.0 for r in reports[1::2])
    # the wave does not wait for tape, so it pinned nothing: every file
    # asked again at its turn
    span = grid.tracelog.find("gdmp:replicate-set")
    assert (span.attrs["prestaged"], span.attrs["restaged"]) == (0, 4)
    assert_no_pins(grid)


def test_deep_tape_queue_neither_times_the_wave_out_nor_leaks_a_pin():
    """Eight cold files on two drives are 180 s of mounts, beyond the
    120 s a request may take; the wave must not be a request that
    waits for them all."""
    grid, names = _cold_grid(8)
    grid.enable_resilience(ResilienceConfig(rpc_timeout=120.0))
    anl, cern = grid.site("anl"), grid.site("cern")
    mark = len(grid.tracelog)
    reports = grid.run(until=anl.client.replicate_set(names))
    assert [r.lfn for r in reports] == names
    assert all(r.failed_sources == () for r in reports)
    wave = [s for s in list(grid.tracelog)[mark:]
            if s.kind == "client" and s.name == "gdmp:request_stage"][0]
    assert wave.status == "ok" and wave.duration < 1.0
    assert anl.client.rpc.stats["call_timeouts"] == 0
    # staged once each: the turn-time request joined the wave's staging
    assert cern.mss.stats["staged_files"] == 8
    assert_no_pins(grid)


def test_wave_whose_reply_is_lost_still_hands_its_pins_back():
    grid = make_grid("cern", "anl")
    names = publish(grid, "cern", [f"f{i}.db" for i in range(3)])
    grid.enable_resilience(ResilienceConfig(rpc_timeout=5.0))
    anl, cern = grid.site("anl"), grid.site("cern")
    stage = anl.client._stage_call

    def stage_with_lost_wave_reply(source, operation, lfns, ahead=False):
        answers = yield from stage(source, operation, lfns, ahead)
        if ahead:
            # the source pins, its every answer is lost on the way back
            raise CallTimeout(operation, source, 5.0)
        return answers

    anl.client._stage_call = stage_with_lost_wave_reply
    reports = grid.run(until=anl.client.replicate_set(names))
    assert [r.lfn for r in reports] == names
    span = grid.tracelog.find("gdmp:replicate-set")
    assert (span.attrs["prestaged"], span.attrs["restaged"]) == (0, 3)
    assert_no_pins(grid)


# -- (i) a session the client walked away from unheard ---------------------------

def test_login_whose_answer_was_lost_is_hung_up_at_the_next_dial():
    from tests.services.test_replay import lose_first_reply

    grid = make_grid("cern", "anl")
    grid.enable_resilience(ResilienceConfig(rpc_timeout=5.0))
    names = publish(grid, "cern", ["f0.db", "f1.db"])
    anl, ftpd = grid.site("anl"), grid.site("cern").gridftp_server
    lost = lose_first_reply(ftpd.bus, "ADAT")
    with pytest.raises(GdmpError, match="replica sources failed"):
        grid.run(until=anl.client.replicate_set(names))
    # the daemon logged the set in; the set never heard and gave up
    assert len(lost) == 1 and ftpd.open_sessions == 1
    mark = len(grid.tracelog)
    reports = grid.run(until=anl.client.replicate_set(names))
    assert [r.lfn for r in reports] == names
    # the goodbye it owed went out before the new dial's AUTH
    assert [n for n in client_requests(grid, mark) if n.startswith("gridftp:")][
        :2] == ["gridftp:QUIT", "gridftp:AUTH"]
    assert_no_sessions(grid)
    assert_no_pins(grid)


# -- (j) a release the source did not hear ---------------------------------------

def test_release_the_source_did_not_hear_is_sent_again_once_it_can():
    grid = make_grid("cern", "anl")
    publish(grid, "cern", ["f.db"])
    anl, cern = grid.site("anl"), grid.site("cern")
    path = cern.server.held["f.db"]
    grid.run(until=grid.sim.spawn(
        anl.client._stage_call("cern", "request_stage", ["f.db"])
    ))
    # the release is refused before it leaves anl, and nothing else
    # will ever go to cern
    anl.request_client.fail_fast_when_down = True
    grid.msgnet.set_host_down("cern")
    grid.run(until=grid.sim.spawn(anl.client._release("cern", ["f.db"])))
    assert anl.client.stats["release_failures"] == 1
    assert cern.pool.pin_count(path) == 1
    grid.run(until=grid.sim.timeout(12.0))  # the first resend: still down
    assert cern.pool.pin_count(path) == 1
    grid.msgnet.set_host_down("cern", False)
    grid.run()
    assert grid.leaks() == [] and anl.client._unreleased == {}
