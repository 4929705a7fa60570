"""Tests for the structured trace log."""

import gc
import hashlib
import json

import pytest

from repro.services import RequestContext, TraceLog
from repro.simulation.kernel import Simulator
from repro.telemetry import (
    MetricsRegistry,
    render_health_report,
    to_chrome_trace_json,
)
from repro.telemetry.report import open_work


@pytest.fixture
def sim():
    return Simulator()


def test_root_span_starts_fresh_trace(sim):
    log = TraceLog(sim)
    span = log.begin("gdmp:replicate", kind="local", host="anl")
    assert span.trace_id == "t000001"
    assert span.parent_id is None
    assert span.status == "in_progress"
    log.finish(span)
    assert span.status == "ok" and span.end == sim.now


def test_child_spans_join_parent_trace(sim):
    log = TraceLog(sim)
    root = log.begin("root")
    child = log.begin("child", parent=root.context)
    grandchild = log.begin("grandchild", parent=child.context)
    assert child.trace_id == root.trace_id == grandchild.trace_id
    assert child.parent_id == root.span_id
    assert log.children(root) == [child]
    assert log.children(child) == [grandchild]
    assert len({span.trace_id for span in log.spans()}) == 1


def test_span_timing_uses_sim_clock(sim):
    log = TraceLog(sim)
    span = log.begin("work")

    def run():
        yield sim.timeout(2.5)
        log.finish(span)

    sim.spawn(run())
    sim.run()
    assert span.start == 0.0 and span.end == 2.5 and span.duration == 2.5


def test_find_is_strict(sim):
    log = TraceLog(sim)
    log.begin("a")
    log.begin("b")
    log.begin("b")
    assert log.find("a").name == "a"
    with pytest.raises(LookupError):
        log.find("b")  # two matches
    with pytest.raises(LookupError):
        log.find("missing")


def test_query_filters(sim):
    log = TraceLog(sim)
    root = log.begin("op", kind="client")
    log.begin("op", kind="server", parent=root.context)
    other = log.begin("other")
    assert [s.kind for s in log.spans(name="op")] == ["client", "server"]
    assert log.spans(trace_id=other.trace_id) == [other]
    assert len(log) == 3


def _filter_log(sim):
    log = TraceLog(sim)
    anl = log.begin("gdmp:replicate", kind="local", host="anl",
                    service="gdmp")
    cern = log.begin("gdmp:replicate", kind="local", host="cern",
                     service="gdmp")
    call = log.begin("gdmp:catalog.info", parent=anl.context,
                     kind="client", host="anl", service="gdmp")
    served = log.begin("gdmp:catalog.info", parent=call.context,
                       kind="server", host="cern", service="gdmp")
    retr = log.begin("gridftp:RETR", parent=anl.context, kind="client",
                     host="anl", service="gridftp")
    return log, (anl, cern, call, served, retr)


def test_spans_filter_by_name(sim):
    log, (anl, cern, call, served, retr) = _filter_log(sim)
    assert log.spans(name="gdmp:replicate") == [anl, cern]
    assert log.spans(name="missing") == []


def test_spans_filter_by_kind(sim):
    log, (anl, cern, call, served, retr) = _filter_log(sim)
    assert log.spans(kind="client") == [call, retr]
    assert log.spans(kind="server") == [served]


def test_spans_filter_by_host(sim):
    log, (anl, cern, call, served, retr) = _filter_log(sim)
    assert log.spans(host="cern") == [cern, served]
    assert log.spans(host="anl", kind="client") == [call, retr]


def test_spans_filter_by_service(sim):
    log, (anl, cern, call, served, retr) = _filter_log(sim)
    assert log.spans(service="gridftp") == [retr]
    assert log.spans(service="gdmp", name="gdmp:catalog.info") == [
        call, served
    ]


def test_spans_filter_by_trace_id(sim):
    log, (anl, cern, call, served, retr) = _filter_log(sim)
    assert log.spans(trace_id=anl.trace_id) == [anl, call, served, retr]
    assert log.spans(trace_id=cern.trace_id, host="cern") == [cern]
    assert log.spans(trace_id="t999999") == []
    assert log.spans(trace_id="nonsense") == []


def test_find_takes_every_filter(sim):
    log, (anl, cern, call, served, retr) = _filter_log(sim)
    assert log.find("gdmp:replicate", host="anl") == anl
    assert log.find("gdmp:catalog.info", kind="server") == served
    assert log.find("gdmp:replicate", trace_id=cern.trace_id) == cern
    with pytest.raises(LookupError):
        log.find("gdmp:replicate", service="gdmp")  # two matches


def test_foreign_parents_keep_their_ids(sim):
    log = TraceLog(sim)
    own = log.begin("own")
    hand_built = log.begin("a", parent=RequestContext("t9", "s1"))
    nested = log.begin("b", parent=hand_built.context)
    assert (hand_built.trace_id, hand_built.parent_id) == ("t9", "s1")
    assert (nested.trace_id, nested.parent_id) == ("t9", hand_built.span_id)
    assert log.trace("t9") == [hand_built, nested]
    # another log's context names ids in this log's format: they join
    # what they name here, as the equal strings always did
    other = TraceLog(Simulator()).begin("elsewhere")
    borrowed = log.begin("c", parent=other.context)
    assert (borrowed.trace_id, borrowed.parent_id) == ("t000001", "s000001")
    assert log.children(own) == [borrowed]
    assert log.trace("t000001") == [own, borrowed]


def test_a_context_is_the_same_value_with_or_without_its_view(sim):
    log = TraceLog(sim)
    span = log.begin("op")
    child = log.begin("child", parent=span.context_until(5.0))
    plain = RequestContext(child.trace_id, child.span_id, child.parent_id)
    assert child.context == plain and hash(child.context) == hash(plain)
    assert child.context.span is child
    assert child.context.with_deadline(3.0).span is child
    assert child.context.child("s000009").span is None
    # a hand-built copy of a context parents exactly as the original does
    grandchild = log.begin("grandchild", parent=plain)
    assert log.children(child) == [grandchild]
    assert grandchild.trace_id == span.trace_id


def test_attrs_written_after_begin_are_kept(sim):
    log = TraceLog(sim)
    bare = log.begin("bare")
    tagged = log.begin("tagged", lfn="f.db")
    assert bare.attrs == {} and log.spans()[0].attrs == {}
    bare.attrs["window"] = 4
    log.spans()[0].attrs.update(streams=2)
    tagged.attrs["window"] = 8
    assert log.find("bare").attrs == {"window": 4, "streams": 2}
    assert log.find("tagged").to_record()["attrs"] == {
        "lfn": "f.db", "window": 8
    }


def test_json_export_round_trips(sim):
    log = TraceLog(sim)
    root = log.begin("op", kind="client", host="anl", service="svc", lfn="f.db")
    log.finish(root, "error", detail="boom")
    doc = json.loads(log.to_json())
    (record,) = doc["spans"]
    assert record["name"] == "op"
    assert record["status"] == "error"
    assert record["detail"] == "boom"
    assert record["attrs"] == {"lfn": "f.db"}


def test_to_record_keeps_duration_and_native_attrs(sim):
    log = TraceLog(sim)
    span = log.begin("op", streams=3, ratio=0.5, resumed=False,
                     note=None, payload=object())

    def run():
        yield sim.timeout(1.5)
        log.finish(span)

    sim.spawn(run())
    sim.run()
    record = span.to_record()
    assert record["duration"] == 1.5
    # JSON-native attr values pass through unchanged, not stringified
    assert record["attrs"]["streams"] == 3
    assert record["attrs"]["ratio"] == 0.5
    assert record["attrs"]["resumed"] is False
    assert record["attrs"]["note"] is None
    assert isinstance(record["attrs"]["payload"], str)


def test_unfinished_record_has_null_end_and_duration(sim):
    log = TraceLog(sim)
    record = log.begin("hung").to_record()
    assert record["end"] is None and record["duration"] is None
    assert record["status"] == "in_progress"


def test_open_spans_tracks_unfinished_work(sim):
    log = TraceLog(sim)
    done = log.begin("done")
    hung = log.begin("hung")
    assert log.open_spans() == [done, hung]
    log.finish(done)
    assert log.open_spans() == [hung]
    log.finish(hung, "error")
    assert log.open_spans() == []


def test_dump_json_writes_file(sim, tmp_path):
    log = TraceLog(sim)
    log.finish(log.begin("op"))
    path = tmp_path / "trace.json"
    log.dump_json(str(path))
    doc = json.loads(path.read_text())
    assert len(doc["spans"]) == 1


def test_ids_are_deterministic_across_instances():
    def build():
        sim = Simulator()
        log = TraceLog(sim)
        a = log.begin("a")
        b = log.begin("b", parent=a.context)
        c = log.begin("c")
        return [(s.trace_id, s.span_id, s.parent_id) for s in (a, b, c)]

    assert build() == build()


def test_deadline_tightens_not_loosens():
    ctx = RequestContext("t1", "s1", deadline=10.0)
    assert ctx.with_deadline(5.0).deadline == 5.0
    assert ctx.with_deadline(20.0).deadline == 10.0
    assert ctx.with_deadline(None).deadline == 10.0  # None never loosens
    assert ctx.child("s2").deadline == 10.0


class _Shape:
    """An attr value JSON cannot hold: exported through ``str()``."""

    def __str__(self) -> str:
        return "shape(2x3)"


def _export_scenario():
    """Every kind of span the exporters render, in one log: each status,
    details, attrs written at and after ``begin`` (on spans with and
    without attrs), non-JSON attr values, a hand-built foreign parent and
    another log's context (whose ids collide with this log's), spans on
    three hosts and on none, and spans left open — two ends of a worker
    parked at its queue and one hung call."""
    sim = Simulator()
    log = TraceLog(sim)
    begun = []

    def begin(name, **kwargs):
        begun.append(log.begin(name, **kwargs))
        return begun[-1]

    def advance(dt):
        sim.run(until=sim.now + dt)

    root = begin("gdmp:replicate", host="anl", service="gdmp", lfn="f.db")
    client = begin("gdmp:catalog.info", parent=root.context, kind="client",
                   host="anl", service="gdmp")
    advance(0.25)
    server = begin("gdmp:catalog.info", parent=client.context_until(9.0),
                   kind="server", host="cern", service="gdmp")
    advance(0.5)
    log.finish(server, "error", detail="no such lfn")
    log.finish(client, "error", detail="remote: no such lfn")
    transfer = begin("gridftp:transfer", parent=root.context,
                     kind="transfer", host="cern", service="gridftp",
                     path="/data/f.db", dest="anl", channels="cold")
    transfer.attrs["window"] = 65536
    advance(1.5)
    log.finish(transfer)
    root.attrs.update(files=1, ratio=0.5, resumed=False, note=None,
                      shape=_Shape(), pair=(2, 3))
    fault = begin("fault:link_down")
    fault.attrs["link"] = "cern-anl"
    timed = begin("gdmp:request_stage", parent=root.context, kind="client",
                  host="anl", service="gdmp")
    advance(30.0)
    log.finish(timed, "timeout")
    log.finish(fault)
    log.finish(root)
    foreign = begin("gdmp:release",
                    parent=RequestContext("t9", "s1", deadline=4.0),
                    kind="server", host="cern", service="gdmp")
    nested = begin("gdmp:catalog.add", parent=foreign.context,
                   kind="client", host="cern", service="gdmp")
    advance(0.125)
    log.finish(nested)
    log.finish(foreign, "error", detail="interrupted")
    borrowed = TraceLog(Simulator()).begin("elsewhere").context
    begin("gdmp:publish", parent=borrowed, kind="server", host="caltech",
          service="gdmp", count=3)
    advance(2.0)
    waiting = begin("gdmp:task.wait", kind="client", host="slac",
                    service="gdmp")
    begin("gdmp:task.wait", parent=waiting.context, kind="server",
          host="cern", service="gdmp")
    begin("gridftp:RETR", parent=root.context, kind="client", host="anl",
          service="gridftp", payload=_Shape())
    return sim, log, begun


def _exports(sim, log) -> dict:
    parked, abandoned = open_work(log)
    return {
        "to_json": log.to_json(),
        "chrome": to_chrome_trace_json(log),
        "report": render_health_report(MetricsRegistry(sim), log),
        "open_work": json.dumps([
            [span.to_record() for span in part] for part in (parked, abandoned)
        ]),
    }


#: sha256 of each export of :func:`_export_scenario` as the span-object
#: log (one ``Span`` per span) rendered it
EXPORT_SHA256 = {
    "to_json":
        "88d1f67620f35523a2b7309893b539fbbc79f111c9139f997c9ec7a64b07a07f",
    "chrome":
        "917e7d96205fe19ec0110ade96484a5c5e49cee96a814e79c5fa6a51cd88e654",
    "report":
        "55f5fc773f692a629c7ecc533600f1b8a5bb0608aeab789ca16d650e9a4dff96",
    "open_work":
        "8e0bd7c19782b9672975505743e32312fdc8af54570d7ff7a4ff4187796c8c3b",
}


def test_exports_are_byte_identical_to_the_object_log():
    sim, log, _ = _export_scenario()
    digests = {
        part: hashlib.sha256(text.encode()).hexdigest()
        for part, text in _exports(sim, log).items()
    }
    assert digests == EXPORT_SHA256


def test_views_equal_the_spans_begin_returned():
    _, log, begun = _export_scenario()
    assert log.spans() == list(log) == begun
    assert [span.to_record() for span in begun] == log.to_records()
    assert log.open_spans() == begun[-4:]


def test_a_full_export_leaves_no_object_behind():
    sim, log, _ = _export_scenario()

    def export():
        for span in log:
            span.attrs  # most spans have none: reading them builds nothing
        _exports(sim, log)

    export()  # the first calls pay for imports and caches
    gc.collect()
    gc.freeze()  # what lives now is out of the count
    try:
        export()
        gc.collect()
        added = len(gc.get_objects())
    finally:
        gc.unfreeze()
    assert added == 0
