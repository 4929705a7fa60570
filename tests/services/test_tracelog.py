"""Tests for the structured trace log."""

import json

import pytest

from repro.services import RequestContext, TraceLog
from repro.simulation.kernel import Simulator


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
