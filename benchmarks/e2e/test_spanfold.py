"""The self-time fold on hand-built span trees.

Run as ``pytest benchmarks/e2e`` (tier-1 ``testpaths`` is unchanged).
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spanfold import child_index, fold_tree  # noqa: E402


def span(span_id, parent_id, name, start, end, trace_id="t1"):
    return SimpleNamespace(
        trace_id=trace_id, span_id=span_id, parent_id=parent_id,
        name=name, start=start, end=end,
    )


def fold(spans, root):
    return fold_tree(root, child_index(spans), lambda name: name)


def test_self_time_is_duration_minus_children():
    root = span("a", None, "gdmp", 0.0, 10.0)
    spans = [root, span("b", "a", "rpc", 1.0, 4.0), span("c", "b", "net", 2.0, 3.0)]
    slices, skipped = fold(spans, root)
    assert slices == {"gdmp": 7.0, "rpc": 2.0, "net": 1.0}
    assert skipped == 0


def test_overlapping_children_are_charged_once():
    root = span("a", None, "gdmp", 0.0, 10.0)
    spans = [
        root,
        span("c", "a", "right", 4.0, 8.0),
        span("b", "a", "left", 1.0, 6.0),
        span("d", "a", "inside", 2.0, 5.0),
    ]
    slices, _ = fold(spans, root)
    # the parent is uncovered on [0,1] and [8,10] only; the overlap
    # [4,6] belongs to the child that started first
    assert slices == {"gdmp": 3.0, "left": 5.0, "right": 2.0}


def test_child_outliving_its_parent_is_clipped():
    root = span("a", None, "gdmp", 0.0, 5.0)
    child = span("b", "a", "rpc", 3.0, 9.0)
    grandchild = span("c", "b", "net", 4.0, 8.0)
    slices, _ = fold([root, child, grandchild], root)
    assert slices == {"gdmp": 3.0, "rpc": 1.0, "net": 1.0}
    # and a child entirely outside its parent contributes nothing
    late = span("d", "a", "late", 6.0, 7.0)
    slices, _ = fold([root, child, grandchild, late], root)
    assert "late" not in slices


def test_open_spans_are_skipped_and_counted():
    root = span("a", None, "gdmp", 0.0, 10.0)
    spans = [
        root,
        span("b", "a", "hung", 2.0, None),
        span("c", "b", "below-hung", 3.0, 4.0),
        span("d", "a", "rpc", 5.0, 6.0),
    ]
    slices, skipped = fold(spans, root)
    assert skipped == 1
    # the hung call's time stays with the parent that waited on it
    assert slices == {"gdmp": 9.0, "rpc": 1.0}
    with pytest.raises(ValueError):
        fold(spans, spans[1])


def test_two_traces_with_the_same_span_ids_do_not_mix():
    one = [
        span("a", None, "gdmp", 0.0, 10.0, trace_id="t1"),
        span("b", "a", "rpc", 0.0, 4.0, trace_id="t1"),
    ]
    two = [
        span("a", None, "gdmp", 0.0, 10.0, trace_id="t2"),
        span("b", "a", "rpc", 0.0, 9.0, trace_id="t2"),
    ]
    index = child_index(one + two)
    assert fold_tree(one[0], index, str)[0] == {"gdmp": 6.0, "rpc": 4.0}
    assert fold_tree(two[0], index, str)[0] == {"gdmp": 1.0, "rpc": 9.0}


def test_slices_sum_to_the_root_duration():
    root = span("r", None, "root", 10.0, 31.5)
    spans = [
        root,
        span("1", "r", "x", 9.0, 15.0),       # starts before the root
        span("2", "r", "y", 12.0, 20.0),      # overlaps its sibling
        span("3", "2", "x", 11.0, 25.0),      # outlives its parent
        span("4", "3", "z", 13.0, None),      # never closed
        span("5", "r", "z", 30.0, 40.0),      # outlives the root
    ]
    slices, skipped = fold(spans, root)
    assert skipped == 1
    assert sum(slices.values()) == pytest.approx(root.end - root.start)


def test_unexplained_time_is_latency_minus_independent_parts():
    from layers import span_metrics

    def replicate(span_id, parent_id, name, start, end, **extra):
        return SimpleNamespace(
            trace_id="t1", span_id=span_id, parent_id=parent_id, name=name,
            start=start, end=end, status="ok", host="t2-0", attrs=extra,
        )

    spans = [
        replicate("set", None, "gdmp:replicate-set", 10.0, 20.0),
        replicate("rli", "set", "gdmp:rli.lookup", 10.0, 11.0),
        replicate("f1", "set", "gdmp:replicate", 11.0, 15.0, lfn="a.db"),
        replicate("x1", "f1", "gridftp:transfer", 12.0, 15.0),
        replicate("f2", "set", "gdmp:replicate", 15.0, 20.0, lfn="b.db"),
    ]
    # a.db went through the queue: 30 s in lanes and audit, and it blocks
    # on the whole set (10 s); 2.5 s of its 42.5 s are in neither record.
    # b.db was pulled directly: its own 5 s tree is all there is.
    out = span_metrics(spans, {
        ("a.db", "t2-0"): (42.5, 30.0),
        ("b.db", "t2-0"): (5.0, None),
    })
    assert out["bench.replicate_traces"] == 2
    assert out["bench.sim_unexplained_p50_s"] == pytest.approx(0.0)
    assert out["bench.sim_unexplained_p99_s"] == pytest.approx(2.5)
    assert out["bench.sim_unexplained_share"] == pytest.approx(2.5 / 47.5)
    assert out["netsim.sim_self_p99_s"] == pytest.approx(3.0)
    assert out["rls.sim_self_p99_s"] == pytest.approx(1.0)
    # an operation without a closed, successful replicate span is left out
    assert span_metrics(spans[:1], {("a.db", "t2-0"): (1.0, None)})[
        "bench.sim_unexplained_p50_s"
    ] is None
