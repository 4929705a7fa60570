"""Tests for the labelled metrics registry."""

import pytest

from repro.simulation.kernel import Simulator
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import DEFAULT_LATENCY_BOUNDS, _label_key


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_accumulates(registry):
    registry.counter("bytes", host="cern").inc(100)
    registry.counter("bytes", host="cern").inc(50)
    assert registry.value("bytes", host="cern") == 150


def test_counter_rejects_negative(registry):
    with pytest.raises(ValueError):
        registry.counter("bytes").inc(-1)


def test_label_spelling_order_is_irrelevant(registry):
    a = registry.counter("x", host="cern", stream=3)
    b = registry.counter("x", stream=3, host="cern")
    assert a is b
    assert a.labels == (("host", "cern"), ("stream", "3"))


@pytest.mark.parametrize("labels", [
    {},
    {"link": "cern-anl"},
    {"stream": 3, "src": "cern", "dst": "anl"},
])
def test_label_key_is_the_sorted_items(labels):
    # zero or one label skips the sort; the key must not tell
    assert _label_key(labels) == tuple(
        sorted((k, str(v)) for k, v in labels.items())
    )


def test_different_labels_are_different_children(registry):
    registry.counter("x", host="cern").inc()
    registry.counter("x", host="anl").inc(2)
    assert registry.value("x", host="cern") == 1
    assert registry.value("x", host="anl") == 2
    assert len(registry) == 2


def test_kind_mismatch_raises(registry):
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    with pytest.raises(ValueError):
        registry.histogram("x")


def test_histogram_bounds_fixed_at_creation(registry):
    registry.histogram("lat", bounds=(1.0, 2.0))
    registry.histogram("lat", bounds=(2.0, 1.0))  # same set, order-free
    with pytest.raises(ValueError):
        registry.histogram("lat", bounds=(1.0, 3.0))
    with pytest.raises(ValueError):
        registry.histogram("empty", bounds=())


class Edge:
    """A bucket bound that counts its conversions to float."""

    converted = 0

    def __init__(self, value):
        self.value = value

    def __float__(self):
        Edge.converted += 1
        return float(self.value)


def test_histogram_bounds_are_normalised_once_per_family(registry):
    bounds = (Edge(10), Edge(1), Edge(5))
    first = registry.histogram("lat", bounds=bounds, op="a")
    assert first.bounds == (1.0, 5.0, 10.0)
    for _ in range(3):
        assert registry.histogram("lat", bounds=bounds, op="a") is first
    registry.histogram("lat", bounds=bounds, op="b")
    assert Edge.converted == 3   # at creation only
    # other bounds are normalised and compared: the same set is accepted,
    # a different one still raises
    assert registry.histogram("lat", bounds=(5.0, 10.0, 1.0), op="a") is first
    with pytest.raises(ValueError, match="already has bounds"):
        registry.histogram("lat", bounds=(1.0, 5.0), op="a")


def test_gauge_set_and_add(registry):
    gauge = registry.gauge("occupancy", site="cern")
    gauge.set(10)
    gauge.add(-3)
    assert registry.value("occupancy", site="cern") == 7.0


def test_histogram_hand_computed_buckets(registry):
    """Reference case computed by hand against bounds (1, 10, 100).

    Observations: 0.5, 1.0, 2.0, 10.0, 99.0, 100.0, 1000.0
    Prometheus ``le`` semantics (v lands in first bucket with v <= bound):
      le=1    : 0.5, 1.0                      -> 2
      le=10   : 2.0, 10.0                     -> 2
      le=100  : 99.0, 100.0                   -> 2
      +Inf    : 1000.0                        -> 1
    """
    hist = registry.histogram("size", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 2.0, 10.0, 99.0, 100.0, 1000.0):
        hist.observe(value)
    assert hist.bucket_counts == [2, 2, 2, 1]
    assert hist.count == 7
    assert hist.total == pytest.approx(1212.5)
    assert hist.mean == pytest.approx(1212.5 / 7)


def test_histogram_default_bounds(registry):
    hist = registry.histogram("rpc.latency")
    assert hist.bounds == DEFAULT_LATENCY_BOUNDS


def test_series_stamped_with_sim_time():
    sim = Simulator()
    registry = MetricsRegistry(sim)

    def run():
        registry.observe("queue", 10.0, link="wan")
        yield sim.timeout(2.0)
        registry.observe("queue", 0.0, link="wan")
        yield sim.timeout(2.0)
        registry.observe("queue", 0.0, link="wan")

    sim.spawn(run())
    sim.run()
    series = registry.series("queue", link="wan")
    assert series.times == [0.0, 2.0, 4.0]
    # value 10 held for 2s, then 0 for 2s -> time-weighted mean 5
    assert series.time_average() == pytest.approx(5.0)
    assert series.last == 0.0
    assert series.maximum() == 10.0


def test_series_rejects_time_reversal(registry):
    series = registry.series("q")
    series._sample(5.0, 1.0)
    with pytest.raises(ValueError):
        series._sample(4.0, 1.0)


def test_callable_clock():
    ticks = iter([1.5, 2.5])
    registry = MetricsRegistry(lambda: next(ticks))
    registry.observe("v", 1.0)
    assert registry.series("v").times == [1.5]
    assert registry.now == 2.5


def test_collectors_run_at_snapshot(registry):
    state = {"occupancy": 42.0}
    registry.add_collector(
        lambda reg: reg.gauge("pool.occupancy").set(state["occupancy"])
    )
    snap = registry.snapshot()
    assert snap["pool.occupancy"]["children"][0]["value"] == 42.0
    state["occupancy"] = 7.0
    snap = registry.snapshot()
    assert snap["pool.occupancy"]["children"][0]["value"] == 7.0


def test_snapshot_is_sorted_and_json_shaped(registry):
    registry.counter("z.last", host="b").inc()
    registry.counter("z.last", host="a").inc()
    registry.counter("a.first").inc(3)
    registry.histogram("m.hist", bounds=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert list(snap) == ["a.first", "m.hist", "z.last"]
    hosts = [c["labels"]["host"] for c in snap["z.last"]["children"]]
    assert hosts == ["a", "b"]
    assert snap["m.hist"]["bounds"] == [1.0]
    assert snap["m.hist"]["children"][0]["buckets"] == [1, 0]
    assert snap["a.first"]["kind"] == "counter"


def test_introspection(registry):
    registry.counter("c").inc()
    registry.gauge("g")
    assert registry.families() == ["c", "g"]
    assert registry.kind("c") == "counter"
    assert registry.kind("missing") is None
    assert registry.value("missing") == 0.0
    assert registry.value("c", host="nope") == 0.0
    assert list(registry.children("missing")) == []
