"""Tests for the terminal grid health report."""

from repro.gdmp import DataGrid, GdmpConfig
from repro.observatory import WeatherConfig
from repro.observatory.service import WEATHER_SECTION
from repro.services import TraceLog
from repro.simulation.kernel import Simulator
from repro.telemetry import (
    NO_METRICS,
    MetricsRegistry,
    Section,
    render_health_report,
)
from repro.workload.components import SETS_IN_FLIGHT_SECTION


def _advance(sim, dt):
    def tick():
        yield sim.timeout(dt)

    sim.spawn(tick())
    sim.run()


def test_metrics_grouped_by_subsystem():
    registry = MetricsRegistry()
    registry.counter("netsim.flow.bytes", src="cern", dst="anl").inc(100)
    registry.gauge("storage.pool.occupancy", site="cern").set(0.25)
    registry.histogram("rpc.latency", service="gdmp").observe(0.02)
    text = render_health_report(registry)
    assert "-- netsim --" in text
    assert "-- storage --" in text
    assert "-- rpc --" in text
    assert "src=cern" in text and "dst=anl" in text
    assert "n=1 mean=0.02" in text


def test_span_summary_and_slowest_table():
    sim = Simulator()
    log = TraceLog(sim)
    fast = log.begin("fast-op", host="anl", service="svc")
    slow = log.begin("slow-op", host="cern", service="svc")
    _advance(sim, 1.0)
    log.finish(fast)
    _advance(sim, 9.0)
    log.finish(slow, "error", detail="boom")
    text = render_health_report(NO_METRICS, log, top_n=1)
    assert "-- spans per host --" in text
    assert "-- top 1 slowest spans --" in text
    assert "slow-op" in text
    lines = text.splitlines()
    slowest = [ln for ln in lines if "slow-op" in ln and "10.0000" in ln]
    assert slowest, "slowest span row missing its duration"
    # fast-op was cut by top_n=1
    assert not any("fast-op" in ln for ln in lines)


def test_open_spans_warned():
    sim = Simulator()
    log = TraceLog(sim)
    log.finish(log.begin("done", host="a"))
    log.begin("hung", host="a", service="svc")
    text = render_health_report(NO_METRICS, log)
    assert "WARNING: 1 spans still in progress" in text
    assert "hung" in text


def test_parked_workers_are_counted_not_warned_about(capsys):
    from repro.experiments.common import export_telemetry

    sim = Simulator()
    log = TraceLog(sim)
    # one parked worker is one open call, seen from both ends
    for host in ("anl", "anl", "caltech"):
        log.begin("gdmp:task.wait", kind="client", host=host, service="gdmp")
        log.begin("gdmp:task.wait", kind="server", host="cern", service="gdmp")
    text = render_health_report(NO_METRICS, log)
    assert ("3 workers parked at their queue, waiting for work "
            "(task.wait): anl x2, caltech x1") in text
    assert "WARNING" not in text
    export_telemetry(NO_METRICS, log)
    assert capsys.readouterr().out == ""
    # abandoned work is still warned about, and only it is listed
    log.begin("gdmp:task.claim", kind="client", host="anl", service="gdmp")
    text = render_health_report(NO_METRICS, log)
    assert "3 workers parked" in text
    assert "WARNING: 1 spans still in progress" in text
    assert "task.wait" not in text.split("WARNING")[1]
    export_telemetry(NO_METRICS, log)
    assert "warning: 1 trace spans still in progress" \
        in capsys.readouterr().out


def test_each_replicators_width_reads_as_the_ratio_it_came_from():
    registry = MetricsRegistry()
    registry.add_section(SETS_IN_FLIGHT_SECTION)

    def gauge(name, value, **labels):
        registry.gauge(f"workload.replicator.{name}", **labels).set(value)

    for name, value in (("width", 2), ("peak_sets", 2), ("sets_in_flight", 1)):
        gauge(name, value, site="t2-1a")
    gauge("bandwidth", 5.0e6, site="t2-1a", source="t0-cern")
    gauge("pace", 3.57e6, site="t2-1a", source="t0-cern")
    # the source its best pace moved away from reads 0
    gauge("bandwidth", 0, site="t2-1a", source="t1-1")
    gauge("pace", 0, site="t2-1a", source="t1-1")
    for name, value in (("width", 1), ("peak_sets", 0), ("sets_in_flight", 0)):
        gauge(name, value, site="t1-0")
    text = render_health_report(registry)
    assert (
        "t2-1a: width 2 = ceil(5.00 MB/s from t0-cern / 3.57 MB/s best "
        "pace), peak 2 sets (1 in flight)"
    ) in text
    assert (
        "t1-0: width 1 (no set has reported yet), peak 0 sets (0 in flight)"
    ) in text
    # joined into those lines, not tabulated a gauge a row
    assert "workload.replicator" not in text
    assert "sets in flight" not in render_health_report(MetricsRegistry())


def test_a_family_no_section_claims_is_still_tabulated():
    registry = MetricsRegistry()
    registry.add_section(Section(
        ("plane.own.",), lambda reg, top_n: ["", "-- plane --", "joined"]
    ))
    registry.gauge("plane.own.width", site="a").set(2)
    registry.gauge("plane.other", site="a").set(3)
    text = render_health_report(registry)
    assert "-- plane --\njoined" in text
    assert "plane.other" in text
    assert "plane.own.width" not in text


def test_a_plane_that_was_not_built_adds_no_section():
    sites = [GdmpConfig("cern"), GdmpConfig("anl")]
    assert DataGrid(sites).metrics.sections() == []
    weather = DataGrid(sites, weather=WeatherConfig())
    assert weather.metrics.sections() == [WEATHER_SECTION]
    # nor does a grid that records nothing keep the sections it is handed
    off = DataGrid(sites, weather=WeatherConfig(), metrics=False)
    assert off.metrics.sections() == []


def test_report_is_deterministic():
    def build():
        registry = MetricsRegistry()
        registry.counter("a.x", h="2").inc()
        registry.counter("a.x", h="1").inc()
        sim = Simulator()
        log = TraceLog(sim)
        log.finish(log.begin("op", host="cern"))
        return render_health_report(registry, log)

    assert build() == build()


def test_empty_inputs_render_header_only():
    text = render_health_report(NO_METRICS, None)
    assert "grid health report" in text
    assert "0 metric series, 0 spans" in text
