"""Unified telemetry: labelled metrics, exporters, and the health report.

The grid's observability subsystem (see DESIGN.md "Telemetry"):

* :mod:`repro.telemetry.metrics` — the sim-time-aware
  :class:`MetricsRegistry` of labelled counters, gauges, histograms, and
  time-weighted series that every instrumented subsystem records into
  (:data:`NO_METRICS` when it was given none), and the :class:`Section`
  each plane hands it for the health report;
* :mod:`repro.telemetry.prometheus` — Prometheus text-format export;
* :mod:`repro.telemetry.chrome_trace` — Chrome trace-event JSON export of
  a :class:`~repro.services.tracelog.TraceLog` (Perfetto-loadable, with
  per-host process rows and cross-host flow arrows);
* :mod:`repro.telemetry.report` — the terminal grid health report.
"""

from repro.telemetry.chrome_trace import (  # noqa: F401
    chrome_trace_events,
    dump_chrome_trace,
    to_chrome_trace_json,
)
from repro.telemetry.metrics import (  # noqa: F401
    DEFAULT_LATENCY_BOUNDS,
    DEFAULT_SIZE_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    NO_METRICS,
    MetricsRegistry,
    Section,
    TimeSeries,
)
from repro.telemetry.prometheus import (  # noqa: F401
    dump_prometheus,
    to_prometheus_text,
)
from repro.telemetry.report import (  # noqa: F401
    print_health_report,
    render_health_report,
)

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_SIZE_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NO_METRICS",
    "Section",
    "TimeSeries",
    "chrome_trace_events",
    "dump_chrome_trace",
    "dump_prometheus",
    "print_health_report",
    "render_health_report",
    "to_chrome_trace_json",
    "to_prometheus_text",
]
