"""Shared helpers for the experiment harness."""

from __future__ import annotations

import json
from typing import Iterable, Sequence

__all__ = [
    "format_table",
    "print_table",
    "transfer_rate_mbps",
    "export_telemetry",
]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str = "",
) -> str:
    """Fixed-width text table (the harness prints paper-style rows)."""
    rendered_rows = [
        [f"{cell:.2f}" if isinstance(cell, float) else str(cell) for cell in row]
        for row in rows
    ]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered_rows))
        if rendered_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(headers, rows, title=""):
    """Format and print a table followed by a blank line."""
    print(format_table(headers, rows, title))
    print()


def transfer_rate_mbps(nbytes: float, seconds: float) -> float:
    """Bytes over seconds, expressed in Mbps."""
    return nbytes * 8.0 / 1e6 / seconds if seconds > 0 else 0.0


def export_telemetry(
    registry,
    tracelog,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> None:
    """Shared end-of-experiment telemetry export.

    Behind the harness's ``--metrics-json`` / ``--trace-chrome`` /
    ``--report`` flags: dumps the registry snapshot as sorted JSON, the
    trace log as Chrome trace-event JSON (Perfetto-loadable), and/or
    prints the grid health report.  Spans still in progress at simulation
    end are warned about up front (the report lists them individually);
    idle workers parked at their queue are not abandoned work and only
    the report counts them.
    """
    if tracelog is not None:
        from repro.telemetry.report import open_work

        _parked, open_spans = open_work(tracelog)
        if open_spans:
            print(
                f"warning: {len(open_spans)} trace spans still in progress "
                "at simulation end (listed in the health report)"
            )
    if metrics_json is not None:
        with open(metrics_json, "w", encoding="utf-8") as fh:
            json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote metrics snapshot ({len(registry)} series) "
              f"to {metrics_json}")
    if trace_chrome is not None and tracelog is not None:
        from repro.telemetry.chrome_trace import dump_chrome_trace

        dump_chrome_trace(tracelog, trace_chrome)
        print(f"wrote Chrome trace ({len(tracelog)} spans) to {trace_chrome}")
    if show_report:
        from repro.telemetry.report import print_health_report

        print_health_report(registry, tracelog)
