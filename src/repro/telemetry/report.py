"""The terminal "grid health report": one page an operator reads.

The GDMP operational papers are blunt that monitoring was the difference
between a demo and a service; this renderer is the ten-second version of
that monitoring.  Given a grid's :class:`MetricsRegistry` and
:class:`TraceLog` it prints:

* a per-subsystem metrics table (subsystem = the first dotted segment of
  the family name: ``netsim``, ``gridftp``, ``rpc``, ``catalog``,
  ``storage``, ...), one row per labelled child, with a kind-appropriate
  digest (counter value, gauge value, histogram count/mean, series
  last/avg/max);
* each plane's own section, in the order the planes registered them
  (:meth:`MetricsRegistry.add_section`): the families a section claims
  are left out of the per-subsystem tables, and this module names none
  of them;
* a per-host span summary (how much traced work each host did, and how
  much of it failed);
* the top-N slowest finished spans — where the simulated time went;
* every span still ``in_progress`` — work the simulation ended inside,
  which would otherwise silently export ``end: null`` — with the idle
  workers parked at their queue (open by design) counted on a line of
  their own, not warned about.

Everything is sorted, so the report is deterministic for a given run.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from repro.services.tracelog import Span, TraceLog
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "render_health_report",
    "print_health_report",
    "open_work",
    "table",
    "fmt",
    "labels_text",
]


def table(headers: Sequence[str], rows: list[Sequence[str]]) -> list[str]:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines = [head, "-" * len(head)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def labels_text(labels: tuple[tuple[str, str], ...]) -> str:
    return ",".join(f"{k}={v}" for k, v in labels) or "-"


def _digest(kind: str, child) -> str:
    if kind in ("counter", "gauge"):
        return fmt(child.value)
    if kind == "histogram":
        if not child.count:
            return "n=0"
        return f"n={child.count} mean={fmt(child.mean)}"
    if not len(child):
        return "no samples"
    return (
        f"last={fmt(child.last)} avg={fmt(child.time_average())} "
        f"max={fmt(child.maximum())}"
    )


#: the operation an idle worker parks in until its lane has work
#: (:meth:`repro.workload.queue.TaskQueue.wait`)
_PARKED_OPERATION = "task.wait"


def open_work(tracelog: TraceLog) -> tuple[list[Span], list[Span]]:
    """The spans still in progress, as ``(parked, abandoned)``: the calls
    of idle workers waiting at their queue — open whenever a run stops
    with its pipeline standing — and everything else, which is work the
    run ended inside."""
    parked: list[Span] = []
    abandoned: list[Span] = []
    for span in tracelog.open_spans():
        waiting = span.name.partition(":")[2] == _PARKED_OPERATION
        (parked if waiting else abandoned).append(span)
    return parked, abandoned


def render_health_report(
    registry: MetricsRegistry,
    tracelog: Optional[TraceLog] = None,
    top_n: int = 10,
) -> str:
    """The whole report as one printable string."""
    lines: list[str] = []
    n_spans = len(tracelog) if tracelog is not None else 0
    lines.append(
        f"=== grid health report — t={registry.now:.3f}s, {len(registry)} "
        f"metric series, {n_spans} spans ==="
    )

    if len(registry):
        registry.collect()
        sections = registry.sections()
        claimed = tuple(
            prefix for section in sections for prefix in section.families
        )
        by_subsystem: dict[str, list[Sequence[str]]] = {}
        for name in registry.families():
            if name.startswith(claimed):
                continue  # its plane's section renders it below
            kind = registry.kind(name)
            subsystem = name.split(".", 1)[0]
            for child in registry.children(name):
                by_subsystem.setdefault(subsystem, []).append(
                    (name, labels_text(child.labels), kind,
                     _digest(kind, child))
                )
        for subsystem in sorted(by_subsystem):
            lines.append("")
            lines.append(f"-- {subsystem} --")
            lines.extend(
                table(
                    ("metric", "labels", "kind", "value"),
                    by_subsystem[subsystem],
                )
            )
        for section in sections:
            lines.extend(section.render(registry, top_n))

    if tracelog is not None and len(tracelog):
        keys, key_ids = tracelog.keys, tracelog.key_ids
        starts, ends = tracelog.starts, tracelog.ends
        statuses, codes = tracelog.statuses, tracelog.status_codes
        per_host: dict[str, list[int]] = {}
        finished: list[int] = []
        for row in range(len(tracelog)):
            host = keys[key_ids[row]][2] or "-"
            counts = per_host.setdefault(host, [0, 0, 0])
            counts[0] += 1
            if statuses[codes[row]] == "error":
                counts[1] += 1
            if ends[row] != ends[row]:
                counts[2] += 1
            else:
                finished.append(row)
        lines.append("")
        lines.append("-- spans per host --")
        lines.extend(
            table(
                ("host", "spans", "errors", "open"),
                [
                    (host, str(c[0]), str(c[1]), str(c[2]))
                    for host, c in sorted(per_host.items())
                ],
            )
        )

        slowest = [
            Span(tracelog, row) for row in sorted(
                finished,
                key=lambda r: (-(ends[r] - starts[r]), f"s{r + 1:06d}"),
            )[:top_n]
        ]
        if slowest:
            lines.append("")
            lines.append(f"-- top {len(slowest)} slowest spans --")
            lines.extend(
                table(
                    ("duration (s)", "name", "host", "service", "status",
                     "trace"),
                    [
                        (f"{s.end - s.start:.4f}", s.name, s.host or "-",
                         s.service or "-", s.status, s.trace_id)
                        for s in slowest
                    ],
                )
            )

        parked, open_spans = open_work(tracelog)
        # a parked worker is one call seen from both ends: count callers
        workers = Counter(s.host for s in parked if s.kind == "client")
        if workers:
            lines.append("")
            lines.append(
                f"-- {sum(workers.values())} workers parked at their queue, "
                f"waiting for work ({_PARKED_OPERATION}): "
                + ", ".join(
                    f"{host} x{n}" for host, n in sorted(workers.items())
                )
                + " --"
            )
        if open_spans:
            lines.append("")
            lines.append(
                f"-- WARNING: {len(open_spans)} spans still in progress at "
                "simulation end --"
            )
            lines.extend(
                table(
                    ("started (s)", "name", "host", "service", "trace"),
                    [
                        (f"{s.start:.4f}", s.name, s.host or "-",
                         s.service or "-", s.trace_id)
                        for s in open_spans
                    ],
                )
            )
    return "\n".join(lines)


def print_health_report(
    registry: MetricsRegistry,
    tracelog: Optional[TraceLog] = None,
    top_n: int = 10,
) -> None:
    """Render and print the report followed by a blank line."""
    print(render_health_report(registry, tracelog, top_n=top_n))
    print()
