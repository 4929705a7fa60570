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
* a "grid weather" table when the observatory is attached: one row per
  observed (source, destination) pair joining the ``weather.pair.*``
  gauges — predicted throughput, samples, failures, staleness,
  confidence, congestion — plus the top-N most-congested pairs (the
  paths an operator should reroute around);
* a "sets in flight" line per Replicator when a workload engine is
  attached: the width of the site's pipe as the ratio it was derived
  from — probed bandwidth over the best pace one of its own files
  achieved — with the most sets it ever ran at once;
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

__all__ = ["render_health_report", "print_health_report", "open_work"]


def _table(headers: Sequence[str], rows: list[Sequence[str]]) -> list[str]:
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


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _labels_text(labels: tuple[tuple[str, str], ...]) -> str:
    return ",".join(f"{k}={v}" for k, v in labels) or "-"


def _digest(kind: str, child) -> str:
    if kind in ("counter", "gauge"):
        return _fmt(child.value)
    if kind == "histogram":
        if not child.count:
            return "n=0"
        return f"n={child.count} mean={_fmt(child.mean)}"
    if not len(child):
        return "no samples"
    return (
        f"last={_fmt(child.last)} avg={_fmt(child.time_average())} "
        f"max={_fmt(child.maximum())}"
    )


#: the per-pair gauge families the grid-weather table joins on (src, dst)
_WEATHER_PAIR_PREFIX = "weather.pair."

#: the chunk-durability families pulled out of the per-subsystem tables
#: into their own scrub/repair section
_SCRUB_FAMILIES = frozenset({
    "chunks.scrub",
    "chunks.scrub_passes",
    "chunks.scrub_backlog",
    "chunks.repair",
    "chunks.repair_backlog",
})


#: the per-site gauges of each Replicator's width decision
#: (:func:`repro.gdmp.replica_selection.pipe_width`), joined into one
#: line per site in the sets-in-flight section
_REPLICATOR_PREFIX = "workload.replicator."


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


def _weather_rows(registry: MetricsRegistry) -> dict:
    """(src, dst) -> {metric suffix: value} from the weather.pair gauges."""
    pairs: dict[tuple[str, str], dict] = {}
    for name in registry.families():
        if not name.startswith(_WEATHER_PAIR_PREFIX):
            continue
        suffix = name[len(_WEATHER_PAIR_PREFIX):]
        for child in registry.children(name):
            labels = dict(child.labels)
            key = (labels.get("src", "-"), labels.get("dst", "-"))
            pairs.setdefault(key, {})[suffix] = child.value
    return pairs


def _weather_section(registry: MetricsRegistry, top_n: int) -> list[str]:
    """The grid-weather table plus the congested-pair ranking."""
    pairs = _weather_rows(registry)
    if not pairs:
        return []
    lines = ["", "-- grid weather --"]

    def row(key, values) -> tuple:
        throughput = values.get("throughput")
        return (
            f"{key[0]}->{key[1]}",
            f"{throughput / 1e6:.2f}" if throughput is not None else "-",
            _fmt(values.get("samples", 0)),
            _fmt(values.get("failures", 0)),
            f"{values.get('staleness_seconds', 0.0):.1f}",
            f"{values.get('confidence', 0.0):.2f}",
            (f"{values['congestion']:.2f}"
             if "congestion" in values else "-"),
        )

    lines.extend(
        _table(
            ("pair", "pred MB/s", "samples", "failures", "stale (s)",
             "confidence", "congestion"),
            [row(key, pairs[key]) for key in sorted(pairs)],
        )
    )
    congested = sorted(
        (
            (values["congestion"], key)
            for key, values in pairs.items()
            if values.get("congestion", 0.0) > 0.0
        ),
        key=lambda item: (-item[0], item[1]),
    )[:top_n]
    if congested:
        lines.append("")
        lines.append(
            f"-- top {len(congested)} congested pairs (1 = starved) --"
        )
        lines.extend(
            _table(
                ("congestion", "pair"),
                [
                    (f"{congestion:.2f}", f"{key[0]}->{key[1]}")
                    for congestion, key in congested
                ],
            )
        )
    return lines


def _chunks_section(registry: MetricsRegistry) -> list[str]:
    """The scrub/repair table: probe outcomes, repair work, and the
    backlog gauges an operator watches for a repair loop falling
    behind its damage rate."""
    rows = []
    for name in sorted(_SCRUB_FAMILIES):
        for child in registry.children(name):
            rows.append((name, _labels_text(child.labels),
                         _fmt(child.value)))
    if not rows:
        return []
    lines = ["", "-- scrub/repair --"]
    lines.extend(_table(("metric", "labels", "value"), rows))
    backlog = (
        registry.value("chunks.scrub_backlog")
        + registry.value("chunks.repair_backlog")
    )
    if backlog:
        lines.append(
            f"!! scrub/repair backlog: {_fmt(backlog)} tasks outstanding"
        )
    return lines


def _replicator_section(registry: MetricsRegistry) -> list[str]:
    """Why each site runs as many transfer sets at once as it does: the
    width, the probed bandwidth and best pace it is the ratio of, and the
    most sets the site ever had in flight."""

    def value(name: str, **labels) -> float:
        return registry.value(_REPLICATOR_PREFIX + name, **labels)

    # site -> the source its best pace came from (a source it moved away
    # from reads 0)
    paced = {
        dict(child.labels)["site"]: dict(child.labels)["source"]
        for child in registry.children(_REPLICATOR_PREFIX + "pace")
        if child.value
    }
    lines = []
    for child in registry.children(_REPLICATOR_PREFIX + "width"):
        site = dict(child.labels)["site"]
        why = " (no set has reported yet)"
        if site in paced:
            via = dict(site=site, source=paced[site])
            why = (
                f" = ceil({value('bandwidth', **via) / 1e6:.2f} MB/s from "
                f"{paced[site]} / {value('pace', **via) / 1e6:.2f} MB/s "
                "best pace)"
            )
        lines.append(
            f"{site}: width {_fmt(child.value)}{why}, "
            f"peak {_fmt(value('peak_sets', site=site))} sets "
            f"({_fmt(value('sets_in_flight', site=site))} in flight)"
        )
    if lines:
        lines[:0] = ["", "-- sets in flight: the width of each site's pipe --"]
    return lines


def render_health_report(
    registry: Optional[MetricsRegistry],
    tracelog: Optional[TraceLog] = None,
    top_n: int = 10,
) -> str:
    """The whole report as one printable string."""
    lines: list[str] = []
    now = registry.now if registry is not None else (
        tracelog.sim.now if tracelog is not None else 0.0
    )
    n_children = len(registry) if registry is not None else 0
    n_spans = len(tracelog) if tracelog is not None else 0
    lines.append(
        f"=== grid health report — t={now:.3f}s, {n_children} metric "
        f"series, {n_spans} spans ==="
    )

    if registry is not None and len(registry):
        registry.collect()
        by_subsystem: dict[str, list[Sequence[str]]] = {}
        for name in registry.families():
            if name.startswith(_WEATHER_PAIR_PREFIX):
                continue  # joined into the grid-weather table below
            if name in _SCRUB_FAMILIES:
                continue  # rendered in the scrub/repair section below
            if name.startswith(_REPLICATOR_PREFIX):
                continue  # joined into the sets-in-flight lines below
            kind = registry.kind(name)
            subsystem = name.split(".", 1)[0]
            for child in registry.children(name):
                by_subsystem.setdefault(subsystem, []).append(
                    (name, _labels_text(child.labels), kind,
                     _digest(kind, child))
                )
        for subsystem in sorted(by_subsystem):
            lines.append("")
            lines.append(f"-- {subsystem} --")
            lines.extend(
                _table(
                    ("metric", "labels", "kind", "value"),
                    by_subsystem[subsystem],
                )
            )
        lines.extend(_weather_section(registry, top_n))
        lines.extend(_chunks_section(registry))
        lines.extend(_replicator_section(registry))

    if tracelog is not None and len(tracelog):
        finished = [s for s in tracelog.spans() if s.end is not None]
        per_host: dict[str, list[int]] = {}
        for span in tracelog.spans():
            host = span.host or "-"
            counts = per_host.setdefault(host, [0, 0, 0])
            counts[0] += 1
            if span.status == "error":
                counts[1] += 1
            if span.end is None:
                counts[2] += 1
        lines.append("")
        lines.append("-- spans per host --")
        lines.extend(
            _table(
                ("host", "spans", "errors", "open"),
                [
                    (host, str(c[0]), str(c[1]), str(c[2]))
                    for host, c in sorted(per_host.items())
                ],
            )
        )

        slowest = sorted(
            finished, key=lambda s: (-(s.end - s.start), s.span_id)
        )[:top_n]
        if slowest:
            lines.append("")
            lines.append(f"-- top {len(slowest)} slowest spans --")
            lines.extend(
                _table(
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
                _table(
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
    registry: Optional[MetricsRegistry],
    tracelog: Optional[TraceLog] = None,
    top_n: int = 10,
) -> None:
    """Render and print the report followed by a blank line."""
    print(render_health_report(registry, tracelog, top_n=top_n))
    print()
