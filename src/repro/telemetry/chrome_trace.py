"""Chrome trace-event export of a :class:`TraceLog` (Perfetto-loadable).

Renders the grid's request spans in the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev:

* one *process* row per host (spans with no host land on a synthetic
  ``grid`` row), named with ``process_name`` metadata events;
* one *thread* row per service within a host, named with ``thread_name``
  metadata events;
* every finished span becomes a complete (``"X"``) event — sim seconds
  are exported as microseconds, the format's native unit;
* spans still in progress become instant (``"i"``) events so an aborted
  simulation remains inspectable instead of silently dropping work;
* each parent/child edge that crosses hosts becomes a flow arrow
  (``"s"``/``"f"`` pair keyed by the number in the child's span id), so
  a ``replicate`` request can be followed hop by hop: RPC -> GridFTP
  control -> transfer flows -> catalog update.

All ordering is the trace log's span order plus sorted host/service
tables, so two identical simulations export byte-identical JSON.
"""

from __future__ import annotations

import json

from repro.services.tracelog import TraceLog, json_attrs

__all__ = ["chrome_trace_events", "to_chrome_trace_json", "dump_chrome_trace"]

#: Process row for spans recorded without a host (grid-level work).
GRID_PROCESS = "grid"


def _places(tracelog: TraceLog) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
    """Stable pid/tid assignment: hosts sorted (pid from 1), services
    sorted within each host (tid from 1).  Every interned key has a
    span, so the key table names every row there is."""
    by_host: dict[str, set[str]] = {}
    for _name, kind, host, service in tracelog.keys:
        by_host.setdefault(host or GRID_PROCESS, set()).add(service or kind)
    hosts = sorted(by_host)
    pids = {host: i + 1 for i, host in enumerate(hosts)}
    tids: dict[tuple[str, str], int] = {}
    for host in hosts:
        for i, service in enumerate(sorted(by_host[host])):
            tids[(host, service)] = i + 1
    return pids, tids


def _span_args(tracelog: TraceLog, row: int) -> dict:
    args = {
        "trace_id": tracelog.trace_id_of(row),
        "span_id": f"s{row + 1:06d}",
        "status": tracelog.statuses[tracelog.status_codes[row]],
    }
    parent_id = tracelog.parent_id_of(row)
    if parent_id is not None:
        args["parent_id"] = parent_id
    detail = tracelog.details.get(row)
    if detail:
        args["detail"] = detail
    attrs = tracelog.attrs.get(row)
    if attrs:
        args.update(json_attrs(attrs))
    return args


def chrome_trace_events(tracelog: TraceLog) -> list[dict]:
    """The trace log as a list of Chrome trace-event dicts, read from its
    columns.  A flow arrow's id is the child's row + 1, the number in its
    span id."""
    pids, tids = _places(tracelog)
    events: list[dict] = []
    for host in sorted(pids):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pids[host],
            "tid": 0,
            "args": {"name": host},
        })
    for (host, service) in sorted(tids):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pids[host],
            "tid": tids[(host, service)],
            "args": {"name": service},
        })
    # per interned key: (name, kind, host row, pid, tid)
    places = []
    for name, kind, host, service in tracelog.keys:
        host = host or GRID_PROCESS
        places.append(
            (name, kind, host, pids[host], tids[(host, service or kind)])
        )
    key_ids, starts, ends = tracelog.key_ids, tracelog.starts, tracelog.ends
    for row in range(len(tracelog)):
        name, kind, host, pid, tid = places[key_ids[row]]
        start, end = starts[row], ends[row]
        ts = start * 1e6
        if end != end:  # still open
            events.append({
                "name": name,
                "cat": kind,
                "ph": "i",
                "s": "t",       # thread-scoped instant
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "args": _span_args(tracelog, row),
            })
        else:
            events.append({
                "name": name,
                "cat": kind,
                "ph": "X",
                "ts": ts,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": _span_args(tracelog, row),
            })
        parent = tracelog.parent_row(row)
        if parent < 0:
            continue
        _, _, parent_host, parent_pid, parent_tid = places[key_ids[parent]]
        if parent_host != host:
            events.append({
                "name": name,
                "cat": "flow",
                "ph": "s",
                "id": row + 1,
                "ts": starts[parent] * 1e6,
                "pid": parent_pid,
                "tid": parent_tid,
            })
            events.append({
                "name": name,
                "cat": "flow",
                "ph": "f",
                "bp": "e",
                "id": row + 1,
                "ts": ts,
                "pid": pid,
                "tid": tid,
            })
    return events


def to_chrome_trace_json(tracelog: TraceLog, indent: int = 1) -> str:
    """The whole log as a Chrome trace JSON document."""
    return json.dumps(
        {
            "traceEvents": chrome_trace_events(tracelog),
            "displayTimeUnit": "ms",
        },
        indent=indent,
        sort_keys=True,
    )


def dump_chrome_trace(tracelog: TraceLog, path: str, indent: int = 1) -> None:
    """Write :func:`to_chrome_trace_json` to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_chrome_trace_json(tracelog, indent=indent))
        fh.write("\n")
