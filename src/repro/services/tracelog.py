"""Structured, sim-time-stamped request tracing.

One :class:`TraceLog` per simulation collects spans from every service
endpoint, client, and transfer that runs under it.  Spans form trees:
each span knows its trace id and its causal parent, so a single
``replicate`` request can be followed across the RPC hop, the GridFTP
control conversation, the data transfer, and the catalog update.

The log keeps its spans as columns, one row per span, and a
:class:`Span` is a view of one row: what a span costs is a few numbers,
not an object graph (DESIGN.md, "Spans are columns").

The log is queryable in tests (:meth:`spans`, :meth:`trace`,
:meth:`find`) and dumpable as JSON from experiments (:meth:`to_json`,
:meth:`dump_json`).  All ids come from per-instance counters, so repeated
simulations in one process produce identical traces.
"""

from __future__ import annotations

import itertools
import json
from array import array
from typing import Any, Iterator, Optional

from repro.services.context import RequestContext
from repro.simulation.kernel import Simulator

__all__ = ["Span", "TraceLog"]

#: ``TraceLog.parents`` of a root span, and of a span whose parent id is
#: not one this log could have issued (it is in ``_foreign_parents``)
NO_PARENT = -1
FOREIGN_PARENT = -2
#: ``TraceLog.ends`` of a span still open
OPEN = float("nan")
#: the most rows the columns grow by when they are full (they double
#: from 64 until then): ``begin`` stores into rows that already exist,
#: and at most this many rows wait unused
GROWTH = 4096
#: the status every span starts with (code 0 in ``TraceLog.statuses``)
IN_PROGRESS = "in_progress"


def _number(text: str, prefix: str) -> Optional[int]:
    """123 for ``prefix + "000123"``: the counter value a log formats as
    ``text``, or None when no log would format it so."""
    digits = text[1:]
    if text[:1] != prefix or not (digits.isascii() and digits.isdigit()):
        return None
    number = int(digits)
    if number < 1 or number >= 1 << 62 or f"{prefix}{number:06d}" != text:
        return None
    return number


def json_attrs(attrs: dict) -> dict:
    """JSON-native attr values (str/int/float/bool/None) pass through
    unchanged; only other types fall back to ``str()``."""
    return {
        k: (v if isinstance(v, (str, int, float, bool)) or v is None
            else str(v))
        for k, v in attrs.items()
    }


class Span:
    """One timed unit of work inside a trace: a view of row ``row`` of
    its :class:`TraceLog`.

    Views hold no state of their own, so two views of one row compare
    equal and see the same values.  Ids are formatted from the row's
    numbers when asked."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: "TraceLog", row: int):
        self._log = log
        self._row = row

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Span:
            return NotImplemented
        return self._log is other._log and self._row == other._row

    def __hash__(self) -> int:
        return hash((id(self._log), self._row))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} {self.span_id} of {self.trace_id} "
            f"{self.status}>"
        )

    @property
    def trace_id(self) -> str:
        return self._log.trace_id_of(self._row)

    @property
    def span_id(self) -> str:
        return f"s{self._row + 1:06d}"

    @property
    def parent_id(self) -> Optional[str]:
        return self._log.parent_id_of(self._row)

    @property
    def name(self) -> str:      # e.g. "gdmp:request_stage", "gridftp:RETR"
        return self._log.keys[self._log.key_ids[self._row]][0]

    @property
    def kind(self) -> str:      # "client" | "server" | "local" | "transfer"
        return self._log.keys[self._log.key_ids[self._row]][1]

    @property
    def host(self) -> str:
        return self._log.keys[self._log.key_ids[self._row]][2]

    @property
    def service(self) -> str:
        return self._log.keys[self._log.key_ids[self._row]][3]

    @property
    def start(self) -> float:
        return self._log.starts[self._row]

    @property
    def end(self) -> Optional[float]:
        end = self._log.ends[self._row]
        return None if end != end else end

    @property
    def status(self) -> str:    # "ok" | "error" | "timeout" | "in_progress"
        return self._log.statuses[self._log.status_codes[self._row]]

    @property
    def detail(self) -> str:
        return self._log.details.get(self._row, "")

    @property
    def attrs(self) -> dict:
        """The span's attributes; writing into them writes the log."""
        attrs = self._log.attrs.get(self._row)
        return _Unwritten(self._log, self._row) if attrs is None else attrs

    @property
    def context(self) -> RequestContext:
        """The context naming this span (pass to children/envelopes)."""
        return self.context_until(None)

    def context_until(self, deadline: Optional[float]) -> RequestContext:
        """:attr:`context` carrying ``deadline`` — the same value as
        ``span.context.with_deadline(deadline)``, built once.  It reads
        its ids from this view when asked."""
        return RequestContext(None, None, None, deadline, self)

    @property
    def duration(self) -> Optional[float]:
        end = self._log.ends[self._row]
        return None if end != end else end - self._log.starts[self._row]

    def to_record(self) -> dict:
        """JSON-serializable form of this span (:meth:`TraceLog.record`)."""
        return self._log.record(self._row)


class _Unwritten(dict):
    """The attributes of a span that has none: empty, and stored in the
    log's sparse column only when something is written into it, so that
    reading them stores nothing."""

    __slots__ = ("_log", "_row")

    def __init__(self, log: "TraceLog", row: int):
        super().__init__()
        self._log = log
        self._row = row

    def _stored(self) -> dict:
        return self._log.attrs.setdefault(self._row, self)

    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self._stored(), key, value)

    def update(self, *args, **kwargs) -> None:
        dict.update(self._stored(), *args, **kwargs)

    def setdefault(self, key, default=None):
        return dict.setdefault(self._stored(), key, default)

    def __ior__(self, other):
        return dict.__ior__(self._stored(), other)


class TraceLog:
    """Per-simulation span collector and trace-id allocator.

    One row per span, in begin order; row ``r`` is span ``s{r+1:06d}``.
    The columns are read by the exporters and never written outside this
    class.  They are allocated up to ``GROWTH`` rows ahead, so only their
    first ``len(log)`` rows are spans:

    * ``key_ids`` — the row's index into ``keys``, the interned
      ``(name, kind, host, service)`` tuples;
    * ``starts`` / ``ends`` — sim seconds, ``ends`` NaN while open;
    * ``status_codes`` — the row's index into ``statuses`` (at most 256
      distinct status strings; 0 is ``"in_progress"``, 1 ``"ok"``);
    * ``traces`` — the trace number (``t{n:06d}``), or ``-k`` for the
      ``k``-th trace id this log did not issue (``foreign_traces[k-1]``);
    * ``parents`` — the parent's row, ``NO_PARENT`` for a root, or
      ``FOREIGN_PARENT`` for a parent id no log formats (stored as text);
    * ``details`` / ``attrs`` — sparse dicts keyed by row.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.keys: list[tuple[str, str, str, str]] = []
        self._key_index: dict[tuple[str, str, str, str], int] = {}
        self.key_ids = array("I")
        self.starts = array("d")
        self.ends = array("d")
        self.statuses: list[str] = [IN_PROGRESS, "ok"]
        self._status_index = {IN_PROGRESS: 0, "ok": 1}
        self.status_codes = array("B")
        self.traces = array("q")
        self.parents = array("q")
        self.details: dict[int, str] = {}
        self.attrs: dict[int, dict] = {}
        self.foreign_traces: list[str] = []
        self._foreign_codes: dict[str, int] = {}
        self._foreign_parents: dict[int, str] = {}
        self._trace_numbers = itertools.count(1)
        self._rows = 0

    def _grow(self) -> None:
        """More rows: open, ``in_progress``, zero elsewhere."""
        rows = min(max(len(self.starts), 64), GROWTH)
        for column in (self.key_ids, self.starts, self.status_codes,
                       self.traces, self.parents):
            column.frombytes(bytes(column.itemsize * rows))
        self.ends.extend(itertools.repeat(OPEN, rows))

    # -- recording -------------------------------------------------------
    def begin(
        self,
        name: str,
        *,
        parent: Optional[RequestContext] = None,
        kind: str = "local",
        host: str = "",
        service: str = "",
        **attrs: Any,
    ) -> Span:
        """Open a span.  With ``parent`` set, the span joins that trace as
        a child; otherwise it roots a fresh trace."""
        row = self._rows
        if row == len(self.starts):
            self._grow()
        self._rows = row + 1
        key = (name, kind, host, service)
        key_id = self._key_index.get(key)
        if key_id is None:
            key_id = self._key_index[key] = len(self.keys)
            self.keys.append(key)
        if parent is None:
            trace = next(self._trace_numbers)
            parent_row = NO_PARENT
        else:
            origin = parent.span
            if origin is not None and origin._log is self:
                parent_row = origin._row
                trace = self.traces[parent_row]
            else:
                trace, parent_row = self._adopt(
                    row, parent.trace_id, parent.span_id
                )
        self.key_ids[row] = key_id
        self.starts[row] = self.sim.now
        self.traces[row] = trace
        self.parents[row] = parent_row
        if attrs:
            self.attrs[row] = attrs
        return Span(self, row)

    def _adopt(self, row: int, trace_id: str, parent_id: str) -> tuple[int, int]:
        """``(trace, parent row)`` columns for a parent context this log
        did not hand out: another log's, or one built by hand.  Ids in
        this log's own format map to the numbers they name (so they join
        what they name here, as equal strings do); any other is kept as
        text."""
        trace = _number(trace_id, "t")
        if trace is None:
            trace = self._foreign_codes.get(trace_id)
            if trace is None:
                self.foreign_traces.append(trace_id)
                trace = self._foreign_codes[trace_id] = -len(self.foreign_traces)
        number = _number(parent_id, "s")
        if number is not None:
            return trace, number - 1
        self._foreign_parents[row] = parent_id
        return trace, FOREIGN_PARENT

    def finish(
        self, span: Span, status: str = "ok", detail: str = ""
    ) -> Span:
        """Close a span with an outcome."""
        row = span._row
        self.ends[row] = self.sim.now
        if status == "ok":
            self.status_codes[row] = 1
        else:
            code = self._status_index.get(status)
            if code is None:
                code = self._status_index[status] = len(self.statuses)
                self.statuses.append(status)
            self.status_codes[row] = code
        if detail:
            self.details[row] = detail
        elif row in self.details:
            del self.details[row]
        return span

    # -- ids -------------------------------------------------------------
    def trace_id_of(self, row: int) -> str:
        trace = self.traces[row]
        if trace < 0:
            return self.foreign_traces[-1 - trace]
        return f"t{trace:06d}"

    def parent_id_of(self, row: int) -> Optional[str]:
        parent = self.parents[row]
        if parent == NO_PARENT:
            return None
        if parent == FOREIGN_PARENT:
            return self._foreign_parents[row]
        return f"s{parent + 1:06d}"

    def parent_row(self, row: int) -> int:
        """The row of the span's parent in this log, or -1 when it has
        none here (a root, or a parent id that names no row)."""
        parent = self.parents[row]
        return parent if 0 <= parent < self._rows else NO_PARENT

    # -- querying --------------------------------------------------------
    def spans(
        self,
        trace_id: Optional[str] = None,
        name: Optional[str] = None,
        kind: Optional[str] = None,
        host: Optional[str] = None,
        service: Optional[str] = None,
    ) -> list[Span]:
        """Spans filtered by trace id, name, kind, host and/or service
        (start order)."""
        rows: Any = range(self._rows)
        wanted = (name, kind, host, service)
        if wanted != (None, None, None, None):
            matching = {
                key_id for key_id, key in enumerate(self.keys)
                if all(w is None or w == k for w, k in zip(wanted, key))
            }
            key_ids = self.key_ids
            rows = [row for row in rows if key_ids[row] in matching]
        if trace_id is not None:
            trace = _number(trace_id, "t")
            if trace is None:
                trace = self._foreign_codes.get(trace_id)
            traces = self.traces
            rows = [row for row in rows if traces[row] == trace]
        return [Span(self, row) for row in rows]

    def find(self, name: str, **filters: Any) -> Span:
        """The single span with ``name`` (and matching filters: any
        keyword of :meth:`spans`); raises ``LookupError`` when there is no
        match or more than one."""
        matches = self.spans(name=name, **filters)
        if len(matches) != 1:
            raise LookupError(
                f"expected exactly one span {name!r}, found {len(matches)}"
            )
        return matches[0]

    def trace(self, trace_id: str) -> list[Span]:
        """Every span of one trace, in start order."""
        return self.spans(trace_id=trace_id)

    def children(self, span: Span) -> list[Span]:
        """Direct children of a span."""
        if span._log is self:
            parent = span._row
        else:
            number = _number(span.span_id, "s")
            if number is None:
                return []
            parent = number - 1
        return [
            Span(self, row)
            for row, of in enumerate(self.parents[:self._rows])
            if of == parent
        ]

    def open_spans(self) -> list[Span]:
        """Spans begun but never finished (still ``in_progress``).

        A non-empty result at simulation end means the run stopped inside
        traced work (a hung call, an abandoned handler, a stopped clock):
        experiments warn about these and the health report lists them
        rather than silently exporting ``end: null``.
        """
        return [
            Span(self, row)
            for row, end in enumerate(self.ends[:self._rows])
            if end != end
        ]

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[Span]:
        return (Span(self, row) for row in range(self._rows))

    # -- export ----------------------------------------------------------
    def record(self, row: int) -> dict:
        """Row ``row`` as a JSON-serializable dict.

        JSON-native attr values (str/int/float/bool/None) pass through
        unchanged — ``attrs={"streams": 3}`` exports the integer 3, not
        the string ``"3"``; only other types fall back to ``str()``.
        """
        name, kind, host, service = self.keys[self.key_ids[row]]
        start = self.starts[row]
        end: Optional[float] = self.ends[row]
        duration = None if end != end else end - start
        attrs = self.attrs.get(row)
        return {
            "trace_id": self.trace_id_of(row),
            "span_id": f"s{row + 1:06d}",
            "parent_id": self.parent_id_of(row),
            "name": name,
            "kind": kind,
            "host": host,
            "service": service,
            "start": start,
            "end": None if duration is None else end,
            "duration": duration,
            "status": self.statuses[self.status_codes[row]],
            "detail": self.details.get(row, ""),
            "attrs": {} if attrs is None else json_attrs(attrs),
        }

    def to_records(self) -> list[dict]:
        """All spans as JSON-serializable dicts (start order)."""
        return [self.record(row) for row in range(self._rows)]

    def to_json(self, indent: int = 2) -> str:
        """The whole log as a JSON document."""
        return json.dumps({"spans": self.to_records()}, indent=indent)

    def dump_json(self, path: str, indent: int = 2) -> None:
        """Write :meth:`to_json` to a file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=indent))
            fh.write("\n")
