"""Structured, sim-time-stamped request tracing.

One :class:`TraceLog` per simulation collects :class:`Span` records from
every service endpoint, client, and transfer that runs under it.  Spans
form trees: each span knows its trace id and its causal parent, so a
single ``replicate`` request can be followed across the RPC hop, the
GridFTP control conversation, the data transfer, and the catalog update.

The log is queryable in tests (:meth:`spans`, :meth:`trace`,
:meth:`find`) and dumpable as JSON from experiments (:meth:`to_json`,
:meth:`dump_json`).  All ids come from per-instance counters, so repeated
simulations in one process produce identical traces.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Iterable, Optional

from repro.services.context import RequestContext
from repro.simulation.kernel import Simulator

__all__ = ["Span", "TraceLog"]


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "kind", "host",
        "service", "start", "end", "status", "detail", "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,      # e.g. "gdmp:request_stage", "gridftp:RETR"
        kind: str,      # "client" | "server" | "local" | "transfer"
        host: str,
        service: str,
        start: float,
        end: Optional[float] = None,
        status: str = "ok",     # "ok" | "error" | "timeout" | "in_progress"
        detail: str = "",
        attrs: Optional[dict] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.host = host
        self.service = service
        self.start = start
        self.end = end
        self.status = status
        self.detail = detail
        self.attrs = {} if attrs is None else attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} {self.span_id} of {self.trace_id} "
            f"{self.status}>"
        )

    @property
    def context(self) -> RequestContext:
        """The context naming this span (pass to children/envelopes)."""
        return RequestContext(self.trace_id, self.span_id, self.parent_id)

    def context_until(self, deadline: Optional[float]) -> RequestContext:
        """:attr:`context` carrying ``deadline`` — the same value as
        ``span.context.with_deadline(deadline)``, built once."""
        return RequestContext(
            self.trace_id, self.span_id, self.parent_id, deadline
        )

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_record(self) -> dict:
        """JSON-serializable form of this span.

        JSON-native attr values (str/int/float/bool/None) pass through
        unchanged — ``attrs={"streams": 3}`` exports the integer 3, not
        the string ``"3"``; only other types fall back to ``str()``.
        """
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "host": self.host,
            "service": self.service,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "detail": self.detail,
            "attrs": {
                k: (v if isinstance(v, (str, int, float, bool)) or v is None
                    else str(v))
                for k, v in self.attrs.items()
            },
        }


class TraceLog:
    """Per-simulation span collector and trace-id allocator."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._spans: list[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

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
        span_id = f"s{next(self._span_ids):06d}"
        if parent is None:
            trace_id = f"t{next(self._trace_ids):06d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            trace_id, span_id, parent_id, name, kind, host, service,
            self.sim.now, None, "in_progress", "", attrs,
        )
        self._spans.append(span)
        return span

    def finish(
        self, span: Span, status: str = "ok", detail: str = ""
    ) -> Span:
        """Close a span with an outcome."""
        span.end = self.sim.now
        span.status = status
        span.detail = detail
        return span

    # -- querying --------------------------------------------------------
    def spans(
        self,
        trace_id: Optional[str] = None,
        name: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> list[Span]:
        """Spans filtered by trace id, name, and/or kind (start order)."""
        found = self._spans
        if trace_id is not None:
            found = [s for s in found if s.trace_id == trace_id]
        if name is not None:
            found = [s for s in found if s.name == name]
        if kind is not None:
            found = [s for s in found if s.kind == kind]
        return list(found)

    def find(self, name: str, **filters: Any) -> Span:
        """The single span with ``name`` (and matching filters); raises
        ``LookupError`` when there is no match or more than one."""
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
        return [s for s in self._spans if s.parent_id == span.span_id]

    def open_spans(self) -> list[Span]:
        """Spans begun but never finished (still ``in_progress``).

        A non-empty result at simulation end means the run stopped inside
        traced work (a hung call, an abandoned handler, a stopped clock):
        experiments warn about these and the health report lists them
        rather than silently exporting ``end: null``.
        """
        return [s for s in self._spans if s.end is None]

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterable[Span]:
        return iter(self._spans)

    # -- export ----------------------------------------------------------
    def to_records(self) -> list[dict]:
        """All spans as JSON-serializable dicts (start order)."""
        return [span.to_record() for span in self._spans]

    def to_json(self, indent: int = 2) -> str:
        """The whole log as a JSON document."""
        return json.dumps({"spans": self.to_records()}, indent=indent)

    def dump_json(self, path: str, indent: int = 2) -> None:
        """Write :meth:`to_json` to a file."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=indent))
            fh.write("\n")
