"""Request context: the trace identity carried by every control message.

A :class:`RequestContext` names one *span* (a timed unit of work) inside
one *trace* (the causal chain started by a top-level operation such as a
``replicate`` call).  The service bus attaches the caller's context to
every :class:`~repro.netsim.channels.Envelope`, and every endpoint opens a
child span for the work it does on behalf of the caller, so a single trace
id spans the whole GDMP server -> GridFTP control channel -> catalog hop
chain and is stamped onto the network flows the request spawns.

The context also carries an optional absolute ``deadline`` (simulation
time).  Client timeouts set it; the server-side deadline middleware sheds
requests that arrive already expired, and nested calls inherit the
remaining budget.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["RequestContext"]


class RequestContext:
    """One span's identity within a trace, plus propagated call metadata.

    A value: two contexts naming the same span with the same deadline are
    equal and hash alike.  Nothing changes one after it is built —
    :meth:`child` and :meth:`with_deadline` build new ones.

    A context a trace log's span made (``span.context``) holds that view
    in ``span`` and no id strings: its ids are read from the view when
    asked, so no id is formatted on the request path, and the log finds
    a child's parent row through it.  ``span`` is not part of the value;
    a context built by hand has none."""

    __slots__ = ("_trace_id", "_span_id", "_parent_id", "deadline", "span")

    def __init__(
        self,
        trace_id: Optional[str],
        span_id: Optional[str],
        parent_id: Optional[str] = None,
        deadline: Optional[float] = None,
        span: Any = None,
    ):
        self._trace_id = trace_id
        self._span_id = span_id
        self._parent_id = parent_id
        self.deadline = deadline
        self.span = span

    @property
    def trace_id(self) -> str:
        return self._trace_id if self.span is None else self.span.trace_id

    @property
    def span_id(self) -> str:
        return self._span_id if self.span is None else self.span.span_id

    @property
    def parent_id(self) -> Optional[str]:
        return self._parent_id if self.span is None else self.span.parent_id

    def _key(self) -> tuple:
        return (self.trace_id, self.span_id, self.parent_id, self.deadline)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RequestContext:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"RequestContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, parent_id={self.parent_id!r}, "
            f"deadline={self.deadline!r})"
        )

    def child(self, span_id: str) -> "RequestContext":
        """A context for a child span: same trace, this span as parent."""
        return RequestContext(
            self.trace_id, span_id, self.span_id, self.deadline
        )

    def with_deadline(self, deadline: Optional[float]) -> "RequestContext":
        """The same span identity with a (tightened) deadline attached.
        ``None`` keeps the existing deadline — a deadline can only ever
        shrink as it propagates down a call chain."""
        if deadline is None:
            return self
        if self.deadline is not None:
            deadline = min(deadline, self.deadline)
        return RequestContext(
            self._trace_id, self._span_id, self._parent_id, deadline,
            self.span,
        )
