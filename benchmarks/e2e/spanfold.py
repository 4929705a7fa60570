"""Self-time fold of span trees into seconds per layer.

A span's *self time* is its duration minus the part of that interval its
children cover.  Every instant of a root's interval is charged to exactly
one span, so the slices of one tree always sum to the root's duration:

* a child that outlives its parent is clipped to it;
* where children overlap each other, the overlap belongs to the one that
  started first (the later one is charged from where the earlier ended);
* spans that never closed (``end is None``) carry no interval: they and
  everything below them are skipped and counted, and their time stays
  with the parent that was waiting on them.

Spans are read by attribute (``trace_id``, ``span_id``, ``parent_id``,
``name``, ``start``, ``end``), so a :class:`repro.services.tracelog.Span`
and a hand-built namespace fold alike.  Span ids are only unique within
a trace: the child index is keyed by ``(trace_id, span_id)`` so two
traces never mix.
"""

from __future__ import annotations

from typing import Callable, Iterable

__all__ = ["child_index", "fold_tree"]


def child_index(spans: Iterable) -> dict[tuple[str, str], list]:
    """``(trace_id, parent span_id) -> children`` in input order."""
    index: dict[tuple[str, str], list] = {}
    for span in spans:
        if span.parent_id is not None:
            index.setdefault((span.trace_id, span.parent_id), []).append(span)
    return index


def fold_tree(
    root,
    children: dict[tuple[str, str], list],
    layer_of: Callable[[str], str],
) -> tuple[dict[str, float], int]:
    """Fold the tree under the closed span ``root`` into
    ``({layer: self seconds}, open spans skipped)``.

    The returned slices sum to ``root.end - root.start``.
    """
    if root.end is None:
        raise ValueError("cannot fold an open root span")
    slices: dict[str, float] = {}
    skipped = 0
    stack = [(root, root.start, root.end)]
    while stack:
        span, lo, hi = stack.pop()
        closed = []
        for child in children.get((span.trace_id, span.span_id), ()):
            if child.end is None:
                skipped += 1
            else:
                closed.append(child)
        covered = 0.0
        reach = lo      # the span's interval is charged up to here
        for child in sorted(closed, key=lambda c: c.start):
            c_lo, c_hi = max(child.start, reach), min(child.end, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
                stack.append((child, c_lo, c_hi))
        layer = layer_of(span.name)
        slices[layer] = slices.get(layer, 0.0) + (hi - lo) - covered
    return slices, skipped
