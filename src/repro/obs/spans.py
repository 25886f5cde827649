"""Span tracing: one message's lifetime as a causal tree.

Spans answer both "did X happen before Y" and "where did the time go".
A :class:`Span` is an interval with a component, a parent, and arbitrary
attributes; spans that belong to one network message carry its
``message_id`` and are automatically parented to the message's *root* span
(opened by the sending driver, closed at delivery), so the send-PIO /
NI-inject / link / crossbar / drain stages of a single message form one
tree even though five independent simulation processes record them.

:func:`SpanTracer.breakdown` turns a message tree into a critical-path
attribution: the root interval is swept left to right and every instant is
charged to the *latest-started* stage covering it (the stage furthest down
the pipeline — exactly the resource the message was waiting on), with
uncovered gaps reported as ``(untracked)``.  The segment durations sum to
the root duration by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Span:
    """One timed interval in a trace.

    ``end_ns`` is None while the span is open; ``parent_id`` links the
    causal tree and ``message_id`` groups spans of one network message.
    """

    span_id: int
    name: str
    component: str
    start_ns: float
    category: str = "span"
    end_ns: Optional[float] = None
    parent_id: Optional[int] = None
    message_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            raise ValueError(f"span {self.span_id} ({self.name}) still open")
        return self.end_ns - self.start_ns

    def __str__(self) -> str:
        end = f"{self.end_ns:.1f}" if self.end_ns is not None else "..."
        return (f"[{self.start_ns:12.1f} -> {end:>12}] {self.component}: "
                f"{self.name}")


class SpanTracer:
    """Collects spans; bounded at ``limit``, counting what it drops."""

    def __init__(self, limit: int = 1_000_000):
        self.limit = limit
        self.spans: Dict[int, Span] = {}
        self.dropped = 0
        self._ids = itertools.count(1)
        self._open_roots: Dict[int, int] = {}    # message_id -> open root span
        self._root_by_message: Dict[int, int] = {}

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, component: str, start_ns: float, *,
              category: str = "span", message: Optional[int] = None,
              parent: Optional[int] = None, root: bool = False,
              **attrs: Any) -> int:
        """Open a span; returns its id (0 when dropped — safe to end()).

        ``root=True`` registers the span as the root of ``message``'s tree;
        later spans carrying the same ``message`` are parented to it
        automatically unless they name an explicit ``parent``.
        """
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return 0
        span_id = next(self._ids)
        if message is not None:
            if root:
                self._open_roots[message] = span_id
                self._root_by_message[message] = span_id
            elif parent is None:
                parent = self._open_roots.get(message)
        span = Span(span_id=span_id, name=name, component=component,
                    start_ns=start_ns, category=category, parent_id=parent,
                    message_id=message, attrs=dict(attrs))
        self.spans[span_id] = span
        return span_id

    def end(self, span_id: int, end_ns: float, **attrs: Any) -> None:
        """Close a span (ignores the 0 id that a dropped begin returned)."""
        span = self.spans.get(span_id)
        if span is None:
            return
        span.end_ns = end_ns
        if attrs:
            span.attrs.update(attrs)

    def end_message(self, message_id: int, end_ns: float,
                    **attrs: Any) -> None:
        """Close ``message_id``'s root span (delivery observed)."""
        span_id = self._open_roots.pop(message_id, None)
        if span_id is not None:
            self.end(span_id, end_ns, **attrs)

    # -- fan-out transport ----------------------------------------------------

    def encode(self) -> Dict[str, Any]:
        """The tracer as a picklable payload for cross-process transport.

        Spans ship in span-id order (their recording order) so a later
        :meth:`merge_point` reallocates ids deterministically; the
        message-root table and drop count ride along.
        """
        spans = [(s.span_id, s.name, s.component, s.start_ns, s.category,
                  s.end_ns, s.parent_id, s.message_id, dict(s.attrs))
                 for _, s in sorted(self.spans.items())]
        return {"spans": spans,
                "roots": dict(self._root_by_message),
                "dropped": self.dropped}

    def max_message_id(self) -> int:
        """Largest message id any span references (0 when none)."""
        ids = [s.message_id for s in self.spans.values()
               if s.message_id is not None]
        ids.extend(self._root_by_message)
        return max(ids, default=0)

    def merge_point(self, payload: Dict[str, Any],
                    message_offset: int = 0) -> int:
        """Fold one captured sweep point's spans into this tracer.

        Span ids are reallocated from this tracer's counter in the
        payload's recording order (parent links follow the same map), and
        every message id is shifted by ``message_offset`` so points that
        each counted messages from 1 stay distinct after the merge.
        Returns the largest *shifted* message id, i.e. the offset the next
        point should build on.  Merging the same payloads in the same
        order therefore reproduces identical span ids and message ids no
        matter which worker produced each payload — the ``--jobs N``
        byte-identity property.
        """
        idmap: Dict[int, int] = {}
        top = message_offset
        for (old_id, name, component, start_ns, category, end_ns,
             parent_id, message_id, attrs) in payload["spans"]:
            if len(self.spans) >= self.limit:
                self.dropped += 1
                continue
            new_id = next(self._ids)
            idmap[old_id] = new_id
            if message_id is not None:
                message_id += message_offset
                top = max(top, message_id)
            self.spans[new_id] = Span(
                span_id=new_id, name=name, component=component,
                start_ns=start_ns, category=category, end_ns=end_ns,
                parent_id=idmap.get(parent_id) if parent_id is not None
                else None,
                message_id=message_id, attrs=dict(attrs))
        for message_id, root_id in sorted(payload["roots"].items()):
            if root_id in idmap:
                shifted = message_id + message_offset
                top = max(top, shifted)
                self._root_by_message[shifted] = idmap[root_id]
        self.dropped += payload.get("dropped", 0)
        return top

    # -- inspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans.values())

    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans.values() if s.finished]

    def message_ids(self) -> List[int]:
        return sorted(self._root_by_message)

    def root_of(self, message_id: int) -> Optional[Span]:
        span_id = self._root_by_message.get(message_id)
        return self.spans.get(span_id) if span_id is not None else None

    def spans_of(self, message_id: int) -> List[Span]:
        return [s for s in self.spans.values() if s.message_id == message_id]

    def children_of(self, span_id: int) -> List[Span]:
        kids = [s for s in self.spans.values() if s.parent_id == span_id]
        kids.sort(key=lambda s: (s.start_ns, s.span_id))
        return kids

    def tree(self, message_id: int) -> "SpanNode":
        """The message's spans as one rooted tree (raises if no root)."""
        root = self.root_of(message_id)
        if root is None:
            raise KeyError(f"no root span recorded for message {message_id}")
        return self._node(root)

    def _node(self, span: Span) -> "SpanNode":
        return SpanNode(span, [self._node(c)
                               for c in self.children_of(span.span_id)])

    # -- critical path ---------------------------------------------------------------

    def breakdown(self, message_id: int) -> List[Tuple[str, float]]:
        """Critical-path attribution of one message's root interval.

        Returns ordered ``(stage, duration_ns)`` segments whose durations
        sum exactly to the root span's duration; ``stage`` is
        ``component/name`` of the covering span, or ``(untracked)`` for
        gaps no stage accounts for.
        """
        root = self.root_of(message_id)
        if root is None or not root.finished:
            raise KeyError(f"message {message_id} has no finished root span")
        stages = [s for s in self.spans_of(message_id)
                  if s.finished and s.span_id != root.span_id]
        cuts = {root.start_ns, root.end_ns}
        for s in stages:
            cuts.add(min(max(s.start_ns, root.start_ns), root.end_ns))
            cuts.add(min(max(s.end_ns, root.start_ns), root.end_ns))
        edges = sorted(cuts)

        segments: List[Tuple[str, float]] = []
        for left, right in zip(edges, edges[1:]):
            if right <= left:
                continue
            covering = [s for s in stages
                        if s.start_ns <= left and s.end_ns >= right]
            if covering:
                # Latest-started stage = furthest down the pipeline.
                owner = max(covering, key=lambda s: (s.start_ns, s.span_id))
                label = f"{owner.component}/{owner.name}"
            else:
                label = "(untracked)"
            if segments and segments[-1][0] == label:
                segments[-1] = (label, segments[-1][1] + (right - left))
            else:
                segments.append((label, right - left))
        return segments

    def breakdown_totals(self, message_id: int) -> Dict[str, float]:
        """Per-stage totals of :meth:`breakdown` (order-insensitive)."""
        totals: Dict[str, float] = {}
        for stage, dur in self.breakdown(message_id):
            totals[stage] = totals.get(stage, 0.0) + dur
        return totals


@dataclass
class SpanNode:
    """One node of a rendered span tree."""

    span: Span
    children: List["SpanNode"]

    def depth(self) -> int:
        return 1 + max((c.depth() for c in self.children), default=0)

    def count(self) -> int:
        return 1 + sum(c.count() for c in self.children)

    def render(self, indent: int = 0) -> str:
        lines = [" " * indent + str(self.span)]
        for child in self.children:
            lines.append(child.render(indent + 2))
        return "\n".join(lines)


class NullSpanTracer(SpanTracer):
    """Disabled tracer: begin/end are no-ops (call sites also guard)."""

    def begin(self, name, component, start_ns, **kwargs) -> int:
        return 0

    def end(self, span_id, end_ns, **attrs) -> None:
        pass

    def end_message(self, message_id, end_ns, **attrs) -> None:
        pass


NULL_SPAN_TRACER = NullSpanTracer(limit=0)
