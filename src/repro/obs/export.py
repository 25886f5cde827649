"""Exporters: Chrome trace-event JSON (Perfetto) and metrics dumps.

``trace_event_json`` renders a :class:`~repro.obs.spans.SpanTracer` as the
Chrome trace-event format (the JSON object form, ``{"traceEvents": [...]}``)
that both Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
directly.  Each simulated component becomes a named thread; spans become
complete ("X") events whose nesting Perfetto derives from their timing.
Simulation nanoseconds map to trace microseconds (the format's unit), so
one displayed microsecond is one simulated microsecond.

Metrics dumps are the registry's flat rows as a JSON array or as CSV
(the sorted union of the rows' columns).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List

from repro.atomicio import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer

TRACE_PROCESS_NAME = "repro simulation"
_PID = 1


def trace_event_json(tracer: SpanTracer) -> Dict[str, Any]:
    """The tracer's finished spans as a Chrome trace-event object."""
    components: Dict[str, int] = {}
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": TRACE_PROCESS_NAME},
    }]

    def tid_of(component: str) -> int:
        tid = components.get(component)
        if tid is None:
            tid = len(components) + 1
            components[component] = tid
            events.append({
                "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
                "args": {"name": component},
            })
        return tid

    for span in sorted(tracer.finished_spans(),
                       key=lambda s: (s.start_ns, s.span_id)):
        args: Dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.message_id is not None:
            args["message_id"] = span.message_id
        args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start_ns / 1e3,
            "dur": span.duration_ns / 1e3,
            "pid": _PID,
            "tid": tid_of(span.component),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": {"droppedSpans": tracer.dropped}}


def write_trace(path: str, tracer: SpanTracer, partial: bool = False) -> None:
    """Atomically write the trace; ``partial`` marks an interrupted run's
    flush in ``otherData`` (the envelope stays schema-valid)."""
    payload = trace_event_json(tracer)
    if partial:
        payload["otherData"]["partial"] = True
    atomic_write_text(path, json.dumps(payload, indent=1))


def validate_trace_events(payload: Any) -> int:
    """Check ``payload`` against the trace-event schema; returns the number
    of duration ("X") events.  Raises :class:`ValueError` on violations.

    This is the CI smoke check: it enforces the envelope shape plus the
    per-event fields Perfetto requires to render anything at all.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"trace must be a JSON object, got {type(payload).__name__}")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace object lacks a traceEvents array")
    durations = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ValueError(f"traceEvents[{i}] lacks {field!r}")
        phase = event["ph"]
        if phase == "X":
            if not isinstance(event.get("ts"), (int, float)):
                raise ValueError(f"traceEvents[{i}]: X event needs numeric ts")
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{i}]: X event needs nonnegative dur, got {dur!r}")
            durations += 1
        elif phase == "M":
            if "args" not in event:
                raise ValueError(f"traceEvents[{i}]: metadata event needs args")
        else:
            raise ValueError(
                f"traceEvents[{i}]: unexpected phase {phase!r} "
                "(this exporter only emits X and M)")
    if durations == 0:
        raise ValueError("trace contains no duration events")
    return durations


def validate_trace_file(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        return validate_trace_events(json.load(handle))


# -- metrics dumps ---------------------------------------------------------------


def _plain_rows(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """The registry's rows, keeping only JSON/CSV scalar cells."""
    return [{key: value for key, value in row.items()
             if isinstance(value, (int, float, str, bool, type(None)))}
            for row in registry.rows()]


def metrics_json(registry: MetricsRegistry) -> str:
    return json.dumps(_plain_rows(registry), indent=2, sort_keys=True)


def metrics_csv(registry: MetricsRegistry) -> str:
    """The rows as CSV under the sorted union of their columns; an empty
    registry has no columns and is rejected."""
    rows = _plain_rows(registry)
    if not rows:
        raise ValueError("nothing to export")
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=sorted({key for row in rows for key in row}))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def write_metrics_json(path: str, registry: MetricsRegistry) -> None:
    atomic_write_text(path, metrics_json(registry))


def write_metrics_csv(path: str, registry: MetricsRegistry) -> None:
    atomic_write_text(path, metrics_csv(registry))


# -- timeline dumps --------------------------------------------------------------


def timeline_json(timeline) -> str:
    return json.dumps(timeline.to_dict(), indent=1, sort_keys=True)


def write_timeline_json(path: str, timeline, partial: bool = False) -> None:
    payload = timeline.to_dict()
    if partial:
        payload["partial"] = True
    atomic_write_text(
        path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
