"""Tests for the trace-event and metrics exporters."""

import csv
import io
import json

import pytest

from repro.obs.export import (
    metrics_csv,
    metrics_json,
    trace_event_json,
    validate_trace_events,
    validate_trace_file,
    write_metrics_json,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer


def _traced_message() -> SpanTracer:
    tracer = SpanTracer()
    tracer.begin("message", "drv", 0.0, message=1, root=True)
    child = tracer.begin("link.transmit", "link", 100.0, message=1,
                         category="network")
    tracer.end(child, 350.0)
    tracer.end_message(1, 500.0)
    return tracer


class TestTraceEventJson:
    def test_structure(self):
        payload = trace_event_json(_traced_message())
        events = payload["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "process_name" for e in metas)
        thread_names = {e["args"]["name"] for e in metas
                        if e["name"] == "thread_name"}
        assert thread_names == {"drv", "link"}
        assert len(xs) == 2
        assert payload["otherData"]["droppedSpans"] == 0

    def test_ns_to_us_conversion(self):
        payload = trace_event_json(_traced_message())
        link = next(e for e in payload["traceEvents"]
                    if e.get("name") == "link.transmit")
        assert link["ts"] == pytest.approx(0.1)
        assert link["dur"] == pytest.approx(0.25)

    def test_causal_ids_in_args(self):
        payload = trace_event_json(_traced_message())
        link = next(e for e in payload["traceEvents"]
                    if e.get("name") == "link.transmit")
        assert link["args"]["message_id"] == 1
        assert link["args"]["parent_id"] == 1

    def test_open_spans_are_omitted(self):
        tracer = SpanTracer()
        tracer.begin("open", "c", 0.0)
        done = tracer.begin("done", "c", 0.0)
        tracer.end(done, 1.0)
        xs = [e for e in trace_event_json(tracer)["traceEvents"]
              if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["done"]

    def test_dropped_spans_reported(self):
        tracer = SpanTracer(limit=1)
        sid = tracer.begin("a", "c", 0.0)
        tracer.begin("b", "c", 0.0)
        tracer.end(sid, 1.0)
        payload = trace_event_json(tracer)
        assert payload["otherData"]["droppedSpans"] == 1


class TestValidation:
    def test_roundtrip_validates(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_trace(path, _traced_message())
        assert validate_trace_file(path) == 2

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_trace_events([])

    def test_rejects_missing_events_array(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_trace_events({"foo": 1})

    def test_rejects_event_without_phase(self):
        with pytest.raises(ValueError, match="lacks 'ph'"):
            validate_trace_events(
                {"traceEvents": [{"name": "x", "pid": 1, "tid": 1}]})

    def test_rejects_x_event_without_dur(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0}]}
        with pytest.raises(ValueError, match="dur"):
            validate_trace_events(bad)

    def test_rejects_negative_dur(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
             "dur": -1.0}]}
        with pytest.raises(ValueError, match="nonnegative"):
            validate_trace_events(bad)

    def test_rejects_unknown_phase(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "B", "pid": 1, "tid": 1, "ts": 0.0}]}
        with pytest.raises(ValueError, match="phase"):
            validate_trace_events(bad)

    def test_rejects_trace_with_no_durations(self):
        meta_only = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "p"}}]}
        with pytest.raises(ValueError, match="no duration"):
            validate_trace_events(meta_only)


class TestMetricsDumps:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.incr("cache.miss", level="l1", amount=7)
        for v in (10.0, 20.0, 30.0):
            reg.observe("lat_ns", v)
        return reg

    def test_json_rows(self):
        rows = json.loads(metrics_json(self._registry()))
        by_metric = {r["metric"]: r for r in rows}
        assert by_metric["cache.miss"]["value"] == 7
        assert by_metric["cache.miss"]["level"] == "l1"
        assert by_metric["lat_ns"]["count"] == 3
        assert by_metric["lat_ns"]["mean"] == pytest.approx(20.0)

    def test_csv_has_header_and_rows(self):
        text = metrics_csv(self._registry())
        lines = text.strip().splitlines()
        assert "metric" in lines[0]
        assert len(lines) == 3  # header + 2 series

    def test_write_json_file(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_metrics_json(path, self._registry())
        assert len(json.loads(open(path).read())) == 2

    def test_json_round_trips_the_rows(self):
        registry = self._registry()
        assert json.loads(metrics_json(registry)) == registry.rows()

    def test_csv_columns_are_the_sorted_union(self):
        registry = self._registry()
        reader = csv.DictReader(io.StringIO(metrics_csv(registry)))
        assert len(list(reader)) == 2
        assert reader.fieldnames == sorted(
            {key for row in registry.rows() for key in row})
        # A counter row has "value", a histogram row "count": both kept.
        assert {"level", "value", "count", "p999"} <= set(reader.fieldnames)

    def test_empty_csv_rejected(self):
        with pytest.raises(ValueError):
            metrics_csv(MetricsRegistry())
