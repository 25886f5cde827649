"""The HTML dashboard: payload assembly, rendering, embedded-JSON
extraction and schema validation (what ``validate_report_file`` runs)."""

import json

import pytest

from repro.obs.health import HealthSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    REPORT_SCHEMA,
    extract_report_data,
    render_html,
    report_data,
    validate_report_data,
    validate_report_file,
    write_report,
)
from repro.obs.timeline import Timeline


def _timeline() -> Timeline:
    tl = Timeline(sample_interval_ns=10.0)
    for t in range(20):
        tl.record("link.util", t * 10.0, 0.04 * t, link="a")
        tl.record("xbar.in_fifo_bytes", t * 10.0, float(t % 8),
                  xbar="plane0", port="0")
        tl.record("xbar.in_fifo_bytes", t * 10.0, float(t % 3),
                  xbar="plane0", port="1")
    return tl


def _metrics() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("sent", node="0").incr(5)
    reg.histogram("lat").observe(3.0)
    return reg


def _data(**kwargs):
    return report_data("test run", timeline=_timeline(),
                       metrics=_metrics(), **kwargs)


class TestReportData:
    def test_schema_and_sections(self):
        data = _data()
        assert data["schema"] == REPORT_SCHEMA
        assert data["title"] == "test run"
        names = {s["name"] for s in data["series"]}
        assert "link.util" in names
        heatmap = data["heatmap"]
        assert {r["row"] for r in heatmap["rows"]} \
            == {"plane0:0", "plane0:1"}

    def test_payload_is_deterministic(self):
        assert json.dumps(_data(), sort_keys=True) \
            == json.dumps(_data(), sort_keys=True)

    def test_health_verdict_included(self):
        spec = HealthSpec.from_dict({"rules": [
            {"series": "link.util", "stat": "max", "op": "<", "value": 1.0},
        ]})
        report = spec.evaluate(timeline=_timeline())
        data = _data(health=report)
        assert data["health"]["ok"] is True


class TestRenderAndValidate:
    def test_html_is_self_contained(self):
        page = render_html(_data())
        assert page.lstrip().lower().startswith("<!doctype html>")
        assert "<svg" in page  # inline sparklines
        for marker in ("http://", "https://", "<img", "src="):
            assert marker not in page

    def test_embedded_json_roundtrips(self, tmp_path):
        data = _data()
        path = tmp_path / "r.html"
        write_report(str(path), data)
        assert extract_report_data(path.read_text()) == data
        assert validate_report_file(str(path)) == len(data["series"])

    def test_script_breakout_is_escaped(self, tmp_path):
        data = _data(extra={"note": "</script><script>alert(1)"})
        page = render_html(data)
        assert "</script><script>alert(1)" not in page
        assert extract_report_data(page) == data

    def test_validate_rejects_wrong_schema(self):
        data = _data()
        data["schema"] = "repro.report/0"
        with pytest.raises(ValueError):
            validate_report_data(data)

    def test_validate_rejects_malformed_series(self):
        data = _data()
        del data["series"][0]["points"]
        with pytest.raises(ValueError):
            validate_report_data(data)
