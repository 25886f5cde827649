"""End-to-end tests of the observability CLI surface."""

import json
import os

import pytest

from repro import cli
from repro.cli import main
from repro.obs.export import validate_trace_file
from repro.obs.report import validate_report_file

HEALTH_SPECS = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", "health_specs")


class TestTraceCommand:
    def test_trace_fig9_writes_valid_perfetto_file(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        assert main(["trace", "fig9", "--out", out,
                     "--sizes", "8", "64"]) == 0
        assert validate_trace_file(out) > 0
        payload = json.load(open(out))
        x_names = {e["name"] for e in payload["traceEvents"]
                   if e["ph"] == "X"}
        # Acceptance: at least four distinct stages of the message path.
        assert {"message", "driver.send", "ni.inject", "link.transmit",
                "xbar.arbitrate", "driver.drain"} <= x_names
        stdout = capsys.readouterr().out
        assert "Critical path" in stdout
        assert "driver.drain" in stdout

    def test_trace_leaves_instrumentation_disabled_after(self, tmp_path):
        from repro.obs import OBS
        out = str(tmp_path / "t.json")
        main(["trace", "fig9", "--out", out, "--sizes", "8"])
        assert OBS.enabled is False


class TestMetricsCommand:
    def test_metrics_fig9_prints_labeled_series(self, capsys):
        assert main(["metrics", "fig9", "--sizes", "8", "--top", "0"]) == 0
        stdout = capsys.readouterr().out
        assert "driver.sent{" in stdout
        assert "system=PowerMANNA" in stdout

    def test_metrics_out_json(self, tmp_path):
        out = str(tmp_path / "m.json")
        main(["metrics", "fig9", "--sizes", "8", "--out", out])
        rows = json.load(open(out))
        assert rows, "empty metrics dump"
        metrics = {r["metric"] for r in rows}
        assert "driver.sent" in metrics
        assert "xbar.connections" in metrics

    def test_metrics_out_csv(self, tmp_path):
        out = str(tmp_path / "m.csv")
        main(["metrics", "fig9", "--sizes", "8", "--out", out, "--csv"])
        lines = open(out).read().strip().splitlines()
        assert "metric" in lines[0]
        assert len(lines) > 1

    def test_metrics_fig7_reports_cache_and_tlb_counters(self, capsys):
        assert main(["metrics", "fig7", "--sizes", "8",
                     "--scale", "16", "--top", "0"]) == 0
        stdout = capsys.readouterr().out
        assert "cache.miss{" in stdout
        assert "tlb." in stdout
        assert "machine=powermanna" in stdout


class TestTraceDropAccounting:
    def test_summary_line_reports_drops(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["trace", "fig9", "--out", out, "--sizes", "8",
                     "--span-limit", "50"]) == 0
        captured = capsys.readouterr()
        assert "dropped (span limit 50)" in captured.out
        assert "raise --span-limit" in captured.err

    def test_summary_line_when_nothing_dropped(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["trace", "fig9", "--out", out, "--sizes", "8"]) == 0
        captured = capsys.readouterr()
        assert "0 dropped" in captured.out
        assert "raise --span-limit" not in captured.err


class TestHistogramP999:
    """The metrics CLI's histogram rendering.  No figure command records
    a histogram, so a stand-in ``fig7`` observes one."""

    @pytest.fixture(autouse=True)
    def fig7_observing_a_histogram(self, monkeypatch):
        from repro.obs import OBS

        def fig7(args):
            for value in range(1, 2001):
                OBS.metrics.observe("test.latency_ns", float(value))

        monkeypatch.setitem(cli._COMMANDS, "fig7", fig7)

    def test_metrics_cli_prints_p999(self, capsys):
        assert main(["metrics", "fig7", "--top", "0"]) == 0
        assert "p999=" in capsys.readouterr().out

    def test_metrics_json_rows_carry_p999_and_count(self, tmp_path):
        out = str(tmp_path / "m.json")
        main(["metrics", "fig7", "--out", out])
        hist_rows = [r for r in json.load(open(out))
                     if r["kind"] == "histogram"]
        assert hist_rows
        for row in hist_rows:
            assert "p999" in row
            assert row["count"] == 2000
            assert row["p99"] <= row["p999"] <= row["max"]


class TestWrapperParsing:
    """A wrapper parses the experiment's arguments with the experiment's
    own subparser: every option of ``repro <experiment>`` is accepted,
    any other is rejected."""

    def test_metrics_takes_the_figures_fault_options(self, capsys):
        assert main(["metrics", "fig9", "--sizes", "8", "--error-rate",
                     "0.2", "--top", "0", "--no-cache"]) == 0
        assert "faults.injected{" in capsys.readouterr().out

    def test_trace_takes_the_figures_topology(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["trace", "fig9", "--sizes", "8", "--topology",
                     "manna", "--out", out, "--no-cache"]) == 0
        assert validate_trace_file(out) > 0
        assert "xcvr.relay" in capsys.readouterr().out

    def test_trace_rejects_an_option_the_figure_lacks(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "fig9", "--sizes", "8", "--subintervals", "7"])
        assert exc.value.code == 2
        assert "--subintervals" in capsys.readouterr().err

    def test_experiment_flags_join_the_wrapper_session(self, tmp_path,
                                                       capsys):
        timeline = str(tmp_path / "tl.json")
        assert main(["metrics", "fig9", "--sizes", "8", "--timeline-out",
                     timeline, "--no-cache"]) == 0
        assert json.load(open(timeline))["series"]
        assert "driver.sent{" in capsys.readouterr().out

    def test_an_artifact_asked_for_twice_is_rejected(self, tmp_path,
                                                     capsys):
        out = str(tmp_path / "t.json")
        assert main(["trace", "fig9", "--sizes", "8", "--out", out,
                     "--trace", str(tmp_path / "other.json")]) == 2
        assert "--trace" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestSamplingFlags:
    def test_fig9_timeline_out(self, tmp_path, capsys):
        out = str(tmp_path / "tl.json")
        assert main(["fig9", "--sizes", "8", "--timeline-out", out,
                     "--no-cache"]) == 0
        payload = json.load(open(out))
        names = {s["name"] for s in payload["series"]}
        assert {"link.util", "xbar.in_fifo_bytes", "xbar.out_queue",
                "ni.send_fifo_bytes", "driver.send_backlog",
                "des.pending_events"} <= names
        assert payload["samples_taken"] > 0
        assert "Figure 9" in capsys.readouterr().out

    def test_jobs_4_timeline_is_byte_identical_to_jobs_1(self, tmp_path,
                                                         capsys):
        timeline = str(tmp_path / "tl.json")
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.json")
        cases = ((["--sizes", "8", "64", "--sample-interval", "1000",
                   "--timeline-out", timeline], [timeline]),
                 (["--sizes", "8", "64", "512", "--trace", trace,
                   "--metrics-out", metrics], [trace, metrics]))
        for flags, files in cases:
            runs = []
            for jobs in ("1", "4"):
                assert main(["fig9", "--no-cache", "--jobs", jobs]
                            + flags) == 0
                runs.append((capsys.readouterr().out,
                             [open(path, "rb").read() for path in files]))
            assert runs[0] == runs[1], flags

    @pytest.mark.parametrize("passing, failing, sizes", [
        ({"op": ">"}, {"op": "<"}, ["8"]),
        ("fig9.json", "fig9_strict.json", ["8", "64"]),
    ], ids=["inline", "committed"])
    def test_health_gate_exit_codes(self, passing, failing, sizes,
                                    tmp_path, capsys):
        def spec_path(spec, name):
            if not isinstance(spec, dict):
                return os.path.join(HEALTH_SPECS, spec)
            path = tmp_path / name
            path.write_text(json.dumps({"rules": [
                {"series": "des.pending_events", "stat": "mean",
                 "value": 0.0, **spec}]}))
            return str(path)

        assert main(["fig9", "--sizes", *sizes, "--health",
                     spec_path(passing, "pass.json"), "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "healthy" in out
        # A metric gate the run does not feed would pass vacuously; only
        # the opt-in supervision gates may observe nothing.
        for line in out.splitlines():
            if "(observed missing)" in line:
                assert "supervision." in line, line
        assert main(["fig9", "--sizes", *sizes, "--health",
                     spec_path(failing, "fail.json"), "--no-cache"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_sampling_leaves_instrumentation_disabled_after(self, tmp_path):
        from repro.obs import OBS
        out = str(tmp_path / "tl.json")
        main(["fig9", "--sizes", "8", "--timeline-out", out, "--no-cache"])
        assert OBS.enabled is False
        assert OBS.timeline.enabled is False


class TestReportCommand:
    @pytest.mark.parametrize("sizes", [["8"], ["8", "64"]],
                             ids=["8", "8-64"])
    def test_report_fig9_renders_valid_dashboard(self, sizes, tmp_path,
                                                 capsys):
        out = str(tmp_path / "report.html")
        assert main(["report", "fig9", "--sizes", *sizes, "--out", out,
                     "--no-cache"]) == 0
        assert validate_report_file(out) > 0
        page = open(out).read()
        assert "<svg" in page
        assert "report-data" in page
        assert "http" not in page.split("</style>")[1], \
            "report is not self-contained"
        assert "wrote" in capsys.readouterr().out

    def test_report_health_violation_exits_nonzero(self, tmp_path):
        out = str(tmp_path / "report.html")
        failing = tmp_path / "fail.json"
        failing.write_text(json.dumps({"rules": [
            {"series": "link.util", "stat": "max", "op": "<", "value": 0.0},
        ]}))
        assert main(["report", "fig9", "--sizes", "8", "--out", out,
                     "--health", str(failing), "--no-cache"]) == 1
        # The dashboard is still written, with the failing verdict in it.
        from repro.obs.report import extract_report_data
        data = extract_report_data(open(out).read())
        assert data["health"]["ok"] is False


class TestFigureFlags:
    def test_fig9_trace_and_metrics_flags(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.json")
        assert main(["fig9", "--sizes", "8", "--trace", trace,
                     "--metrics-out", metrics]) == 0
        assert validate_trace_file(trace) > 0
        assert json.load(open(metrics))
        stdout = capsys.readouterr().out
        assert "Figure 9" in stdout  # the figure itself still prints

    def test_fig9_without_flags_records_nothing(self, capsys):
        from repro.obs import OBS
        assert main(["fig9", "--sizes", "8"]) == 0
        assert OBS.enabled is False


def _without_wrote_lines(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("wrote "))


class TestObservedSessions:
    """Every command that takes observation flags opens its session the
    same way: artifacts after the output, the output itself unchanged,
    and partial artifacts flushed when the run is interrupted."""

    CHAOS = ["chaos", "--seed", "11", "--messages", "4",
             "--link-error-rate", "0.05"]
    CAMPAIGN = CHAOS + ["--seeds", "2", "--no-cache"]

    def test_fig7_timeline_out_writes_the_node_artifact(self, tmp_path,
                                                        capsys):
        out = str(tmp_path / "tl.json")
        assert main(["fig7", "--sizes", "8", "--scale", "16",
                     "--timeline-out", out, "--no-cache"]) == 0
        payload = json.load(open(out))
        assert "series" in payload and not payload.get("partial")
        stdout = capsys.readouterr().out
        assert "Figure 7" in stdout
        assert f"wrote {out}" in stdout

    @pytest.mark.parametrize("base", [CHAOS, CAMPAIGN],
                             ids=["single", "campaign"])
    def test_chaos_metrics_out_leaves_stdout_unchanged(self, base, tmp_path,
                                                       capsys):
        assert main(base) == 0
        plain = capsys.readouterr().out
        out = str(tmp_path / "m.json")
        assert main(base + ["--metrics-out", out]) == 0
        observed = capsys.readouterr().out
        assert json.load(open(out)), "empty metrics dump"
        assert f"wrote {out}" in observed
        assert _without_wrote_lines(observed) == _without_wrote_lines(plain)

    def _interrupt_after_work(self, monkeypatch, exc):
        """Make fig9's sweep do its real (observed) work, then stop."""
        real = cli.comm_sweep

        def interrupted(*args, **kwargs):
            real(*args, **kwargs)
            raise exc

        monkeypatch.setattr(cli, "comm_sweep", interrupted)

    def test_interrupt_flushes_partial_artifacts_and_exits_130(
            self, monkeypatch, tmp_path, capsys):
        self._interrupt_after_work(monkeypatch, KeyboardInterrupt())
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.json")
        timeline = str(tmp_path / "tl.json")
        assert main(["fig9", "--sizes", "8", "--no-cache",
                     "--trace", trace, "--metrics-out", metrics,
                     "--timeline-out", timeline]) == 130
        assert validate_trace_file(trace) > 0
        assert json.load(open(trace))["otherData"]["partial"] is True
        assert json.load(open(timeline))["partial"] is True
        assert json.load(open(metrics)), "nothing observed was flushed"
        captured = capsys.readouterr()
        assert "(partial)" in captured.out
        assert "Figure 9" not in captured.out
        assert "interrupted" in captured.err

    @pytest.mark.parametrize("command", ["trace", "metrics", "report"])
    def test_trace_and_metrics_commands_flush_on_interrupt(
            self, monkeypatch, tmp_path, capsys, command):
        """``repro trace``, ``metrics`` and ``report`` open their own
        session; an interrupt must still leave the observed part on disk
        (``report``'s metrics dump here: its dashboard needs the whole
        run)."""
        self._interrupt_after_work(monkeypatch, KeyboardInterrupt())
        out = str(tmp_path / "out.json")
        flag = "--metrics-out" if command == "report" else "--out"
        assert main([command, "fig9", "--sizes", "8", "--no-cache",
                     flag, out]) == 130
        payload = json.load(open(out))
        if command == "trace":
            assert validate_trace_file(out) > 0
            assert payload["otherData"]["partial"] is True
        else:
            assert payload, "nothing observed was flushed"
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.out
        assert "(partial)" in captured.out
        assert "interrupted" in captured.err

    def test_chaos_interrupt_flushes_partial_artifacts(
            self, monkeypatch, tmp_path):
        import repro.faults.chaos as chaos

        real = chaos.run_chaos

        def interrupted(*args, **kwargs):
            real(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(chaos, "run_chaos", interrupted)
        trace = str(tmp_path / "t.json")
        assert main(self.CHAOS + ["--trace", trace]) == 130
        assert json.load(open(trace))["otherData"]["partial"] is True

    def test_sweep_interrupt_keeps_the_resume_hint(self, monkeypatch,
                                                   tmp_path, capsys):
        from repro.parallel.supervise import SweepInterrupted

        journal = str(tmp_path / "fig9.jsonl")
        self._interrupt_after_work(monkeypatch, SweepInterrupted(journal))
        metrics = str(tmp_path / "m.json")
        assert main(["fig9", "--sizes", "8", "--no-cache",
                     "--metrics-out", metrics]) == 130
        assert json.load(open(metrics))
        err = capsys.readouterr().err
        assert f"resume with: --resume {journal}" in err
