"""The committed fault plans, run through the ``chaos`` command.

``smoke.json`` must recover every message with faults actually injected,
and reproduce byte for byte from its plan and seed; ``port_down.json``
kills a crossbar port mid-run on the 256-processor ``manna`` fabric,
and every message must still arrive by rerouting.
"""

import json
import os

import pytest

from repro.cli import main

PLANS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                     "fault_plans")


def chaos(tmp_path, name, plan, *flags):
    """Run one ``chaos`` plan; returns the paths of the files it wrote."""
    report = tmp_path / f"{name}.report.json"
    metrics = tmp_path / f"{name}.metrics.json"
    assert main(["chaos", "--plan", os.path.join(PLANS, plan),
                 "--no-cache", "--no-journal",
                 "--report-out", str(report),
                 "--metrics-out", str(metrics), *flags]) == 0
    return report, metrics


class TestSmokePlan:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("smoke")
        return [chaos(tmp_path, f"run{i}", "smoke.json", "--messages", "4")
                for i in range(2)]

    def test_same_plan_and_seed_write_identical_files(self, runs):
        first, second = runs
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_every_message_recovers_with_faults_injected(self, runs):
        report = json.loads(runs[0][0].read_text())
        assert report["delivered"] == 16, report
        assert report["undelivered"] == 0, report
        assert report["fault_stats"], "plan injected nothing"


def test_port_down_reroutes_and_delivers_everything(tmp_path):
    report, _ = chaos(tmp_path, "kill", "port_down.json",
                      "--topology", "manna", "--messages", "6")
    report = json.loads(report.read_text())
    assert report["undelivered"] == 0, report
    assert report["channel_stats"].get("reroutes", 0) > 0, report
