"""The committed fault plans, run through the ``chaos`` command.

``smoke.json`` must recover every message with faults actually injected,
reproduce byte for byte from its plan and seed, consume every corruption
mark it sets, and pass the committed ``chaos.json`` health spec on
metrics the run really emits; ``port_down.json`` kills a crossbar port
mid-run on the 256-processor ``manna`` fabric, and every message must
still arrive by rerouting.
"""

import json
import os

import pytest

from repro.cli import main
from repro.faults import chaos as chaos_module

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks")
PLANS = os.path.join(BENCHMARKS, "fault_plans")


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


def test_smoke_run_consumes_every_corruption_mark(monkeypatch):
    """A message a dropped flit left short fails its CRC like a marked
    one, and consumes the link's corruption mark on it too."""
    engines = []

    class Recording(chaos_module.FaultEngine):
        def __init__(self, plan):
            super().__init__(plan)
            engines.append(self)

    monkeypatch.setattr(chaos_module, "FaultEngine", Recording)
    assert main(["chaos", "--plan", os.path.join(PLANS, "smoke.json"),
                 "--messages", "16", "--no-cache", "--no-journal"]) == 0
    engine, = engines
    assert engine.stats["link_corrupt"] > 0
    assert engine.stats["flit_drop"] > 0
    assert engine._corrupt_ids == set()


def test_chaos_health_spec_gates_on_emitted_metrics(capsys):
    spec = os.path.join(BENCHMARKS, "health_specs", "chaos.json")
    assert main(["chaos", "--plan", os.path.join(PLANS, "smoke.json"),
                 "--messages", "4", "--health", spec,
                 "--no-cache", "--no-journal"]) == 0
    gates = [line for line in capsys.readouterr().out.splitlines()
             if " metric " in line]
    assert gates
    for line in gates:
        assert "[PASS]" in line and "(observed missing)" not in line, line
