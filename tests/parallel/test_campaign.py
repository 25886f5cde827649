"""Chaos campaigns: aggregation math and jobs-level determinism."""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan, uniform_error_plan
from repro.parallel.campaign import (
    AGGREGATED,
    aggregate,
    format_campaign,
    run_campaign,
)


class TestAggregate:
    def test_mean_and_quantiles(self):
        agg = aggregate([4.0, 1.0, 3.0, 2.0])
        assert agg["mean"] == pytest.approx(2.5)
        assert agg["p50"] == 2.0  # nearest rank on the sorted samples
        assert agg["p99"] == 4.0
        assert (agg["min"], agg["max"]) == (1.0, 4.0)

    def test_empty_is_all_zero(self):
        assert set(aggregate([]).values()) == {0.0}


class TestRunCampaign:
    def _campaign(self, jobs=1, seeds=2):
        plan = uniform_error_plan(0.05).with_seed(11)
        return run_campaign(plan, seeds, flows=2, messages=2, jobs=jobs)

    def test_shape_and_reproducibility(self):
        a, b = self._campaign(), self._campaign()
        assert len(a.runs) == len(a.seeds) == 2
        assert len(set(a.seeds)) == 2  # seeds derive distinctly per point
        assert a.base_seed == 11
        assert a.to_json() == b.to_json()
        for path in AGGREGATED:
            assert set(a.aggregates[path]) == {"mean", "p50", "p99",
                                               "min", "max"}

    def test_jobs_levels_agree(self):
        assert self._campaign(jobs=1).to_json() == \
            self._campaign(jobs=2).to_json()

    def test_needs_at_least_one_seed(self):
        with pytest.raises(ValueError):
            run_campaign(FaultPlan(), 0)

    def test_format_mentions_every_aggregate(self):
        text = format_campaign(self._campaign())
        for path in AGGREGATED:
            assert path in text


class TestCampaignCli:
    ARGS = ["chaos", "--link-error-rate", "0.05", "--seed", "11",
            "--seeds", "2", "--flows", "2", "--messages", "2", "--no-cache"]

    def test_campaign_stdout_identical_across_jobs(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        args = self.ARGS + ["--report-out", str(out)]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        serial_report = out.read_bytes()
        assert main(args + ["--jobs", "2"]) == 0
        fanned = capsys.readouterr().out
        assert serial == fanned
        assert out.read_bytes() == serial_report
        assert "Chaos campaign: 2 seeds" in serial

    def test_report_out_is_valid_json(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert main(self.ARGS + ["--report-out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert len(report["runs"]) == 2
        assert "goodput_mb_s" in report["aggregates"]
