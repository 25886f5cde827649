"""Tests for the perf-regression harness (timing math, JSON schema).

The actual kernels are too slow for unit tests; these tests patch tiny
stand-ins into ``KERNELS`` and check everything around them — best/mean
selection, determinism enforcement, payload schema and the file round
trip.  ``run_bench`` at ``jobs=1`` runs its units in-process, so the
patched kernels are the ones timed.
"""

import json
import os

import pytest

import repro.perf.harness as harness
from repro.faults import HARNESS_FAULTS_ENV
from repro.perf import (
    KERNELS,
    KernelResult,
    SCHEMA,
    bench_payload,
    run_bench,
    write_bench_json,
)


@pytest.fixture
def tiny_kernel(monkeypatch):
    """Install a fast deterministic kernel and neutralize import warmup."""
    calls = []

    def kernel():
        calls.append(None)
        return 1000, "accesses", 42.5

    monkeypatch.setitem(harness.KERNELS, "tiny", kernel)
    monkeypatch.setattr(harness, "_warm_imports", lambda: None)
    return calls


class TestRunBench:
    def test_repeats_and_result_fields(self, tiny_kernel):
        [result] = run_bench(repeats=4, kernels=["tiny"])
        assert len(tiny_kernel) == 4
        assert result.name == "tiny"
        assert result.repeats == 4
        assert result.work == 1000
        assert result.work_unit == "accesses"
        assert result.check == 42.5
        assert 0 < result.wall_s <= result.mean_s
        assert result.rate == pytest.approx(1000 / result.wall_s)

    def test_zero_repeats_rejected(self, tiny_kernel):
        with pytest.raises(ValueError, match="repeats"):
            run_bench(repeats=0, kernels=["tiny"])

    def test_nondeterministic_kernel_rejected(self, monkeypatch):
        ticks = iter(range(100))

        def flaky():
            return 1000, "accesses", float(next(ticks))

        monkeypatch.setitem(harness.KERNELS, "flaky", flaky)
        monkeypatch.setattr(harness, "_warm_imports", lambda: None)
        with pytest.raises(AssertionError, match="nondeterministic"):
            run_bench(repeats=2, kernels=["flaky"])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            run_bench(kernels=["no_such_kernel"])

    def test_selected_subset(self, tiny_kernel):
        results = run_bench(repeats=1, kernels=["tiny"])
        assert [r.name for r in results] == ["tiny"]

    def test_default_covers_every_figure_family(self):
        assert set(KERNELS) == {
            "fig6_hint", "fig7_matmult", "fig8_smp", "fig9_pingpong",
            "fig11_unidir", "traffic_incast", "topo_hypercube_1k"}


class TestBenchCli:
    def test_interrupted_bench_resumes_to_the_same_payload(
            self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        for name, work, check in (("tiny_a", 1000, 42.5),
                                  ("tiny_b", 7, 1.25)):
            monkeypatch.setitem(harness.KERNELS, name,
                                lambda w=work, c=check: (w, "events", c))
        monkeypatch.setattr(harness, "_warm_imports", lambda: None)
        monkeypatch.delenv(HARNESS_FAULTS_ENV, raising=False)
        args = ["bench", "--kernels", "tiny_a", "tiny_b", "--repeats", "2"]
        clean = tmp_path / "clean.json"
        resumed = tmp_path / "resumed.json"
        journal = str(tmp_path / "bench.jsonl")

        assert main(args + ["--no-journal", "--out", str(clean)]) == 0
        capsys.readouterr()

        monkeypatch.setenv(HARNESS_FAULTS_ENV, json.dumps({"faults": [
            {"kind": "run_interrupt", "after_points": 2}]}))
        assert main(args + ["--journal", journal,
                            "--out", str(resumed)]) == 130
        assert f"--resume {journal}" in capsys.readouterr().err
        assert not os.path.exists(resumed)

        monkeypatch.delenv(HARNESS_FAULTS_ENV)
        assert main(args + ["--resume", journal,
                            "--out", str(resumed)]) == 0
        assert "resumed from journal" in capsys.readouterr().err

        def outputs(path):
            kernels = json.loads(path.read_text())["kernels"]
            return {name: (entry["work"], entry["check"])
                    for name, entry in kernels.items()}

        assert outputs(resumed) == outputs(clean) == {
            "tiny_a": (1000, 42.5), "tiny_b": (7, 1.25)}


class TestPayload:
    def _result(self, name="fig9_pingpong", wall=0.05):
        return KernelResult(name=name, wall_s=wall, mean_s=wall * 1.1,
                            repeats=3, work=40001, work_unit="events",
                            check=37173.5)

    def test_schema_and_kernel_entries(self):
        payload = bench_payload([self._result()], quick=True)
        assert payload["schema"] == SCHEMA == "repro.perf/v1"
        assert payload["quick"] is True
        entry = payload["kernels"]["fig9_pingpong"]
        assert entry["wall_s"] == 0.05
        assert entry["work"] == 40001
        assert entry["events_per_s"] == pytest.approx(40001 / 0.05)

    def test_write_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        returned = write_bench_json(str(path), [self._result()], quick=False)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(returned))
        assert on_disk["schema"] == SCHEMA
        assert on_disk["quick"] is False
        assert "fig9_pingpong" in on_disk["kernels"]

    def test_table_mentions_each_kernel(self, tiny_kernel):
        results = run_bench(repeats=1, kernels=["tiny"])
        table = harness.format_bench_table(results)
        assert "tiny" in table
        assert "accesses/s" in table
