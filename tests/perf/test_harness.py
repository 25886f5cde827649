"""Tests for the perf-regression harness (timing math, JSON schema).

The actual kernels are too slow for unit tests; these tests patch tiny
stand-ins into ``KERNELS`` and check everything around them — best/mean
selection, determinism enforcement, payload schema and the file round
trip.
"""

import json

import pytest

import repro.perf.harness as harness
from repro.perf import (
    KERNELS,
    KernelResult,
    SCHEMA,
    bench_payload,
    run_bench,
    run_kernel,
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


class TestRunKernel:
    def test_repeats_and_result_fields(self, tiny_kernel):
        result = run_kernel("tiny", repeats=4)
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
            run_kernel("tiny", repeats=0)

    def test_nondeterministic_kernel_rejected(self, monkeypatch):
        ticks = iter(range(100))

        def flaky():
            return 1000, "accesses", float(next(ticks))

        monkeypatch.setitem(harness.KERNELS, "flaky", flaky)
        monkeypatch.setattr(harness, "_warm_imports", lambda: None)
        with pytest.raises(AssertionError, match="nondeterministic"):
            run_kernel("flaky", repeats=2)


class TestRunBench:
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
