"""Tests for the benchmark implementations (fast, small configurations)."""

import pytest

from repro.bench.hint import (
    HintResult,
    default_checkpoints,
    hint_qualities,
    run_hint,
)
from repro.bench.matmult import matmult_sweep, run_matmult, smp_speedup
from repro.bench.microbench import (
    CommPoint,
    comm_sweep,
    comparator_point,
    metric_value,
    topology_point,
)
from repro.bench.report import format_config_table, format_series, format_table
from repro.comparators.models import bip_model
from repro.core.specs import PC_CLUSTER_180, POWERMANNA
from repro.network.topology import cluster_spec


class TestHintAlgorithm:
    def test_quality_is_monotone_in_refinements(self):
        points = hint_qualities(1024, [16, 64, 256, 1024], "double")
        qualities = [q for _, q in points]
        assert qualities == sorted(qualities)

    def test_quality_roughly_linear(self):
        # HINT's design goal: order-N quality for order-N storage/work.
        points = dict(hint_qualities(4096, [256, 4096], "double"))
        ratio = points[4096] / points[256]
        assert 8.0 < ratio < 32.0   # 16x refinements -> ~16x quality

    def test_int_and_double_agree_on_quality_scale(self):
        d = dict(hint_qualities(512, [512], "double"))[512]
        i = dict(hint_qualities(512, [512], "int"))[512]
        assert i == pytest.approx(d, rel=0.01)

    def test_bad_data_type(self):
        with pytest.raises(ValueError):
            hint_qualities(100, [10], "complex")

    def test_bad_checkpoints(self):
        with pytest.raises(ValueError):
            hint_qualities(100, [200], "double")
        with pytest.raises(ValueError):
            hint_qualities(100, [], "double")

    def test_default_checkpoints_geometric(self):
        marks = default_checkpoints(100)
        assert marks == [16, 32, 64, 100]


class TestHintTiming:
    def test_quips_curve_shape(self):
        node = POWERMANNA.node(scale=64)
        result = run_hint(node, max_subintervals=2048,
                          machine_key="powermanna")
        assert isinstance(result, HintResult)
        times = [p.time_s for p in result.points]
        assert times == sorted(times)
        # QUIPS fall once the working set leaves the caches.
        assert result.points[-1].quips < result.peak_quips

    def test_quips_at_subintervals(self):
        node = POWERMANNA.node(scale=64)
        result = run_hint(node, max_subintervals=512)
        assert result.quips_at_subintervals(512) == result.final_quips
        with pytest.raises(ValueError):
            result.quips_at_subintervals(1)


class TestMatMult:
    def test_result_fields(self):
        result = run_matmult(POWERMANNA.node(scale=64), 16,
                             machine_key="powermanna")
        assert result.n == 16
        assert result.version == "naive"
        assert result.mflops > 0
        assert not result.sampled

    def test_transposed_includes_transposition_cost(self):
        # With full-size caches a tiny matrix is cache-resident for both
        # versions, so the extra O(n^2) transposition pass must make
        # version (b) the slower one.
        naive = run_matmult(POWERMANNA.node(), 8, "naive")
        transposed = run_matmult(POWERMANNA.node(), 8, "transposed")
        assert transposed.elapsed_ns > naive.elapsed_ns

    def test_sampling_approximates_full_run(self):
        full = run_matmult(POWERMANNA.node(scale=64), 32, "naive")
        sampled = run_matmult(POWERMANNA.node(scale=64), 32, "naive",
                              sample_rows=(4, 6))
        assert sampled.sampled
        assert sampled.mflops == pytest.approx(full.mflops, rel=0.25)

    def test_sample_rows_covering_n_falls_back_to_full(self):
        result = run_matmult(POWERMANNA.node(scale=64), 8, "naive",
                             sample_rows=(4, 6))
        assert not result.sampled

    def test_bad_inputs(self):
        node = POWERMANNA.node(scale=64)
        with pytest.raises(ValueError):
            run_matmult(node, 1)
        with pytest.raises(ValueError):
            run_matmult(node, 8, version="blocked")
        with pytest.raises(ValueError):
            run_matmult(node, 8, cpus=5)
        with pytest.raises(ValueError):
            run_matmult(node, 64, sample_rows=(0, 3))

    def test_sweep_returns_one_result_per_size(self):
        results = matmult_sweep(POWERMANNA, [8, 16], scale=64)
        assert [r.n for r in results] == [8, 16]
        assert all(r.machine == "powermanna" for r in results)

    def test_smp_speedup_close_to_two_on_powermanna(self):
        speedup = smp_speedup(POWERMANNA, 24, "naive", scale=64)
        assert speedup == pytest.approx(2.0, abs=0.05)

    def test_smp_speedup_lower_on_shared_bus(self):
        pm = smp_speedup(POWERMANNA, 24, "transposed", scale=64)
        pc = smp_speedup(PC_CLUSTER_180, 24, "transposed", scale=64)
        assert pc < pm


class TestMicrobench:
    def test_powermanna_point_latency(self):
        point = topology_point(cluster_spec().to_dict(), 8, "latency")
        assert point.system == "PowerMANNA"
        assert point.latency_us == pytest.approx(2.75, rel=0.15)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            topology_point(cluster_spec().to_dict(), 8, "jitter")

    def test_comparator_point_fills_all_metrics(self):
        point = comparator_point(bip_model(), 64)
        assert point.latency_us and point.gap_us
        assert point.unidir_mb_s and point.bidir_mb_s

    def test_comm_sweep_structure(self):
        sweep = comm_sweep("latency", sizes=[8, 64])
        assert set(sweep) == {"PowerMANNA", "BIP/Myrinet", "FM/Myrinet"}
        assert len(sweep["PowerMANNA"]) == 2

    def test_metric_value_extraction(self):
        point = CommPoint("x", 8, latency_us=1.0)
        assert metric_value(point, "latency") == 1.0
        with pytest.raises(ValueError):
            metric_value(point, "gap")


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 20.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_series(self):
        text = format_series({"s1": [1.0, 2.0], "s2": [3.0, 4.0]},
                             [8, 16], "bytes", title="Fig")
        assert "Fig" in text and "s1" in text

    def test_format_config_table(self):
        from repro.core.specs import table1
        text = format_config_table(table1())
        assert "PowerMANNA" in text
        assert "2/2 Mbyte" in text

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            format_config_table([])
