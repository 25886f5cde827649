"""Tests for node assembly and trace execution."""

import pytest

from repro.core.specs import PC_CLUSTER_180, POWERMANNA
from repro.memory.cache import AccessType
from repro.memory.trace_gen import stream_trace


class TestNodeModel:
    def test_build_from_spec(self):
        node = POWERMANNA.node()
        assert node.num_cpus == 2
        assert node.cpu.name == "PowerPC MPC620"
        assert "powermanna" in node.describe()

    def test_scaled_node_shrinks_caches(self):
        node = POWERMANNA.node(scale=16)
        assert node.hierarchy.l2.size_bytes == 128 * 1024
        assert node.hierarchy.l1.line_bytes == 64

    def test_four_cpu_variant(self):
        node = POWERMANNA.node(num_cpus=4)
        assert node.num_cpus == 4
        assert len(node.memory.l2s) == 4

    def test_zero_cpus_rejected(self):
        with pytest.raises(ValueError):
            POWERMANNA.node(num_cpus=0)


class TestTraceExecution:
    def test_run_traces_accumulates_time(self):
        node = POWERMANNA.node(scale=16)
        trace = stream_trace(0x10000, 4096)
        result = node.run_traces([trace], compute_ns_per_access=5.0)
        assert result.steps == 512
        assert result.elapsed_ns > 512 * 5.0

    def test_warm_replay_is_faster(self):
        node = POWERMANNA.node(scale=16)
        cold = node.run_traces([stream_trace(0x10000, 4096)], 5.0).elapsed_ns
        warm = node.run_traces([stream_trace(0x10000, 4096)], 5.0).elapsed_ns
        assert warm < cold

    def test_two_cpu_run_returns_both_times(self):
        node = POWERMANNA.node(scale=16)
        traces = [stream_trace(0x10000, 2048), stream_trace(0x80000, 2048)]
        result = node.run_traces(traces, 5.0)
        assert len(result.per_cpu_ns) == 2
        assert result.elapsed_ns == max(result.per_cpu_ns)

    def test_timing_epoch_resets_between_runs(self):
        node = POWERMANNA.node(scale=16)
        node.run_traces([stream_trace(0x10000, 65536)], 5.0)
        # Without the timing reset the DRAM banks would still be "busy"
        # and this tiny warm run would report inflated latency.
        small = node.run_traces([stream_trace(0x10000, 512)], 5.0)
        assert small.elapsed_ns < 10_000.0

    def test_reset_clears_caches(self):
        node = POWERMANNA.node(scale=16)
        node.run_traces([stream_trace(0x10000, 4096)], 5.0)
        node.reset()
        cold_again = node.run_traces([stream_trace(0x10000, 4096)], 5.0)
        assert node.memory.stats["memory_accesses"] > 0

    def test_writes_flow_through(self):
        node = PC_CLUSTER_180.node(scale=16)
        trace = stream_trace(0x10000, 2048, access=AccessType.WRITE)
        result = node.run_traces([trace], 5.0)
        assert result.steps == 256
