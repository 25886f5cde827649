"""Tests for the multiprocessor memory fabrics."""

import pytest

from repro.memory.cache import AccessType, CacheGeometry, MESIState
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig, ServiceLevel
from repro.memory.mp import (
    FabricConfig,
    FabricKind,
    MultiprocessorMemory,
    TraceStep,
    run_interleaved,
)
from repro.memory.snoop import SnoopConfig
from repro.memory.tlb import TlbConfig
from repro.sim.clock import Clock


def make_hierarchy():
    return HierarchyConfig(
        cpu_clock=Clock(180.0),
        bus_clock=Clock(60.0),
        l1=CacheGeometry(1024, 64, 2),
        l2=CacheGeometry(8192, 64, 2),
        dram=DramConfig(num_banks=4, interleave_bytes=64,
                        access_ns=60.0, bandwidth_mb_s=640.0),
        tlb=TlbConfig(entries=4096, page_bytes=4096, miss_cycles=0.0),
        l1_hit_cycles=1.0, l2_hit_cycles=6.0)


def make_fabric(kind):
    return FabricConfig(
        kind=kind,
        snoop=SnoopConfig(bus_clock=Clock(60.0), phase_cycles=3.0,
                          queue_depth=4),
        data_bus_mb_s=480.0, c2c_transfer_mb_s=480.0, c2c_latency_ns=50.0)


def make_node(kind=FabricKind.SWITCHED, cpus=2):
    return MultiprocessorMemory(make_hierarchy(), cpus, make_fabric(kind))


class TestBasicAccess:
    def test_miss_then_hit(self):
        node = make_node()
        first = node.access(0, 0.0, 0x1000)
        again = node.access(0, 1000.0, 0x1000)
        assert first.level == ServiceLevel.MEMORY
        assert again.level == ServiceLevel.L1
        assert again.latency_ns < first.latency_ns

    def test_remote_dirty_line_supplied_cache_to_cache(self):
        node = make_node()
        node.access(0, 0.0, 0x1000, AccessType.WRITE)
        outcome = node.access(1, 1000.0, 0x1000, AccessType.READ)
        assert outcome.level == ServiceLevel.REMOTE_CACHE
        assert node.stats["c2c_transfers"] == 1

    def test_shared_write_pays_upgrade(self):
        node = make_node()
        node.access(0, 0.0, 0x1000)
        node.access(1, 100.0, 0x1000)
        outcome = node.access(0, 2000.0, 0x1000, AccessType.WRITE)
        assert node.stats["upgrades"] >= 1
        assert node.l2s[1].state_of(0x1000) == MESIState.INVALID
        assert outcome.level == ServiceLevel.L2

    def test_l1_inclusion_repair_on_remote_write(self):
        node = make_node()
        node.access(0, 0.0, 0x1000)           # CPU0 caches the line
        node.access(1, 1000.0, 0x1000, AccessType.WRITE)
        assert not node.l1s[0].contains(0x1000)

    def test_bad_cpu_count_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessorMemory(make_hierarchy(), 0,
                                 make_fabric(FabricKind.SWITCHED))


class TestFabricContention:
    def _contended_queueing(self, kind):
        """Total queueing when both CPUs stream disjoint data."""
        node = make_node(kind)
        queueing = 0.0
        # Both CPUs issue a burst of misses at overlapping times.
        for i in range(32):
            out0 = node.access(0, i * 50.0, 0x10000 + i * 64)
            out1 = node.access(1, i * 50.0, 0x80000 + i * 64)
            queueing += out0.queueing_ns + out1.queueing_ns
        return queueing

    def test_shared_bus_queues_more_than_switched(self):
        assert (self._contended_queueing(FabricKind.SHARED_BUS)
                > self._contended_queueing(FabricKind.SWITCHED))

    def test_split_bus_between_the_two(self):
        shared = self._contended_queueing(FabricKind.SHARED_BUS)
        split = self._contended_queueing(FabricKind.SPLIT_BUS)
        switched = self._contended_queueing(FabricKind.SWITCHED)
        assert switched <= split <= shared

    def test_switched_fabric_address_phases_still_serialise(self):
        node = make_node(FabricKind.SWITCHED)
        node.access(0, 0.0, 0x10000)
        out = node.access(1, 0.0, 0x20000)
        # The second CPU's address phase waits for the first's.
        assert out.queueing_ns > 0.0

    def test_reset_restores_cold_state(self):
        node = make_node()
        node.access(0, 0.0, 0x1000)
        node.reset()
        counters = ([c.stats for c in node.l1s + node.l2s]
                    + [t.stats for t in node.tlbs]
                    + [node.domain.stats, node.stats])
        assert all(not c.as_dict() for c in counters)
        assert (node.dram.requests, node.dram.bank_conflicts) == (0, 0)
        seq = node.sequencer
        assert (seq.phases, seq.retries, seq.contended) == (0, 0, 0)
        assert (seq.total_wait_ns, seq.busy_ns) == (0.0, 0.0)
        assert (node.data_bus.grants, node.data_bus.busy_ns) == (0, 0.0)
        assert node.access(0, 0.0, 0x1000).level == ServiceLevel.MEMORY
        assert node.stats["memory_accesses"] == 1  # only the fresh miss


class TestRunInterleaved:
    def test_single_cpu_accumulates_time(self):
        node = make_node()
        trace = [TraceStep(10.0, i * 64) for i in range(16)]
        results = run_interleaved(node, [iter(trace)],
                                  [lambda lat, comp: lat])
        assert results[0].steps == 16
        assert results[0].compute_ns == pytest.approx(160.0)
        assert results[0].finish_ns > 160.0

    def test_two_identical_cpus_finish_together(self):
        node = make_node()
        t0 = [TraceStep(10.0, 0x10000 + i * 64) for i in range(16)]
        t1 = [TraceStep(10.0, 0x80000 + i * 64) for i in range(16)]
        results = run_interleaved(node, [iter(t0), iter(t1)],
                                  [lambda lat, comp: lat] * 2)
        assert results[0].finish_ns == pytest.approx(results[1].finish_ns,
                                                     rel=0.05)

    def test_mismatched_stall_models_rejected(self):
        node = make_node()
        with pytest.raises(ValueError):
            run_interleaved(node, [iter([])], [])

    def test_too_many_traces_rejected(self):
        node = make_node(cpus=1)
        with pytest.raises(ValueError):
            run_interleaved(node, [iter([]), iter([])],
                            [lambda l, c: l] * 2)

    def test_merge_is_globally_time_ordered(self):
        # A CPU with huge compute times must not delay the other's accesses.
        node = make_node()
        slow = [TraceStep(10_000.0, 0x10000)]
        fast = [TraceStep(1.0, 0x80000 + i * 64) for i in range(8)]
        results = run_interleaved(node, [iter(slow), iter(fast)],
                                  [lambda lat, comp: lat] * 2)
        assert results[1].finish_ns < results[0].finish_ns
