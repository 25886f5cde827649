"""Tests for DRAM banks, the snoop sequencer and the TLB."""

import pytest

from repro.memory.dram import DramConfig, InterleavedDram
from repro.memory.snoop import AddressPhaseSequencer, SnoopConfig
from repro.memory.tlb import Tlb, TlbConfig
from repro.sim.clock import Clock


class TestDramConfig:
    def test_line_service_time(self):
        dram = InterleavedDram(DramConfig(access_ns=60.0,
                                          bandwidth_mb_s=640.0))
        # 64 bytes at 640 MB/s = 100 ns transfer.
        assert dram.service(0.0, 0x0, 64) == pytest.approx(160.0)

    def test_bank_count_power_of_two(self):
        with pytest.raises(ValueError):
            DramConfig(num_banks=3)

    def test_bad_timing_rejected(self):
        with pytest.raises(ValueError):
            DramConfig(access_ns=0.0)


class TestInterleavedDram:
    def test_bank_mapping_interleaves_lines(self):
        dram = InterleavedDram(DramConfig(num_banks=4, interleave_bytes=64,
                                          access_ns=60.0, bandwidth_mb_s=640.0))
        # Lines 0-3 take banks 0-3 in parallel; lines 4 and 5 queue
        # behind banks 0 and 1.
        done = [dram.service(0.0, i * 64, 64) for i in range(6)]
        assert done == [160.0] * 4 + [320.0] * 2
        assert dram.bank_conflicts == 2

    def test_different_banks_overlap(self):
        dram = InterleavedDram(DramConfig(num_banks=4, interleave_bytes=64,
                                          access_ns=60.0, bandwidth_mb_s=640.0))
        done0 = dram.service(0.0, 0x0, 64)
        done1 = dram.service(0.0, 0x40, 64)     # different bank
        assert done0 == pytest.approx(160.0)
        assert done1 == pytest.approx(160.0)    # fully parallel

    def test_same_bank_serialises(self):
        dram = InterleavedDram(DramConfig(num_banks=4, interleave_bytes=64,
                                          access_ns=60.0, bandwidth_mb_s=640.0))
        dram.service(0.0, 0x0, 64)
        done = dram.service(0.0, 0x100, 64)     # bank 0 again (4*64 later)
        assert done == pytest.approx(320.0)
        assert dram.bank_conflicts == 1

    def test_arrival_at_the_free_time_is_no_conflict(self):
        dram = InterleavedDram(DramConfig(num_banks=4, interleave_bytes=64,
                                          access_ns=60.0, bandwidth_mb_s=640.0))
        done = dram.service(0.0, 0x0, 64)
        assert dram.service(done, 0x100, 64) == done + 60.0 + 100.0
        assert (dram.requests, dram.bank_conflicts) == (2, 0)

    def test_reset_clears_banks(self):
        dram = InterleavedDram(DramConfig())
        dram.service(0.0, 0x0, 64)
        dram.service(0.0, 0x0, 64)
        dram.reset()
        assert (dram.requests, dram.bank_conflicts) == (0, 0)
        assert dram.conflict_rate() == 0.0
        assert dram.service(0.0, 0x0, 64) == pytest.approx(160.0)

    def test_nonpositive_transfer_rejected(self):
        dram = InterleavedDram(DramConfig())
        with pytest.raises(ValueError):
            dram.service(0.0, 0x0, 0)


class TestAddressPhaseSequencer:
    def make(self, queue_depth=4):
        return AddressPhaseSequencer(
            SnoopConfig(bus_clock=Clock(60.0), phase_cycles=3.0,
                        queue_depth=queue_depth))

    def test_uncontended_phase(self):
        seq = self.make()
        grant, done = seq.occupy(100.0)
        assert grant == 100.0
        assert done == pytest.approx(100.0 + 50.0)   # 3 cycles at 60 MHz

    def test_phases_serialise(self):
        seq = self.make()
        _, done_first = seq.occupy(0.0)
        grant, _ = seq.occupy(0.0)
        assert grant == pytest.approx(done_first)
        assert seq.contended == 1

    def test_queue_overflow_penalises(self):
        seq = self.make(queue_depth=1)
        for _ in range(4):
            seq.occupy(0.0)
        assert seq.retries >= 1

    def test_arrival_at_the_free_time_waits_for_nothing(self):
        seq = self.make()
        _, done = seq.occupy(0.0)
        assert seq.occupy(done) == (done, done + seq._phase_ns)
        assert (seq.phases, seq.retries, seq.contended) == (2, 0, 0)
        assert seq.total_wait_ns == 0.0

    def test_retry_only_beyond_the_queue_depth(self):
        """A backlog of exactly ``queue_depth`` phases waits; one more
        phase retries, paying one phase more."""
        seq = self.make(queue_depth=2)
        phase = seq._phase_ns
        for _ in range(3):
            seq.occupy(0.0)
        assert seq.retries == 0
        grant, _ = seq.occupy(0.0)  # 3 phases queued ahead of it
        assert grant == 4 * phase
        assert seq.retries == 1

    def test_mean_wait_and_utilization(self):
        seq = self.make()
        seq.occupy(0.0)
        seq.occupy(0.0)
        assert seq.mean_wait_ns() == pytest.approx(25.0)   # (0 + 50) / 2
        assert seq.busy_ns / 100.0 == pytest.approx(1.0)  # busy throughout

    def test_reset(self):
        seq = self.make()
        seq.occupy(0.0)
        seq.occupy(0.0)
        seq.reset()
        assert (seq.phases, seq.retries, seq.contended) == (0, 0, 0)
        assert seq.mean_wait_ns() == 0.0
        grant, _ = seq.occupy(0.0)
        assert grant == 0.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SnoopConfig(bus_clock=Clock(60.0), phase_cycles=0.0)
        with pytest.raises(ValueError):
            SnoopConfig(bus_clock=Clock(60.0), queue_depth=0)


class TestTlb:
    def test_miss_then_hit(self):
        tlb = Tlb(TlbConfig(entries=4, page_bytes=4096))
        assert not tlb.access(0x1000)
        assert tlb.access(0x1FFF)       # same page
        assert not tlb.access(0x2000)   # next page

    def test_lru_eviction(self):
        tlb = Tlb(TlbConfig(entries=2, page_bytes=4096))
        tlb.access(0x0000)
        tlb.access(0x1000)
        tlb.access(0x0000)              # refresh page 0
        tlb.access(0x2000)              # evicts page 1
        assert tlb.contains(0x0000)
        assert not tlb.contains(0x1000)

    def test_occupancy_bounded(self):
        tlb = Tlb(TlbConfig(entries=8, page_bytes=256))
        for i in range(100):
            tlb.access(i * 256)
        assert tlb.occupancy() == 8

    def test_miss_rate(self):
        tlb = Tlb(TlbConfig(entries=4, page_bytes=4096))
        tlb.access(0x0)
        tlb.access(0x0)
        tlb.access(0x0)
        tlb.access(0x0)
        assert tlb.stats.ratio("misses", ["hits", "misses"]) == 0.25

    def test_flush(self):
        tlb = Tlb(TlbConfig())
        tlb.access(0x0)
        tlb.flush()
        assert not tlb.contains(0x0)

    def test_scaled_shrinks_pages_keeps_entries(self):
        config = TlbConfig(entries=128, page_bytes=4096).scaled(16)
        assert config.page_bytes == 256
        assert config.entries == 128

    def test_scaled_floor(self):
        config = TlbConfig(page_bytes=4096).scaled(1000, min_page_bytes=128)
        assert config.page_bytes == 128

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            TlbConfig(entries=0)
        with pytest.raises(ValueError):
            TlbConfig(page_bytes=100)
        with pytest.raises(ValueError):
            TlbConfig(miss_cycles=-1)
