"""Tests for the per-CPU memory-stack configuration."""

import pytest

from repro.memory.cache import CacheGeometry
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.tlb import TlbConfig
from repro.sim.clock import Clock


def make_config(**overrides):
    defaults = dict(
        cpu_clock=Clock(180.0),
        bus_clock=Clock(60.0),
        l1=CacheGeometry(1024, 64, 2),
        l2=CacheGeometry(8192, 64, 2),
        dram=DramConfig(num_banks=4, interleave_bytes=64,
                        access_ns=60.0, bandwidth_mb_s=640.0),
        tlb=TlbConfig(entries=1024, page_bytes=4096, miss_cycles=50.0),
        l1_hit_cycles=1.0,
        l2_hit_cycles=6.0,
    )
    defaults.update(overrides)
    return HierarchyConfig(**defaults)


class TestConfig:
    def test_latency_conversions(self):
        config = make_config()
        assert config.l1_hit_ns == pytest.approx(1000.0 / 180.0)
        assert config.l2_hit_ns == pytest.approx(6000.0 / 180.0)
        assert config.tlb_miss_ns == pytest.approx(50000.0 / 180.0)

    def test_line_sizes_must_match(self):
        with pytest.raises(ValueError):
            make_config(l2=CacheGeometry(8192, 32, 2))

    def test_l2_smaller_than_l1_rejected(self):
        with pytest.raises(ValueError):
            make_config(l1=CacheGeometry(16384, 64, 2))

    def test_scaled_shrinks_everything_proportionally(self):
        config = make_config().scaled(4)
        assert config.l1.size_bytes == 256
        assert config.l2.size_bytes == 2048
        assert config.tlb.page_bytes == 1024
        assert config.l1.line_bytes == 64
