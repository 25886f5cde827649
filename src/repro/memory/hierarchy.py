"""Per-CPU memory-stack configuration and the levels that serve an access.

:class:`HierarchyConfig` holds the geometry and unloaded timing of one
CPU's L1/L2/TLB stack and the DRAM behind it; :class:`ServiceLevel`
names the level that served an access.  The timing model itself is
:class:`repro.memory.mp.MultiprocessorMemory`, which serves any CPU
count; the CPU pipeline model decides how much of an access's latency is
overlapped (the MPC620's missing load pipelining is a CPU property, not
a memory property).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.memory.cache import CacheGeometry
from repro.memory.dram import DramConfig
from repro.memory.tlb import TlbConfig
from repro.sim.clock import Clock


class ServiceLevel(enum.IntEnum):
    L1 = 1
    L2 = 2
    MEMORY = 3
    REMOTE_CACHE = 4  # cache-to-cache intervention on SMP nodes


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and unloaded timing of one CPU's memory stack.

    Latencies are in the units natural to the hardware: cache hit times in
    CPU cycles, DRAM timing in nanoseconds.  ``bus_clock`` is the node
    bus frequency Table 1 reports.
    """

    cpu_clock: Clock
    bus_clock: Clock
    l1: CacheGeometry
    l2: CacheGeometry
    dram: DramConfig
    tlb: TlbConfig = TlbConfig()
    l1_hit_cycles: float = 1.0
    l2_hit_cycles: float = 9.0

    def __post_init__(self):
        if self.l2.line_bytes != self.l1.line_bytes:
            raise ValueError(
                "this model keeps L1 and L2 line sizes equal "
                f"(got {self.l1.line_bytes} and {self.l2.line_bytes})")
        if self.l2.size_bytes < self.l1.size_bytes:
            raise ValueError("inclusive hierarchy needs L2 >= L1")

    @property
    def l1_hit_ns(self) -> float:
        return self.cpu_clock.cycles_to_ns(self.l1_hit_cycles)

    @property
    def l2_hit_ns(self) -> float:
        return self.cpu_clock.cycles_to_ns(self.l2_hit_cycles)

    @property
    def tlb_miss_ns(self) -> float:
        return self.cpu_clock.cycles_to_ns(self.tlb.miss_cycles)

    def scaled(self, factor: int) -> "HierarchyConfig":
        """Shrink cache capacities and page size by ``factor`` (for fast
        simulations); line sizes and latencies are preserved."""
        return HierarchyConfig(
            cpu_clock=self.cpu_clock, bus_clock=self.bus_clock,
            l1=self.l1.scaled(factor), l2=self.l2.scaled(factor),
            dram=self.dram,
            tlb=self.tlb.scaled(factor,
                                min_page_bytes=2 * self.l1.line_bytes),
            l1_hit_cycles=self.l1_hit_cycles,
            l2_hit_cycles=self.l2_hit_cycles)
