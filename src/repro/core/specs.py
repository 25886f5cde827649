"""Machine specifications — Table 1 of the paper, as executable presets.

Each :class:`MachineSpec` binds a processor model, a memory-hierarchy
configuration and a node-fabric configuration into a named machine.  The
three presets are the paper's test systems; ``powermanna_node(num_cpus=4)``
builds the design-phase four-processor variant of ref [4].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cpu.model import CpuSpec
from repro.cpu.presets import (
    MPC620,
    PENTIUM_II_180,
    PENTIUM_II_266,
    ULTRASPARC_I,
)
from repro.memory.cache import CacheGeometry
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.mp import FabricConfig, FabricKind
from repro.memory.snoop import SnoopConfig
from repro.node.node import NodeModel
from repro.sim.clock import Clock


@dataclass(frozen=True)
class MachineSpec:
    """One complete Table-1 machine."""

    key: str
    system_type: str
    cpu: CpuSpec
    num_cpus: int
    hierarchy: HierarchyConfig
    fabric: FabricConfig
    node_memory_mb: int
    operating_system: str

    def node(self, num_cpus: int | None = None, scale: int = 1,
             name: str | None = None) -> NodeModel:
        """Build a fresh node model.

        ``scale`` divides the cache capacities (keeping line sizes) so that
        trace-driven runs cross the same L1/L2/memory regimes at smaller
        working sets — see DESIGN.md section 5.
        """
        hierarchy = self.hierarchy if scale == 1 else self.hierarchy.scaled(scale)
        return NodeModel(self.cpu, hierarchy, self.fabric,
                         num_cpus=self.num_cpus if num_cpus is None else num_cpus,
                         name=name or self.key)

    def table1_row(self) -> Dict[str, str]:
        """This machine's column of Table 1."""
        h = self.hierarchy
        kb = 1024
        return {
            "System Type": self.system_type,
            "Processor Type": self.cpu.name,
            "Processor Clock": f"{self.cpu.clock.mhz:g} MHz",
            "Bus Clock": f"{h.bus_clock.mhz:g} MHz",
            "Processors": str(self.num_cpus),
            "Primary Cache": (f"{h.l1.size_bytes // kb}/"
                              f"{h.l1.size_bytes // kb} Kbyte"),
            "Secondary Cache": _l2_text(h.l2.size_bytes),
            "Cache line": f"{h.l1.line_bytes} byte",
            "Node Memory": f"{self.node_memory_mb} Mbyte",
            "Operating System": self.operating_system,
        }


def _l2_text(size_bytes: int) -> str:
    mb = 1024 * 1024
    if size_bytes % mb == 0:
        n = size_bytes // mb
        return f"{n}/{n} Mbyte"
    n = size_bytes // 1024
    return f"{n}/{n} Kbyte"


_BUS_60 = Clock(60.0)
_BUS_66 = Clock(66.0)
_BUS_84 = Clock(84.0)

POWERMANNA = MachineSpec(
    key="powermanna",
    system_type="PowerMANNA",
    cpu=MPC620,
    num_cpus=2,
    hierarchy=HierarchyConfig(
        cpu_clock=MPC620.clock,
        bus_clock=_BUS_60,
        l1=CacheGeometry(32 * 1024, 64, 8),       # 32K on-chip, 64-byte lines
        l2=CacheGeometry(2 * 1024 * 1024, 64, 4),  # 2 Mbyte at CPU clock
        dram=DramConfig(num_banks=8, interleave_bytes=64,
                        access_ns=60.0, bandwidth_mb_s=640.0),
        l1_hit_cycles=1.0,
        l2_hit_cycles=6.0),    # the 2-Mbyte L2 runs at the processor clock
    fabric=FabricConfig(
        kind=FabricKind.SWITCHED,
        snoop=SnoopConfig(bus_clock=_BUS_60, phase_cycles=2.0, queue_depth=4),
        data_bus_mb_s=640.0,       # unused on the switched fabric
        c2c_transfer_mb_s=480.0,
        c2c_latency_ns=50.0),
    node_memory_mb=512,
    operating_system="Linux",
)

SUN_ULTRA = MachineSpec(
    key="sun",
    system_type="SUN",
    cpu=ULTRASPARC_I,
    num_cpus=2,
    hierarchy=HierarchyConfig(
        cpu_clock=ULTRASPARC_I.clock,
        bus_clock=_BUS_84,
        l1=CacheGeometry(16 * 1024, 32, 1),        # direct-mapped on-chip
        l2=CacheGeometry(512 * 1024, 32, 1),
        dram=DramConfig(num_banks=4, interleave_bytes=64,
                        access_ns=95.0, bandwidth_mb_s=450.0),
        l1_hit_cycles=1.0,
        l2_hit_cycles=8.0),
    fabric=FabricConfig(
        kind=FabricKind.SPLIT_BUS,                 # UPA: packet-switched data
        snoop=SnoopConfig(bus_clock=_BUS_84, phase_cycles=3.0, queue_depth=2),
        data_bus_mb_s=1300.0,      # UPA: 16-byte data packets at 84 MHz
        c2c_transfer_mb_s=350.0,
        c2c_latency_ns=80.0),
    node_memory_mb=576,
    operating_system="Solaris 2.5",
)


def _pc_cluster(cpu: CpuSpec, bus: Clock) -> MachineSpec:
    return MachineSpec(
        key=f"pc{cpu.clock.mhz:g}",
        system_type="PC",
        cpu=cpu,
        num_cpus=2,
        hierarchy=HierarchyConfig(
            cpu_clock=cpu.clock,
            bus_clock=bus,
            l1=CacheGeometry(16 * 1024, 32, 4),
            l2=CacheGeometry(512 * 1024, 32, 4),
            dram=DramConfig(num_banks=2, interleave_bytes=64,
                            access_ns=110.0, bandwidth_mb_s=320.0),
            l1_hit_cycles=1.0,
            l2_hit_cycles=7.0),    # half-speed backside L2
        fabric=FabricConfig(
            kind=FabricKind.SHARED_BUS,            # one GTL+ bus, addr + data
            snoop=SnoopConfig(bus_clock=bus, phase_cycles=3.0, queue_depth=2),
            data_bus_mb_s=8 * bus.mhz,             # 64-bit bus at bus clock
            c2c_transfer_mb_s=8 * bus.mhz,
            c2c_latency_ns=90.0),
        node_memory_mb=128,
        operating_system="Linux",
    )


PC_CLUSTER_180 = _pc_cluster(PENTIUM_II_180, _BUS_60)
PC_CLUSTER_266 = _pc_cluster(PENTIUM_II_266, _BUS_66)

_MACHINES: Dict[str, MachineSpec] = {
    spec.key: spec
    for spec in (POWERMANNA, SUN_ULTRA, PC_CLUSTER_180, PC_CLUSTER_266)
}


def machine(key: str) -> MachineSpec:
    """Look up a machine preset ('powermanna', 'sun', 'pc180', 'pc266')."""
    try:
        return _MACHINES[key.lower()]
    except KeyError:
        raise KeyError(
            f"unknown machine {key!r}; available: {sorted(_MACHINES)}"
        ) from None


def list_machines() -> List[str]:
    return sorted(_MACHINES)


def table1() -> List[Dict[str, str]]:
    """The three columns of the paper's Table 1 (PC at its two clocks is
    one column there; both variants are exposed here)."""
    return [spec.table1_row()
            for spec in (SUN_ULTRA, POWERMANNA, PC_CLUSTER_180)]
