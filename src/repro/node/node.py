"""Node assembly: CPUs + memory hierarchy + fabric into one model.

A :class:`NodeModel` is the unit the node benchmarks (HINT, MatMult,
SMP speedup) run against: it owns the per-CPU pipeline and stall models
and the shared :class:`~repro.memory.mp.MultiprocessorMemory`, and it can
replay address traces on any subset of its CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.cpu.model import CpuSpec
from repro.cpu.pipeline import PipelineModel, make_stall_model
from repro.memory.cache import AccessType
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.mp import (
    FabricConfig,
    MultiprocessorMemory,
    replay_traces,
)
from repro.memory.trace_gen import MemRef


@dataclass
class TraceRunResult:
    """Outcome of replaying traces on the node."""

    elapsed_ns: float
    per_cpu_ns: List[float]
    steps: int


class NodeModel:
    """One SMP node of a Table-1 machine."""

    def __init__(self, cpu: CpuSpec, hierarchy: HierarchyConfig,
                 fabric: FabricConfig, num_cpus: int = 2,
                 name: str = "node"):
        if num_cpus < 1:
            raise ValueError("a node needs at least one CPU")
        self.cpu = cpu
        self.hierarchy = hierarchy
        self.fabric = fabric
        self.num_cpus = num_cpus
        self.name = name
        self.pipeline = PipelineModel(cpu)
        self.memory = MultiprocessorMemory(hierarchy, num_cpus, fabric,
                                           name=name)
        self._stall = make_stall_model(cpu, hierarchy.l1_hit_ns)

    # -- trace execution ----------------------------------------------------

    def run_traces(self, traces: Sequence[Iterable[MemRef]],
                   compute_ns_per_access: float) -> TraceRunResult:
        """Replay one ``(addr, AccessType)`` stream per active CPU.

        ``compute_ns_per_access`` is the kernel's average compute time
        charged before each reference (from the pipeline model).

        Each call is a fresh timing epoch (local clocks restart at zero;
        DRAM/bus reservations are cleared) while cache contents persist —
        so a warming replay followed by a measured replay behaves like two
        timed sections of one program.

        :func:`repro.memory.mp.replay_traces` picks the engine from the
        input: a single trace, or several whose CPUs touch disjoint lines
        (fig8's per-CPU matrices), runs vectorized; overlapping traces run
        through the scalar loop; both are identical to the reference
        path.  Traces may be iterables or the structured arrays of the
        ``trace_gen`` array emitters.
        """
        self.memory.reset_timing()
        results = replay_traces(self.memory, traces, compute_ns_per_access,
                                [self._stall] * len(traces))
        per_cpu = [r.finish_ns for r in results]
        return TraceRunResult(elapsed_ns=max(per_cpu), per_cpu_ns=per_cpu,
                              steps=sum(r.steps for r in results))

    def reset(self) -> None:
        self.memory.reset()

    # -- convenience ---------------------------------------------------------

    def describe(self) -> str:
        h = self.hierarchy
        return (f"{self.name}: {self.num_cpus}x {self.cpu.name} @ "
                f"{self.cpu.clock}, L1 {h.l1.size_bytes // 1024}K/"
                f"{h.l1.line_bytes}B lines, L2 {h.l2.size_bytes // 1024}K, "
                f"fabric {self.fabric.kind.value}")


def build_node(cpu: CpuSpec, hierarchy: HierarchyConfig, fabric: FabricConfig,
               num_cpus: int = 2, name: str = "node") -> NodeModel:
    """Factory kept for symmetry with the other subsystem builders."""
    return NodeModel(cpu, hierarchy, fabric, num_cpus=num_cpus, name=name)
