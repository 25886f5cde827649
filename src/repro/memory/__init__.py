"""Memory-hierarchy substrate: caches, coherence, DRAM and node fabrics.

The node-performance results of the PowerMANNA paper (HINT, MatMult, SMP
speedup) are driven by cache geometry (line length, associativity, L2 size),
the MESI snoop protocol and the node's address/data-path organisation.  This
package provides:

* :mod:`repro.memory.address` — line/set/tag arithmetic.
* :mod:`repro.memory.cache` — set-associative write-back LRU caches with
  per-line MESI state.
* :mod:`repro.memory.mesi` — the MESI coherence protocol engine.
* :mod:`repro.memory.snoop` — snooping with the MPC620's queued-but-
  sequentialised address phases.
* :mod:`repro.memory.dram` — interleaved, pipelined DRAM banks.
* :mod:`repro.memory.hierarchy` — per-CPU L1/L2/TLB/DRAM configuration.
* :mod:`repro.memory.mp` — the node timing model for any CPU count
  (shared-bus vs switched address/data paths) and its reference trace
  replay.
* :mod:`repro.memory.vec` — the vectorized trace-replay engine, identical
  to the reference for the traces it accepts.
* :mod:`repro.memory.trace_gen` — address-trace generators for the
  benchmark kernels.
"""

from repro.memory.address import AddressMap, line_address
from repro.memory.cache import AccessType, Cache, CacheGeometry, MESIState
from repro.memory.dram import DramConfig, InterleavedDram
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.mesi import CoherenceDomain
from repro.memory.mp import FabricKind, MultiprocessorMemory

__all__ = [
    "AccessType",
    "AddressMap",
    "Cache",
    "CacheGeometry",
    "CoherenceDomain",
    "DramConfig",
    "FabricKind",
    "HierarchyConfig",
    "InterleavedDram",
    "MESIState",
    "MultiprocessorMemory",
    "line_address",
]
