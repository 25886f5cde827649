"""MESI coherence across the caches of one SMP node.

The MPC620 maintains coherence with a bus snoop protocol: every address
phase is broadcast, the other caches look up the line and respond
(invalidate, downgrade, or supply data cache-to-cache).  The
:class:`CoherenceDomain` implements the protocol state machine over a set
of per-CPU caches; timing is layered on top by :mod:`repro.memory.mp`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.memory.cache import AccessType, Cache, MESIState
from repro.sim.stats import Counter


class BusOp(enum.Enum):
    """Coherence bus transactions (MPC620 address-phase commands)."""

    READ = "read"               # read miss: fetch line, others downgrade
    READ_EXCLUSIVE = "rwitm"    # write miss: read-with-intent-to-modify
    UPGRADE = "kill"            # write hit on SHARED: invalidate others
    WRITEBACK = "writeback"     # dirty eviction to memory


@dataclass(frozen=True)
class CoherenceOutcome:
    """What one CPU access caused on the coherence fabric.

    Attributes:
        hit_local: line was valid in the requesting cache.
        bus_op: address-phase transaction issued (None on E/M hits).
        supplied_by: index of the cache that supplied data cache-to-cache
            (intervention), or None when memory supplied it.
        invalidated: indices of caches that lost the line.
        writebacks: line addresses written back to memory (victim and/or
            remote flush).
        final_state: requesting cache's MESI state afterwards.
    """

    hit_local: bool
    bus_op: Optional[BusOp]
    supplied_by: Optional[int] = None
    invalidated: tuple = ()
    writebacks: tuple = ()
    final_state: MESIState = MESIState.INVALID


class CoherenceError(RuntimeError):
    """Raised when the protocol invariant would be violated."""


@dataclass
class CoherenceDomain:
    """MESI protocol engine over the caches of one node.

    ``caches[i]`` is CPU *i*'s coherent cache (the L2 in the node models —
    L1s are kept inclusive by the hierarchy layer).
    """

    caches: List[Cache]
    stats: Counter = field(default_factory=lambda: Counter("coherence"))

    def __post_init__(self):
        if not self.caches:
            raise ValueError("a coherence domain needs at least one cache")

    @property
    def num_cpus(self) -> int:
        return len(self.caches)

    def access(self, cpu: int, addr: int, access: AccessType) -> CoherenceOutcome:
        """One CPU load/store/ifetch through the protocol."""
        if not 0 <= cpu < len(self.caches):
            raise IndexError(f"no CPU {cpu} in a {len(self.caches)}-CPU domain")
        cache = self.caches[cpu]
        local_state = cache.state_of(addr)
        is_write = access == AccessType.WRITE

        if local_state != MESIState.INVALID:
            return self._local_hit(cpu, cache, addr, access, local_state, is_write)
        return self._miss(cpu, cache, addr, access, is_write)

    # -- hit paths -----------------------------------------------------------

    def _local_hit(self, cpu: int, cache: Cache, addr: int, access: AccessType,
                   state: MESIState, is_write: bool) -> CoherenceOutcome:
        if is_write and state == MESIState.SHARED:
            # Upgrade: a "kill" address phase invalidates the other copies.
            invalidated = []
            for other_idx, other in self._others(cpu):
                flush = other.snoop_invalidate(addr)
                if flush is not None:  # pragma: no cover - S elsewhere, never M
                    raise CoherenceError(
                        f"line {addr:#x} MODIFIED in cache {other_idx} while "
                        f"SHARED in cache {cpu}")
                if other.state_of(addr) == MESIState.INVALID:
                    invalidated.append(other_idx)
            result = cache.access(addr, access)
            self.stats.incr("upgrade")
            return CoherenceOutcome(
                hit_local=True, bus_op=BusOp.UPGRADE,
                invalidated=tuple(i for i in invalidated),
                final_state=result.state)
        # Plain hit: E/M hits (and S reads) need no address phase.
        result = cache.access(addr, access)
        self.stats.incr("hit")
        return CoherenceOutcome(hit_local=True, bus_op=None,
                                final_state=result.state)

    # -- miss path -------------------------------------------------------------

    def _miss(self, cpu: int, cache: Cache, addr: int, access: AccessType,
              is_write: bool) -> CoherenceOutcome:
        bus_op = BusOp.READ_EXCLUSIVE if is_write else BusOp.READ
        supplied_by: Optional[int] = None
        invalidated: list[int] = []
        writebacks: list[int] = []

        for other_idx, other in self._others(cpu):
            remote_state = other.state_of(addr)
            if remote_state == MESIState.INVALID:
                continue
            if is_write:
                flush = other.snoop_invalidate(addr)
                invalidated.append(other_idx)
                if remote_state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
                    # Intervention: dirty/exclusive data comes cache-to-cache.
                    supplied_by = other_idx
                if flush is not None:
                    writebacks.append(flush)
            else:
                flush = other.snoop_downgrade(addr)
                if remote_state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
                    supplied_by = other_idx
                if flush is not None:
                    writebacks.append(flush)

        shared_elsewhere = any(
            other.state_of(addr) != MESIState.INVALID
            for _, other in self._others(cpu))
        fill_state = MESIState.SHARED if shared_elsewhere else MESIState.EXCLUSIVE
        result = cache.access(addr, access, fill_state=fill_state)
        if result.writeback is not None:
            writebacks.append(result.writeback)

        self.stats.incr("miss")
        if supplied_by is not None:
            self.stats.incr("cache_to_cache")
        outcome = CoherenceOutcome(
            hit_local=False, bus_op=bus_op, supplied_by=supplied_by,
            invalidated=tuple(invalidated), writebacks=tuple(writebacks),
            final_state=result.state)
        self._check_invariants(addr)
        return outcome

    # -- invariants -----------------------------------------------------------

    def _others(self, cpu: int) -> Sequence[tuple[int, Cache]]:
        return [(i, c) for i, c in enumerate(self.caches) if i != cpu]

    def _check_invariants(self, addr: int) -> None:
        states = [c.state_of(addr) for c in self.caches]
        self.assert_line_coherent(addr, states)

    @staticmethod
    def assert_line_coherent(addr: int, states: Sequence[MESIState]) -> None:
        """MESI safety: at most one M/E copy, and never M/E alongside S."""
        owners = sum(1 for s in states
                     if s in (MESIState.MODIFIED, MESIState.EXCLUSIVE))
        sharers = sum(1 for s in states if s == MESIState.SHARED)
        if owners > 1 or (owners and sharers):
            raise CoherenceError(
                f"line {addr:#x} violates MESI: states {[s.name for s in states]}")

    def check_all_coherent(self) -> None:
        """Validate every resident line (test/debug helper)."""
        lines = set()
        for cache in self.caches:
            lines.update(base for base, _ in cache.resident_lines())
        for base in lines:
            self._check_invariants(base)
