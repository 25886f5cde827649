"""Set-associative write-back caches with per-line MESI state.

This is the hot path of the node-performance simulations, so the
implementation favours plain dicts and ints: each cache set is a dict
mapping tag -> MESI state, with Python's insertion order doubling as LRU
order (re-inserting a tag moves it to most-recently-used).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.memory.address import is_power_of_two
from repro.sim.stats import Counter


class MESIState(enum.IntEnum):
    """MESI cache-coherence states."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


class AccessType(enum.IntEnum):
    READ = 0
    WRITE = 1
    INSTR = 2


# Index -> member table: MESIState(value) walks the enum machinery on
# every call, which is measurable on the per-access path; indexing this
# tuple returns the identical singletons.
_MESI_MEMBERS = (MESIState.INVALID, MESIState.SHARED, MESIState.EXCLUSIVE,
                 MESIState.MODIFIED)


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of a cache.

    Attributes:
        size_bytes: total capacity.
        line_bytes: cache-line length (64 on the MPC620, 32 on the
            UltraSPARC-I and Pentium II — a first-order effect in Fig. 7).
        associativity: ways per set.
    """

    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self):
        if not is_power_of_two(self.line_bytes):
            raise ValueError(f"line size must be a power of two, got {self.line_bytes}")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError(
                f"cache of {self.size_bytes} B cannot be divided into "
                f"{self.associativity}-way sets of {self.line_bytes} B lines")
        if self.num_sets < 1 or not is_power_of_two(self.num_sets):
            raise ValueError(
                f"geometry yields {self.num_sets} sets; must be a power of two")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def scaled(self, factor: int) -> "CacheGeometry":
        """Same shape with capacity divided by ``factor`` (line size kept).

        Used to shrink simulations while preserving line-length effects.
        """
        if factor < 1:
            raise ValueError(f"scale factor must be >= 1, got {factor}")
        size = max(self.line_bytes * self.associativity, self.size_bytes // factor)
        return CacheGeometry(size, self.line_bytes, self.associativity)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a cache access.

    Attributes:
        hit: True when the line was present (in any valid state).
        state: MESI state *after* the access (INVALID only on bypass).
        writeback: line address evicted in MODIFIED state, else None.
        evicted: line address of a clean eviction, else None.
        upgraded: True when a SHARED line needed an upgrade for a write.
    """

    hit: bool
    state: MESIState
    writeback: Optional[int] = None
    evicted: Optional[int] = None
    upgraded: bool = False


class Cache:
    """One level of a write-back, write-allocate, LRU cache.

    The cache tracks *line presence and MESI state only* — no data contents.
    Timing is decided by the surrounding hierarchy/fabric models from the
    :class:`AccessResult`.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache",
                 level: str = ""):
        self.geometry = geometry
        self.name = name
        # Observability label; derived from the conventional "....l1" /
        # "....l2" naming when the builder does not pass it explicitly.
        self.level = level or name.rsplit(".", 1)[-1]
        self._set_shift = geometry.line_bytes.bit_length() - 1
        self._set_mask = geometry.num_sets - 1
        self._ways = geometry.associativity
        # sets[i] maps tag -> MESIState; insertion order is LRU order.
        self._sets: List[Dict[int, int]] = [dict() for _ in range(geometry.num_sets)]
        self.stats = Counter(name)

    # -- geometry helpers --------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr >> self._set_shift) & self._set_mask

    def tag_of(self, addr: int) -> int:
        return addr >> self._set_shift

    def line_base(self, tag: int) -> int:
        return tag << self._set_shift

    # -- inspection ---------------------------------------------------------

    def state_of(self, addr: int) -> MESIState:
        """MESI state of the line containing ``addr`` (INVALID if absent)."""
        tag = self.tag_of(addr)
        state = self._sets[tag & self._set_mask].get(tag)
        return MESIState.INVALID if state is None else _MESI_MEMBERS[state]

    def contains(self, addr: int) -> bool:
        tag = self.tag_of(addr)
        return tag in self._sets[tag & self._set_mask]

    def resident_lines(self) -> Iterator[Tuple[int, MESIState]]:
        """Yield (line_base_address, state) for every valid line."""
        for line_set in self._sets:
            for tag, state in line_set.items():
                yield self.line_base(tag), MESIState(state)

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- the access path -----------------------------------------------------

    def access(self, addr: int, access: AccessType,
               fill_state: MESIState = MESIState.EXCLUSIVE) -> AccessResult:
        """Perform a CPU-side access; fill on miss.

        ``fill_state`` is the MESI state a missing line is installed in —
        the coherence domain passes SHARED when another cache holds the
        line, EXCLUSIVE otherwise; writes always install/upgrade to
        MODIFIED.
        """
        tag = self.tag_of(addr)
        line_set = self._sets[tag & self._set_mask]
        state = line_set.get(tag)
        is_write = access == AccessType.WRITE

        if state is not None:
            # Hit: refresh LRU position.
            del line_set[tag]
            upgraded = False
            if is_write:
                upgraded = state == MESIState.SHARED
                state = int(MESIState.MODIFIED)
            elif state == MESIState.INVALID:  # pragma: no cover - never stored
                raise AssertionError("INVALID lines are never resident")
            line_set[tag] = state
            self.stats.incr("write_hit" if is_write else "read_hit")
            if upgraded:
                self.stats.incr("upgrade")
            return AccessResult(hit=True, state=_MESI_MEMBERS[state],
                                upgraded=upgraded)

        # Miss: evict LRU if the set is full, then fill.
        writeback = evicted = None
        if len(line_set) >= self._ways:
            victim_tag = next(iter(line_set))
            victim_state = line_set.pop(victim_tag)
            victim_addr = self.line_base(victim_tag)
            if victim_state == MESIState.MODIFIED:
                writeback = victim_addr
                self.stats.incr("writeback")
            else:
                evicted = victim_addr
                self.stats.incr("clean_evict")
        new_state = int(MESIState.MODIFIED) if is_write else int(fill_state)
        line_set[tag] = new_state
        self.stats.incr("write_miss" if is_write else "read_miss")
        return AccessResult(hit=False, state=_MESI_MEMBERS[new_state],
                            writeback=writeback, evicted=evicted)

    # -- coherence-side operations (driven by the snoop engine) --------------

    def snoop_invalidate(self, addr: int) -> Optional[int]:
        """Invalidate the line; return its address if dirty data must flush."""
        tag = self.tag_of(addr)
        line_set = self._sets[tag & self._set_mask]
        state = line_set.pop(tag, None)
        if state is None:
            return None
        self.stats.incr("snoop_invalidate")
        if state == MESIState.MODIFIED:
            self.stats.incr("snoop_flush")
            return self.line_base(tag)
        return None

    def snoop_downgrade(self, addr: int) -> Optional[int]:
        """Downgrade to SHARED; return line address if dirty data must flush.

        Models a remote read hitting a local M/E line: the MPC620 supplies
        the data cache-to-cache (intervention) and keeps a SHARED copy.
        """
        tag = self.tag_of(addr)
        line_set = self._sets[tag & self._set_mask]
        state = line_set.get(tag)
        if state is None:
            return None
        flush = self.line_base(tag) if state == MESIState.MODIFIED else None
        if state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
            line_set[tag] = int(MESIState.SHARED)
            self.stats.incr("snoop_downgrade")
        return flush

    def invalidate_all(self) -> int:
        """Flush the whole cache; returns number of dirty lines discarded."""
        dirty = 0
        for line_set in self._sets:
            if line_set:
                dirty += sum(1 for s in line_set.values()
                             if s == MESIState.MODIFIED)
                line_set.clear()
        return dirty

    # -- statistics -----------------------------------------------------------

    def hit_rate(self) -> float:
        hits = self.stats["read_hit"] + self.stats["write_hit"]
        total = hits + self.stats["read_miss"] + self.stats["write_miss"]
        return hits / total if total else 0.0

    def miss_count(self) -> int:
        return self.stats["read_miss"] + self.stats["write_miss"]

    def access_count(self) -> int:
        return (self.stats["read_hit"] + self.stats["write_hit"]
                + self.stats["read_miss"] + self.stats["write_miss"])

    def reset_stats(self) -> None:
        self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        g = self.geometry
        return (f"<Cache {self.name}: {g.size_bytes // 1024} KB, "
                f"{g.line_bytes} B lines, {g.associativity}-way>")
