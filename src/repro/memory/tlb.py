"""TLB model.

The MPC620's MMUs provide demand-paged translation with on-chip TLBs; the
comparators have their own (the UltraSPARC-I famously handles TLB misses in
a software trap).  For the benchmarks this matters in one place, and it
matters a lot: the naive MatMult walks matrix B down columns, and once the
column stride passes the page size every reference touches a different
page — the TLB thrashes and translation cost dominates.  That, together
with the superfluous cache-line traffic, is what makes the paper's naive
curves collapse for large matrices.

The model is a fully-associative LRU TLB (dict insertion order as LRU,
like :mod:`repro.memory.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.memory.address import is_power_of_two
from repro.sim.stats import Counter


@dataclass(frozen=True)
class TlbConfig:
    """TLB geometry and miss cost.

    Attributes:
        entries: translation slots (fully associative LRU).
        page_bytes: page size.
        miss_cycles: CPU cycles one table walk / miss trap costs.
    """

    entries: int = 128
    page_bytes: int = 4096
    miss_cycles: float = 50.0

    def __post_init__(self):
        if self.entries < 1:
            raise ValueError("TLB needs at least one entry")
        if not is_power_of_two(self.page_bytes):
            raise ValueError(f"page size must be a power of two, got {self.page_bytes}")
        if self.miss_cycles < 0:
            raise ValueError("miss cost must be nonnegative")

    def scaled(self, factor: int, min_page_bytes: int = 128) -> "TlbConfig":
        """Shrink the page size along with the caches (entries preserved).

        Scaling pages with the working set keeps the *reach* of the TLB
        (entries x page size) in proportion to the caches, so the stride
        regimes of the benchmarks appear at the scaled sizes too.
        """
        if factor < 1:
            raise ValueError(f"scale factor must be >= 1, got {factor}")
        page = max(min_page_bytes, self.page_bytes // factor)
        return TlbConfig(self.entries, page, self.miss_cycles)


class Tlb:
    """Fully-associative LRU translation cache (presence only)."""

    def __init__(self, config: TlbConfig, name: str = "tlb"):
        self.config = config
        self.name = name
        self._page_shift = config.page_bytes.bit_length() - 1
        self._entries: Dict[int, None] = {}
        self.stats = Counter(name)

    def page_of(self, addr: int) -> int:
        return addr >> self._page_shift

    def access(self, addr: int) -> bool:
        """Translate one reference; returns True on a TLB hit."""
        page = self.page_of(addr)
        if page in self._entries:
            del self._entries[page]     # refresh LRU position
            self._entries[page] = None
            self.stats.incr("hits")
            return True
        if len(self._entries) >= self.config.entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.stats.incr("evictions")
        self._entries[page] = None
        self.stats.incr("misses")
        return False

    def contains(self, addr: int) -> bool:
        return self.page_of(addr) in self._entries

    def occupancy(self) -> int:
        return len(self._entries)

    def flush(self) -> None:
        self._entries.clear()

    def reset_stats(self) -> None:
        self.stats.reset()
