"""Interleaved, pipelined DRAM model.

The PowerMANNA node memory uses cheap standard DRAM modules organised into
interleaved banks, pipelined to deliver 640 Mbyte/s.  The model tracks a
next-free time per bank so that consecutive line fetches to different banks
overlap (pipelining) while same-bank accesses serialise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.memory.address import is_power_of_two


@dataclass(frozen=True)
class DramConfig:
    """DRAM organisation and timing.

    Attributes:
        num_banks: interleave factor (power of two).
        interleave_bytes: consecutive address stride mapped to the next
            bank — the node interleaves on cache-line granularity.
        access_ns: time from request to first data word (row access).
        bandwidth_mb_s: sustained per-module burst bandwidth; a line
            transfer occupies its bank for line_bytes / bandwidth.
    """

    num_banks: int = 4
    interleave_bytes: int = 64
    access_ns: float = 60.0
    bandwidth_mb_s: float = 640.0

    def __post_init__(self):
        if not is_power_of_two(self.num_banks):
            raise ValueError(f"bank count must be a power of two, got {self.num_banks}")
        if not is_power_of_two(self.interleave_bytes):
            raise ValueError(
                f"interleave granularity must be a power of two, "
                f"got {self.interleave_bytes}")
        if self.access_ns <= 0 or self.bandwidth_mb_s <= 0:
            raise ValueError("DRAM timing parameters must be positive")


class InterleavedDram:
    """Bank-level timing: per-bank next-free bookkeeping.

    ``service(now, addr, nbytes)`` returns the completion time of a fetch
    issued at ``now``, queueing behind earlier work on the same bank but
    overlapping with other banks.
    """

    def __init__(self, config: DramConfig, name: str = "dram"):
        self.config = config
        self.name = name
        self._bank_free: List[float] = [0.0] * config.num_banks
        self._bank_shift = config.interleave_bytes.bit_length() - 1
        self._bank_mask = config.num_banks - 1
        # The config is frozen: read its timing once, not per fetch.
        self._access_ns = config.access_ns
        self._bandwidth_mb_s = config.bandwidth_mb_s
        self.requests = 0
        self.bank_conflicts = 0

    def service(self, now: float, addr: int, nbytes: int) -> float:
        """Issue a fetch/writeback; returns its completion time (ns)."""
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        bank = (addr >> self._bank_shift) & self._bank_mask
        bank_free = self._bank_free
        start = bank_free[bank]
        queued = start > now
        if not queued:
            start = now
        done = start + self._access_ns + nbytes * 1e3 / self._bandwidth_mb_s
        bank_free[bank] = done
        self.requests += 1
        if queued:
            self.bank_conflicts += 1
        return done

    def reset(self) -> None:
        self._bank_free = [0.0] * self.config.num_banks
        self.requests = 0
        self.bank_conflicts = 0

    def conflict_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.bank_conflicts / self.requests
