"""Snoop/address-phase timing.

The MPC620's bus-based snoop protocol requires the *address phases* of all
processors on a node to be sequentialised — every cacheable bus transaction
must be seen, in one global order, by every snooper.  The MPC620 softens
this by queueing several outstanding snoop requests, but the phases still
issue one at a time.  The paper's design-phase simulations found exactly
this sequentialisation (not memory bandwidth) to be the factor limiting the
node to ~4 processors.

:class:`AddressPhaseSequencer` models that serial resource with simple
next-free bookkeeping, plus a bounded snoop queue: when the queue is full
the requester is back-pressured (retried), adding latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sim.clock import Clock


@dataclass(frozen=True)
class SnoopConfig:
    """Timing of the serial address/snoop phase.

    Attributes:
        bus_clock: the node-bus clock (60 MHz on PowerMANNA).
        phase_cycles: bus cycles one address phase occupies the sequencer.
        queue_depth: outstanding snoop requests the protocol can queue
            (the MPC620 allows several; a depth of 1 models a naive
            blocking snoop).
    """

    bus_clock: Clock
    phase_cycles: float = 3.0
    queue_depth: int = 4

    def __post_init__(self):
        if self.phase_cycles <= 0:
            raise ValueError("address phase must take positive time")
        if self.queue_depth < 1:
            raise ValueError("snoop queue depth must be >= 1")

    @property
    def phase_ns(self) -> float:
        return self.bus_clock.cycles_to_ns(self.phase_cycles)


class AddressPhaseSequencer:
    """Serialises address phases; tracks contention statistics.

    The sequencer is *conservative-time* rather than event-driven: callers
    present their local issue time and receive (grant_time, done_time).
    This matches the two-pointer multiprocessor simulation in
    :mod:`repro.memory.mp`, which processes accesses in global time order.
    """

    def __init__(self, config: SnoopConfig, name: str = "snoop"):
        self.config = config
        self.name = name
        self._phase_ns = config.phase_ns  # the config is frozen
        self._queue_depth = config.queue_depth
        self._next_free = 0.0
        self.phases = 0
        self.retries = 0
        self.contended = 0
        self.total_wait_ns = 0.0
        self.busy_ns = 0.0

    def occupy(self, now_ns: float) -> Tuple[float, float]:
        """Issue an address phase at ``now_ns``.

        Returns ``(grant_ns, done_ns)``: when the phase won the sequencer
        and when it completed.  Queue-depth overflow shows up naturally as
        wait time because grants are strictly serial.
        """
        phase_ns = self._phase_ns
        grant = self._next_free
        if grant > now_ns:
            # Beyond the hardware queue depth, the master must retry:
            # model the retry penalty as one extra phase time of delay.
            if (grant - now_ns) / phase_ns > self._queue_depth:
                grant += phase_ns
                self.retries += 1
        else:
            grant = now_ns
        done = grant + phase_ns
        self._next_free = done
        self.phases += 1
        waited = grant - now_ns
        self.total_wait_ns += waited
        self.busy_ns += phase_ns
        if waited > 0:
            self.contended += 1
        return grant, done

    def mean_wait_ns(self) -> float:
        return self.total_wait_ns / self.phases if self.phases else 0.0

    def reset(self) -> None:
        self._next_free = 0.0
        self.phases = 0
        self.retries = 0
        self.contended = 0
        self.total_wait_ns = 0.0
        self.busy_ns = 0.0
