"""The central PowerMANNA dispatcher.

The dispatcher is the one unit that speaks the MPC620's full bus protocol:
it sequences address/snoop phases, runs data phases over the ADSP switch as
split transactions with tagged out-of-order completion, and keeps all of
this invisible to the memory, link interfaces and PCI bridge (Figure 3).

The model is a discrete-event component: masters submit
:class:`BusTransaction` objects and wait on the returned process; the
dispatcher pipelines address phases (serial, per the snoop protocol)
against data phases (parallel, as many as the switch has ways).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.faults import FAULTS
from repro.memory.dram import InterleavedDram
from repro.memory.snoop import AddressPhaseSequencer, SnoopConfig
from repro.node.adsp import AdspSwitch
from repro.obs import OBS
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.stats import Counter, Histogram

_tags = itertools.count(1)


class TransactionKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    READ_EXCLUSIVE = "rwitm"
    INTERVENTION = "intervention"  # cache-to-cache transfer
    IO = "io"                      # memory-mapped link-interface access


@dataclass
class BusTransaction:
    """One master's bus request.

    Attributes:
        master: requesting device name (must be registered on the switch).
        kind: transaction type.
        addr: physical address.
        nbytes: transfer length (a cache line for cacheable traffic).
        target: responding device; None lets the dispatcher pick memory
            (or the intervening cache for INTERVENTION).
        tag: MPC620-style transaction tag for out-of-order completion.
    """

    master: str
    kind: TransactionKind
    addr: int
    nbytes: int
    target: Optional[str] = None
    tag: int = field(default_factory=lambda: next(_tags))
    issued_at: Optional[float] = None
    completed_at: Optional[float] = None

    @property
    def latency_ns(self) -> float:
        if self.issued_at is None or self.completed_at is None:
            raise ValueError(f"transaction {self.tag} not completed")
        return self.completed_at - self.issued_at

    @property
    def needs_snoop(self) -> bool:
        return self.kind in (TransactionKind.READ, TransactionKind.WRITE,
                             TransactionKind.READ_EXCLUSIVE,
                             TransactionKind.INTERVENTION)


class Dispatcher:
    """Central protocol engine over one ADSP switch and the node memory."""

    def __init__(self, sim: Simulator, switch: AdspSwitch,
                 dram: InterleavedDram, snoop: SnoopConfig,
                 memory_device: str = "memory",
                 io_access_ns: float = 100.0,
                 name: str = "dispatcher"):
        self.sim = sim
        self.switch = switch
        self.dram = dram
        self.sequencer = AddressPhaseSequencer(snoop, name=f"{name}.addr")
        self.memory_device = memory_device
        self.io_access_ns = io_access_ns
        self.name = name
        self.stats = Counter(name)
        sim.counters.append((self.stats, "dispatcher", {"dispatcher": name}))
        self.latencies = Histogram(f"{name}.latency_ns")
        self.completed_tags: list[int] = []
        self._device_gates: Dict[str, Resource] = {}
        if memory_device not in switch.devices:
            switch.register(memory_device)

    def _gate(self, device: str) -> Resource:
        gate = self._device_gates.get(device)
        if gate is None:
            gate = Resource(self.sim, capacity=1,
                            name=f"{self.name}.gate.{device}")
            self._device_gates[device] = gate
        return gate

    def submit(self, txn: BusTransaction) -> Process:
        """Start a transaction; the returned process fires at completion."""
        if txn.master not in self.switch.devices:
            raise KeyError(f"{self.name}: unknown master {txn.master!r}")
        return self.sim.process(self._run(txn))

    def _run(self, txn: BusTransaction):
        txn.issued_at = self.sim.now
        txn_span = 0
        if OBS.enabled:
            txn_span = OBS.tracer.begin(
                "bus.txn", self.name, self.sim.now, category="node",
                kind=txn.kind.value, master=txn.master, tag=txn.tag)
        if FAULTS.enabled:
            # Node hang: the protocol engine freezes before arbitration —
            # every master on this node sees the stall.
            stall = FAULTS.engine.stall_ns("node_hang", self.name,
                                           self.sim.now)
            if stall > 0:
                self.stats.incr("hangs")
                yield self.sim.pooled_timeout(stall)
        # 1. Address phase: serialised across all masters (snoop protocol).
        #    The sequencer's conservative-time accounting composes with the
        #    event-driven world through a plain timeout to its grant.
        if txn.needs_snoop:
            grant, done = self.sequencer.occupy(self.sim.now)
            wait = done - self.sim.now
            if wait > 0:
                yield self.sim.pooled_timeout(wait)
            self.stats.incr("address_phases")

        # 2. Data phase.  Memory reads are *split transactions*: the
        #    request is posted to the DRAM banks with no path held, and the
        #    switch connection is only made for the data-transfer window —
        #    so independent transactions overlap and complete out of order.
        target = txn.target or self.memory_device
        if target == self.memory_device and txn.kind != TransactionKind.IO:
            done = self.dram.service(self.sim.now, txn.addr, txn.nbytes)
            transfer = self.dram.config.transfer_ns(txn.nbytes)
            lead = max(0.0, done - transfer - self.sim.now)
            if lead:
                yield self.sim.pooled_timeout(lead)
            yield from self._data_phase(txn.master, target, transfer)
        elif txn.kind == TransactionKind.IO:
            yield from self._data_phase(txn.master, target, self.io_access_ns)
        else:
            # Cache-to-cache intervention: the owning cache streams the line.
            transfer = self.dram.config.transfer_ns(txn.nbytes)
            yield from self._data_phase(txn.master, target, transfer)
            self.stats.incr("interventions")

        txn.completed_at = self.sim.now
        self.completed_tags.append(txn.tag)
        self.stats.incr(f"completed_{txn.kind.value}")
        self.latencies.add(txn.latency_ns)
        if OBS.enabled:
            OBS.tracer.end(txn_span, self.sim.now)
            OBS.metrics.observe("bus.latency_ns", txn.latency_ns,
                                dispatcher=self.name)
        return txn

    def _data_phase(self, master: str, target: str, duration_ns: float):
        """Hold a switch path between ``master`` and ``target`` for the
        transfer window (sub-generator used by :meth:`_run`)."""
        master_gate, target_gate = self._gate(master), self._gate(target)
        yield master_gate.acquire()
        yield target_gate.acquire()
        pair = self.switch.connect(master, target)
        try:
            yield self.sim.pooled_timeout(duration_ns)
        finally:
            self.switch.disconnect(pair)
            target_gate.release()
            master_gate.release()

    # -- analysis ---------------------------------------------------------------

    def out_of_order_completions(self) -> int:
        """How many transactions completed out of tag order — evidence the
        split-transaction pipeline actually reorders independent work."""
        inversions = 0
        for earlier, later in zip(self.completed_tags, self.completed_tags[1:]):
            if later < earlier:
                inversions += 1
        return inversions
