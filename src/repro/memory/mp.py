"""Multiprocessor memory timing: shared-bus versus switched fabrics.

This module answers the Figure-8 question (does MatMult scale to both
processors of a node?) and the ref-[4] design question (how many MPC620s
fit on one node?).  The three machines differ in how the address and data
paths are organised:

* **PowerMANNA** (``FabricKind.SWITCHED``): the ADSP bus switch gives every
  device a point-to-point data path; split transactions let data phases of
  different CPUs proceed in parallel.  Only the snoop **address phases**
  are serial — per the MPC620 protocol — and the interleaved DRAM banks
  are shared.
* **SUN UE/Ultra-I** (``FabricKind.SPLIT_BUS``): a packet-switched data bus
  (UPA-like); address phases serial, the single data bus is occupied only
  for the data packet itself.
* **Pentium II PC** (``FabricKind.SHARED_BUS``): one GTL+ bus carries both
  address and data phases; a memory transaction holds the data path for
  DRAM access *and* transfer.

The simulation is conservative-time: CPU access streams are merged in
global issue-time order and shared resources use next-free bookkeeping.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.memory.cache import AccessType, Cache, MESIState
from repro.memory.dram import InterleavedDram
from repro.memory.hierarchy import HierarchyConfig, ServiceLevel
from repro.memory.mesi import BusOp, CoherenceDomain
from repro.memory.snoop import AddressPhaseSequencer, SnoopConfig
from repro.memory.tlb import Tlb
from repro.obs import published
from repro.sim.stats import Counter


#: An Enum member lookup costs about 0.1 us; the miss path tests these
#: once per access.
_L2, _MEMORY = ServiceLevel.L2, ServiceLevel.MEMORY


class FabricKind(enum.Enum):
    SWITCHED = "switched"
    SPLIT_BUS = "split_bus"
    SHARED_BUS = "shared_bus"


@dataclass(frozen=True)
class FabricConfig:
    """Node-fabric organisation and timing.

    Attributes:
        kind: address/data path organisation (see module docstring).
        snoop: serial address-phase timing.
        data_bus_mb_s: bandwidth of the shared data path (bus fabrics).
        c2c_transfer_mb_s: cache-to-cache intervention bandwidth.
        c2c_latency_ns: fixed cost of an intervention before data flows.
    """

    kind: FabricKind
    snoop: SnoopConfig
    data_bus_mb_s: float = 480.0
    c2c_transfer_mb_s: float = 480.0
    c2c_latency_ns: float = 50.0


class _ChannelTimer:
    """Next-free bookkeeping for one serial channel."""

    __slots__ = ("name", "_next_free", "busy_ns", "grants")

    def __init__(self, name: str):
        self.name = name
        self._next_free = 0.0
        self.busy_ns = 0.0
        self.grants = 0

    def occupy(self, now_ns: float, duration_ns: float) -> Tuple[float, float]:
        start = self._next_free
        if not start > now_ns:
            start = now_ns
        done = start + duration_ns
        self._next_free = done
        self.busy_ns += duration_ns
        self.grants += 1
        return start, done

    def reset(self) -> None:
        self._next_free = 0.0
        self.busy_ns = 0.0
        self.grants = 0


@dataclass(frozen=True)
class MpAccessOutcome:
    """Latency decomposition of one access on the SMP node."""

    latency_ns: float
    level: ServiceLevel
    queueing_ns: float = 0.0  # time lost to address-phase/bus contention


class MultiprocessorMemory:
    """N private L1/L2 stacks over one coherent node fabric."""

    def __init__(self, config: HierarchyConfig, num_cpus: int,
                 fabric: FabricConfig, name: str = "node"):
        if num_cpus < 1:
            raise ValueError(f"need at least one CPU, got {num_cpus}")
        self.config = config
        self.fabric = fabric
        self.num_cpus = num_cpus
        self.name = name
        self.l1s = [Cache(config.l1, name=f"{name}.cpu{i}.l1", level="l1")
                    for i in range(num_cpus)]
        self.l2s = [Cache(config.l2, name=f"{name}.cpu{i}.l2", level="l2")
                    for i in range(num_cpus)]
        self.tlbs = [Tlb(config.tlb, name=f"{name}.cpu{i}.tlb")
                     for i in range(num_cpus)]
        self.domain = CoherenceDomain(self.l2s)
        self.dram = InterleavedDram(config.dram, name=f"{name}.dram")
        self.sequencer = AddressPhaseSequencer(fabric.snoop, name=f"{name}.snoop")
        self.data_bus = _ChannelTimer(f"{name}.databus")
        self.stats = Counter(name)
        # The config is frozen: convert its cycle latencies once, not on
        # every access.
        self.l1_hit_ns = config.l1_hit_ns
        self.l2_hit_ns = config.l2_hit_ns
        self.tlb_miss_ns = config.tlb_miss_ns
        # The fabric and the line are fixed: decide the route and time
        # the one-line transfers once.
        self._switched = fabric.kind is FabricKind.SWITCHED
        self._split_bus = fabric.kind is FabricKind.SPLIT_BUS
        self._line = line = config.l1.line_bytes
        self._bus_ns = line * 1e3 / fabric.data_bus_mb_s
        self._c2c_ns = (fabric.c2c_latency_ns
                        + line * 1e3 / fabric.c2c_transfer_mb_s)

    # -- single access ---------------------------------------------------------

    def access(self, cpu: int, now_ns: float, addr: int,
               access: AccessType = AccessType.READ) -> MpAccessOutcome:
        l1 = self.l1s[cpu]
        is_write = access == AccessType.WRITE

        translation_ns = 0.0
        if not self.tlbs[cpu].access(addr):
            translation_ns = self.tlb_miss_ns
            self.stats.incr("tlb_misses")

        l1_state = l1.state_of(addr)
        if l1_state != MESIState.INVALID:
            # L1 hit.  A write to a line SHARED at L2 still needs the
            # upgrade address phase; everything else is core-private.
            if is_write and self.l2s[cpu].state_of(addr) == MESIState.SHARED:
                return self._upgrade_hit(cpu, now_ns, addr)
            l1.access(addr, access)
            if is_write:
                # Keep L2's view of dirtiness in sync for remote snoops.
                self.l2s[cpu].access(addr, AccessType.WRITE)
            self.stats.incr("l1_hits")
            return MpAccessOutcome(translation_ns + self.l1_hit_ns,
                                   ServiceLevel.L1)

        # L1 miss: victim goes to L2, then the coherent L2-level access.
        latency = translation_ns + self.l1_hit_ns
        l1_result = l1.access(addr, access)
        if l1_result.writeback is not None:
            self.l2s[cpu].access(l1_result.writeback, AccessType.WRITE)

        outcome = self.domain.access(cpu, addr, access)
        self._repair_l1_inclusion(addr)

        if outcome.bus_op is None:
            # Clean L2 hit.
            self.stats.incr("l2_hits")
            return MpAccessOutcome(latency + self.l2_hit_ns, ServiceLevel.L2)
        if outcome.bus_op == BusOp.UPGRADE:
            level = ServiceLevel.L2
            self.stats.incr("upgrades")
        elif outcome.supplied_by is not None:
            level = ServiceLevel.REMOTE_CACHE
            self.stats.incr("c2c_transfers")
        else:
            level = ServiceLevel.MEMORY
            self.stats.incr("memory_accesses")
        latency, queueing = self.serve_miss(now_ns, latency, addr, level,
                                            outcome.writebacks)
        if outcome.writebacks:
            self.stats.incr("writebacks", len(outcome.writebacks))
        return MpAccessOutcome(latency, level, queueing_ns=queueing)

    def serve_miss(self, now_ns: float, latency_ns: float, addr: int,
                   level: ServiceLevel, writebacks: Sequence[int] = (),
                   ) -> Tuple[float, float]:
        """Time the bus transaction of an access that missed in L2.

        The access issued at ``now_ns`` and spent ``latency_ns`` before
        its L2 lookup.  Its address phase serialises through the
        sequencer; ``level`` says what follows: nothing for an upgrade
        (``L2``), a cache-to-cache intervention (``REMOTE_CACHE``) or a
        line fetch from DRAM (``MEMORY``), after which the
        ``writebacks`` drain.  Returns the access's ``(latency_ns,
        queueing_ns)``.  Both replay engines serve every such access
        here.
        """
        issue = now_ns + latency_ns + self.l2_hit_ns
        grant, phase_done = self.sequencer.occupy(issue)
        queueing = grant - issue
        latency_ns += self.l2_hit_ns + (phase_done - issue)
        if level is _MEMORY:
            start, done = self._fetch(phase_done, addr)
        elif level is _L2:
            return latency_ns, queueing  # an upgrade: the phase is all
        elif self._switched:
            # Interventions, too, have their own point-to-point path.
            start, done = phase_done, phase_done + self._c2c_ns
        else:
            start, done = self.data_bus.occupy(phase_done, self._c2c_ns)
        queueing += start - phase_done
        latency_ns += done - phase_done
        for wb in writebacks:
            # Writebacks drain off the critical path but consume bandwidth.
            self._fetch(phase_done, wb)
        return latency_ns, queueing

    def _upgrade_hit(self, cpu: int, now_ns: float, addr: int) -> MpAccessOutcome:
        issue = now_ns + self.l1_hit_ns
        grant, done = self.sequencer.occupy(issue)
        self.domain.access(cpu, addr, AccessType.WRITE)
        self._repair_l1_inclusion(addr)
        self.l1s[cpu].access(addr, AccessType.WRITE)
        self.stats.incr("upgrades")
        return MpAccessOutcome(self.l1_hit_ns + (done - issue),
                               ServiceLevel.L2, queueing_ns=grant - issue)

    def _repair_l1_inclusion(self, addr: int) -> None:
        """Invalidate L1 copies whose L2 line vanished or lost write rights."""
        for l1, l2 in zip(self.l1s, self.l2s):
            l2_state = l2.state_of(addr)
            if l2_state == MESIState.INVALID:
                l1.snoop_invalidate(addr)
            elif l2_state == MESIState.SHARED:
                l1.snoop_downgrade(addr)

    # -- fabric-specific data-path timing -----------------------------------------

    def _fetch(self, ready_ns: float, addr: int) -> Tuple[float, float]:
        """Route one line fetch over the fabric; returns (start, done)."""
        if self._switched:
            # Point-to-point path; only DRAM banks are shared.
            return ready_ns, self.dram.service(ready_ns, addr, self._line)
        transfer = self._bus_ns
        if self._split_bus:
            # Bus occupied for the data packet only; DRAM latency overlaps.
            done_mem = self.dram.service(ready_ns, addr, self._line)
            start, done = self.data_bus.occupy(done_mem - transfer, transfer)
            return start, max(done, done_mem)
        # SHARED_BUS: the transaction holds the bus across DRAM access.
        access = self.config.dram.access_ns
        start, done = self.data_bus.occupy(ready_ns, access + transfer)
        self.dram.service(start, addr, self._line)
        return start, done

    def reset(self) -> None:
        for cache in self.l1s + self.l2s:
            cache.invalidate_all()
            cache.reset_stats()
        for tlb in self.tlbs:
            tlb.flush()
            tlb.reset_stats()
        self.reset_timing()
        self.domain.stats.reset()
        self.stats.reset()

    def reset_timing(self) -> None:
        """Start a fresh timing epoch: clear next-free bookkeeping of the
        shared resources while keeping all cache contents.

        Trace replays start their local clocks at zero, so successive
        replays on one node (e.g. a cache-warming pass followed by a
        measured pass) must not inherit stale bank/bus reservation times.
        """
        self.dram.reset()
        self.sequencer.reset()
        self.data_bus.reset()


@dataclass(frozen=True)
class TraceStep:
    """One unit of CPU work: ``compute_ns`` of execution then one access."""

    compute_ns: float
    addr: int
    access: AccessType = AccessType.READ


StallModel = Callable[[float, float], float]
"""Maps (memory_latency_ns, preceding_compute_ns) -> CPU stall ns.

Stall models must be pure: the result depends on the two arguments only.
The vectorized engine (:mod:`repro.memory.vec`) evaluates the stalls of
its L1- and L2-hit outcomes once per replay.  They must also be
non-negative: vec merges only the CPUs' L2 misses, which visits them in
the reference's order only while issue times never decrease.
"""


@dataclass
class CpuRunResult:
    finish_ns: float
    steps: int
    compute_ns: float
    stall_ns: float
    queueing_ns: float


def run_interleaved(memory: MultiprocessorMemory,
                    traces: Sequence[Iterable[TraceStep]],
                    stall_models: Sequence[StallModel],
                    start: Optional[Sequence[CpuRunResult]] = None,
                    ) -> List[CpuRunResult]:
    """Run one access stream per CPU, merged in global issue-time order.

    Each CPU's local clock advances by ``compute_ns`` plus the stall its
    stall model derives from the access latency.  Shared-resource
    next-free bookkeeping stays causally correct because the merge always
    services the earliest pending access.  ``start`` continues each
    CPU's clock and totals from an earlier part of the same replay
    instead of from zero.
    """
    if len(traces) != len(stall_models):
        raise ValueError("need one stall model per trace")
    if len(traces) > memory.num_cpus:
        raise ValueError(
            f"{len(traces)} traces for a {memory.num_cpus}-CPU node")

    iterators: List[Iterator[TraceStep]] = [iter(t) for t in traces]
    if start is None:
        results = [CpuRunResult(0.0, 0, 0.0, 0.0, 0.0) for _ in traces]
    else:
        results = [replace(r) for r in start]
    local = [r.finish_ns for r in results]
    heap: List[Tuple[float, int, TraceStep]] = []

    def push(cpu: int) -> None:
        step = next(iterators[cpu], None)
        if step is not None:
            heapq.heappush(heap, (local[cpu] + step.compute_ns, cpu, step))

    for cpu in range(len(traces)):
        push(cpu)

    while heap:
        issue, cpu, step = heapq.heappop(heap)
        outcome = memory.access(cpu, issue, step.addr, step.access)
        stall = stall_models[cpu](outcome.latency_ns, step.compute_ns)
        local[cpu] = issue + stall
        res = results[cpu]
        res.steps += 1
        res.compute_ns += step.compute_ns
        res.stall_ns += stall
        res.queueing_ns += outcome.queueing_ns
        res.finish_ns = local[cpu]
        push(cpu)
    return results


def replay_reference(memory: MultiprocessorMemory,
                     traces: Sequence[Iterable[Tuple[int, AccessType]]],
                     compute_ns: float,
                     stall_models: Sequence[StallModel],
                     start: Optional[Sequence[CpuRunResult]] = None,
                     ) -> List[CpuRunResult]:
    """The reference replay: every access through :func:`run_interleaved`.

    Each ``(addr, AccessType)`` pair becomes a :class:`TraceStep` with
    uniform ``compute_ns``.  This is the semantics the vectorized engine
    must reproduce access for access.  ``start`` is as for
    :func:`run_interleaved`.
    """
    from repro.memory import vec

    steps = [(TraceStep(compute_ns, addr, access)
              for addr, access in vec.iter_pairs(t)) for t in traces]
    return run_interleaved(memory, steps, stall_models, start)


def replay_traces(memory: MultiprocessorMemory,
                  traces: Sequence[Iterable[Tuple[int, AccessType]]],
                  compute_ns: float,
                  stall_models: Sequence[StallModel],
                  ) -> List[CpuRunResult]:
    """Replay raw ``(addr, AccessType)`` streams, one per CPU.

    Identical in results, counters, cache contents and timing to
    :func:`replay_reference`; the input picks the engine:

    * one trace goes to the vectorized engine in :mod:`repro.memory.vec`,
      one bounded segment at a time; a segment the engine cannot take (an
      address outside ``[0, 2**63)``, a SHARED line resident, a line a
      sibling CPU holds) goes to the reference, which continues the
      clock;
    * several traces are cut into segments once, and go to the
      vectorized engine when the CPUs' lines are pairwise disjoint (see
      ``vec.supported``), as fig8's per-CPU matrices are; otherwise the
      same segments go to the reference.

    The vectorized engine requires pure, non-negative stall models.  A
    trace is an iterable of pairs, a structured ``(addr, is_write)``
    array, or an iterable of such arrays (one long trace in pieces).
    Under observation the replay's counter deltas are published as the
    ``cache.*``, ``tlb.*``, ``coherence.*`` and ``mem.*`` metrics, the
    same whichever engine ran.
    """
    return replay_nodes([(memory, traces, compute_ns, stall_models)])[0]


def replay_nodes(runs: Sequence[Tuple[MultiprocessorMemory, Sequence,
                                      float, Sequence[StallModel]]],
                 ) -> List[List[CpuRunResult]]:
    """:func:`replay_traces` on several nodes at once, one result list
    per ``(memory, traces, compute_ns, stall_models)`` run.

    The nodes must be distinct, and are independent: each run's results
    are those of :func:`replay_traces` on it alone.  Replayed together,
    the runs' vectorized parts share one oracle pass between CPUs whose
    segments are equal up to an aligned shift, from equal states (see
    ``vec.replay``), as fig8's solo CPU and the two CPUs of its dual run
    are.
    """
    from repro.memory import vec

    memories = [memory for memory, *_ in runs]
    if len({id(memory) for memory in memories}) != len(memories):
        raise ValueError("a node can take part in one run only")
    for memory, traces, _, stall_models in runs:
        if len(traces) != len(stall_models):
            raise ValueError("need one stall model per trace")
        if len(traces) > memory.num_cpus:
            raise ValueError(
                f"{len(traces)} traces for a {memory.num_cpus}-CPU node")

    results: List[List[CpuRunResult]] = []
    vec_runs = []
    entries = []
    for memory in memories:
        node = {"node": memory.name}
        entries += ([(c.stats, "cache", {"cache": c.name, "level": c.level})
                     for c in memory.l1s + memory.l2s]
                    + [(t.stats, "tlb", {"tlb": t.name})
                       for t in memory.tlbs]
                    + [(memory.domain.stats, "coherence", node),
                       (memory.stats, "node", node)])
    with published(entries):
        for memory, traces, compute_ns, stall_models in runs:
            states = [CpuRunResult(0.0, 0, 0.0, 0.0, 0.0) for _ in traces]
            results.append(states)
            if len(traces) == 1:
                rest = _vec_pieces(memory, traces[0], compute_ns,
                                   stall_models, states)
                head = [next(rest, None)]
                if head[0] is None:
                    continue
                pieces = [_resumed(head, rest)]
            else:
                pieces = [list(vec.segments(t)) for t in traces]
                if not vec.supported(memory, pieces, vec.node_lines(memory)):
                    states[:] = replay_reference(
                        memory,
                        [itertools.chain.from_iterable(map(vec.iter_pairs, p))
                         for p in pieces], compute_ns, stall_models)
                    continue
            vec_runs.append((memory, pieces, compute_ns, stall_models,
                             states))
        if vec_runs:
            vec.replay(vec_runs)
    return results


def _vec_pieces(memory: MultiprocessorMemory, trace, compute_ns: float,
                stall_models: Sequence[StallModel],
                states: List[CpuRunResult]) -> Iterator:
    """The segments of CPU 0's ``trace`` that the vectorized engine can
    take, in order; each other segment is replayed by the reference in
    its turn, continuing ``states[0]``."""
    from repro.memory import vec

    # Vec moves only CPU 0's lines, to ones just found disjoint from
    # its siblings', so ``lines`` goes stale only after the reference.
    lines = vec.node_lines(memory)
    for piece in vec.segments(trace):
        if vec.supported(memory, [[piece]], lines):
            yield piece
        else:
            states[:] = replay_reference(memory, [piece], compute_ns,
                                         stall_models, start=states)
            # Its lines may now be ones the engine cannot take.
            lines = vec.node_lines(memory)


def _resumed(head: list, rest: Iterator) -> Iterator:
    """The one item of ``head``, then ``rest``, keeping no reference to
    an item once handed out."""
    yield head.pop()
    yield from rest
