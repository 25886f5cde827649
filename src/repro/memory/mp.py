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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.memory import vec
from repro.memory.cache import AccessType, Cache, MESIState
from repro.memory.dram import InterleavedDram
from repro.memory.hierarchy import HierarchyConfig, ServiceLevel
from repro.memory.mesi import BusOp, CoherenceDomain
from repro.memory.snoop import AddressPhaseSequencer, SnoopConfig
from repro.memory.tlb import Tlb
from repro.obs import OBS
from repro.sim.stats import Counter


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

    def __init__(self, name: str):
        self.name = name
        self._next_free = 0.0
        self.busy_ns = 0.0
        self.grants = 0

    def occupy(self, now_ns: float, duration_ns: float) -> Tuple[float, float]:
        start = max(now_ns, self._next_free)
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

    # -- single access ---------------------------------------------------------

    def access(self, cpu: int, now_ns: float, addr: int,
               access: AccessType = AccessType.READ) -> MpAccessOutcome:
        line = self.config.l1.line_bytes
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

        # Any bus op serialises through the address-phase sequencer.
        issue = now_ns + latency + self.l2_hit_ns
        grant, phase_done = self.sequencer.occupy(issue)
        queueing = grant - issue
        latency += self.l2_hit_ns + (phase_done - issue)

        if outcome.bus_op == BusOp.UPGRADE:
            self.stats.incr("upgrades")
            return MpAccessOutcome(latency, ServiceLevel.L2, queueing_ns=queueing)

        # Data phase: remote cache or DRAM.
        if outcome.supplied_by is not None:
            self.stats.incr("c2c_transfers")
            transfer = line * 1e3 / self.fabric.c2c_transfer_mb_s
            dur = self.fabric.c2c_latency_ns + transfer
            start, done = self._occupy_data_path(phase_done, dur, dram_addr=None)
            queueing += start - phase_done
            latency += done - phase_done
            level = ServiceLevel.REMOTE_CACHE
        else:
            self.stats.incr("memory_accesses")
            start, done = self._memory_fetch(phase_done, addr, line)
            queueing += start - phase_done
            latency += done - phase_done
            level = ServiceLevel.MEMORY

        for wb in outcome.writebacks:
            # Writebacks drain off the critical path but consume bandwidth.
            self._memory_fetch(phase_done, wb, line)
            self.stats.incr("writebacks")
        return MpAccessOutcome(latency, level, queueing_ns=queueing)

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

    def _memory_fetch(self, ready_ns: float, addr: int, nbytes: int,
                      ) -> Tuple[float, float]:
        """Route a line fetch over the fabric; returns (start, done)."""
        kind = self.fabric.kind
        if kind == FabricKind.SWITCHED:
            # Point-to-point path; only DRAM banks are shared.
            done = self.dram.service(ready_ns, addr, nbytes)
            return ready_ns, done
        transfer = nbytes * 1e3 / self.fabric.data_bus_mb_s
        if kind == FabricKind.SPLIT_BUS:
            # Bus occupied for the data packet only; DRAM latency overlaps.
            done_mem = self.dram.service(ready_ns, addr, nbytes)
            start, done = self.data_bus.occupy(done_mem - transfer, transfer)
            return start, max(done, done_mem)
        # SHARED_BUS: the transaction holds the bus across DRAM access.
        access = self.config.dram.access_ns
        start, done = self.data_bus.occupy(ready_ns, access + transfer)
        self.dram.service(start, addr, nbytes)
        return start, done

    def _occupy_data_path(self, ready_ns: float, duration_ns: float,
                          dram_addr: Optional[int]) -> Tuple[float, float]:
        if self.fabric.kind == FabricKind.SWITCHED:
            return ready_ns, ready_ns + duration_ns
        return self.data_bus.occupy(ready_ns, duration_ns)

    def reset(self) -> None:
        for cache in self.l1s + self.l2s:
            cache.invalidate_all()
            cache.reset_stats()
        for tlb in self.tlbs:
            tlb.flush()
            tlb.reset_stats()
        self.reset_timing()
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
The fast replay paths (``_replay_fast`` and :mod:`repro.memory.vec`)
evaluate the stalls of their in-loop outcomes once per replay.  They
must also be non-negative: vec merges only the CPUs' L2 misses, which
visits them in the reference's order only while issue times never
decrease.
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
                    ) -> List[CpuRunResult]:
    """Run one access stream per CPU, merged in global issue-time order.

    Each CPU's local clock advances by ``compute_ns`` plus the stall its
    stall model derives from the access latency.  Shared-resource
    next-free bookkeeping stays causally correct because the merge always
    services the earliest pending access.
    """
    if len(traces) != len(stall_models):
        raise ValueError("need one stall model per trace")
    if len(traces) > memory.num_cpus:
        raise ValueError(
            f"{len(traces)} traces for a {memory.num_cpus}-CPU node")

    iterators: List[Iterator[TraceStep]] = [iter(t) for t in traces]
    results = [CpuRunResult(0.0, 0, 0.0, 0.0, 0.0) for _ in traces]
    local = [0.0] * len(traces)
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
        if OBS.enabled:
            OBS.metrics.observe("mem.access_ns", outcome.latency_ns,
                                node=memory.name,
                                level=outcome.level.name.lower())
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


# ---------------------------------------------------------------------------
# Batch replay fast path
# ---------------------------------------------------------------------------
#
# Replaying an address trace through ``run_interleaved`` costs one TraceStep
# dataclass, one AccessResult, one MpAccessOutcome, two MESIState
# constructions and several Counter dict updates per reference.
# ``replay_traces`` sends most replays to :mod:`repro.memory.vec`; the rest
# -- CPUs whose traces share lines, SHARED lines resident, addresses
# outside ``[0, 2**63)`` -- take ``_replay_fast``.
# ``_replay_fast`` is one scalar loop for any CPU count: the merge heap of
# ``run_interleaved`` is kept, but the common accesses run inside the loop
# frame.  Set/tag shifts are precomputed, the L1/L2/TLB dicts are touched
# directly (same dict-order LRU as ``Cache.access``), and per-access
# counters accumulate in per-CPU slots that flush into the real
# ``Counter`` objects once per replay.  Three cases stay in the loop:
#
# * an L1 read hit;
# * an L1 write hit whose L2 line is EXCLUSIVE or MODIFIED;
# * an L1 miss refilled by this CPU's own L2 line in E or M state: the L1
#   victim goes to L2, the coherence domain records a plain hit, and the
#   sibling L1s get the same inclusion repair as the reference path.
#
# Everything else -- L2 misses, accesses whose own L2 line is SHARED or
# missing, a dirty L1 victim missing from L2 -- falls through to ``MultiprocessorMemory.access``
# untouched, *before* any state is mutated.  The replay is therefore
# access-for-access identical to the reference path: same counters, same
# cache contents and LRU order, same float operation order, hence
# bit-identical timing.  The in-loop stalls are computed once per replay
# per CPU, which relies on stall models being pure (see ``StallModel``).
#
# With observability enabled the reference path runs instead, so the
# per-access metric stream is preserved exactly.

_SHARED_INT = int(MESIState.SHARED)
_EXCLUSIVE_INT = int(MESIState.EXCLUSIVE)
_MODIFIED_INT = int(MESIState.MODIFIED)

# The per-CPU counter slots of ``_replay_fast``, by index:
# (component, stats key) pairs flushed by ``_flush_replay_counters``.
_SLOTS = (
    ("tlb", "hits"),          # 0
    ("tlb", "misses"),        # 1
    ("tlb", "evictions"),     # 2
    ("l1", "read_hit"),       # 3
    ("l1", "write_hit"),      # 4
    ("l1", "upgrade"),        # 5
    ("l1", "read_miss"),      # 6
    ("l1", "write_miss"),     # 7
    ("l1", "writeback"),      # 8
    ("l1", "clean_evict"),    # 9
    ("l2", "read_hit"),       # 10
    ("l2", "write_hit"),      # 11
    ("l2", "upgrade"),        # 12
    ("domain", "hit"),        # 13: one per in-loop L2 refill
)


def replay_reference(memory: MultiprocessorMemory,
                     traces: Sequence[Iterable[Tuple[int, AccessType]]],
                     compute_ns: float,
                     stall_models: Sequence[StallModel],
                     ) -> List[CpuRunResult]:
    """The reference replay: every access through :func:`run_interleaved`.

    Each ``(addr, AccessType)`` pair becomes a :class:`TraceStep` with
    uniform ``compute_ns``.  This is the semantics both replay engines
    must reproduce access for access.
    """
    steps = [(TraceStep(compute_ns, addr, access)
              for addr, access in vec.iter_pairs(t)) for t in traces]
    return run_interleaved(memory, steps, stall_models)


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
      sibling CPU holds) goes to the scalar loop ``_replay_fast``, which
      continues the clock;
    * several traces are cut into segments once, and go to the
      vectorized engine when the CPUs' lines are pairwise disjoint (see
      ``vec.supported``), as fig8's per-CPU matrices are; otherwise the
      same segments go to the scalar loop.

    Both engines require pure, non-negative stall models.  A trace is an
    iterable of pairs, a structured ``(addr, is_write)`` array, or an
    iterable of such arrays (one long trace in pieces).  ``OBS.enabled``
    forces the reference path so per-access metric streams are preserved.
    """
    if len(traces) != len(stall_models):
        raise ValueError("need one stall model per trace")
    if len(traces) > memory.num_cpus:
        raise ValueError(
            f"{len(traces)} traces for a {memory.num_cpus}-CPU node")
    if OBS.enabled:
        return replay_reference(memory, traces, compute_ns, stall_models)
    if len(traces) != 1:
        pieces = [list(vec.segments(t)) for t in traces]
        if not vec.supported(memory, pieces, vec.node_lines(memory)):
            return _replay_fast(
                memory, [itertools.chain.from_iterable(map(vec.iter_pairs, p))
                         for p in pieces], compute_ns, stall_models)
        states = [CpuRunResult(0.0, 0, 0.0, 0.0, 0.0) for _ in traces]
        vec.replay(memory, pieces, compute_ns, stall_models, states)
        return states
    state = CpuRunResult(0.0, 0, 0.0, 0.0, 0.0)
    # Vec moves only CPU 0's lines, to ones just found disjoint from its
    # siblings', so ``lines`` goes stale only after the scalar loop.
    lines = vec.node_lines(memory)
    for piece in vec.segments(traces[0]):
        if vec.supported(memory, [[piece]], lines):
            vec.replay(memory, [[piece]], compute_ns, stall_models, [state])
        else:
            state, = _replay_fast(memory, [piece], compute_ns, stall_models,
                                  start=[state])
            # Its lines may now be ones the engine cannot take.
            lines = vec.node_lines(memory)
    return [state]


def _replay_fast(memory: MultiprocessorMemory,
                 traces: Sequence[Iterable[Tuple[int, AccessType]]],
                 compute_ns: float,
                 stall_models: Sequence[StallModel],
                 start: Optional[Sequence[CpuRunResult]] = None,
                 ) -> List[CpuRunResult]:
    """The scalar fast path for any CPU count (see the comment above).

    ``start`` continues each CPU's clock and totals from an earlier part
    of the same replay instead of from zero.
    """
    write_t = AccessType.WRITE
    shared = _SHARED_INT
    exclusive = _EXCLUSIVE_INT
    modified = _MODIFIED_INT

    l1_sets_by_cpu = [l1._sets for l1 in memory.l1s]
    l2_sets_by_cpu = [l2._sets for l2 in memory.l2s]
    tlb_by_cpu = [tlb._entries for tlb in memory.tlbs]
    # L1 and L2 lines are the same size (HierarchyConfig enforces it), so
    # one tag serves both levels; only the set masks differ.
    l1_shift = memory.l1s[0]._set_shift
    l1_mask = memory.l1s[0]._set_mask
    l1_ways = memory.l1s[0]._ways
    l2_mask = memory.l2s[0]._set_mask
    page_shift = memory.tlbs[0]._page_shift
    tlb_capacity = memory.config.tlb.entries
    slow_access = memory.access
    repair_l1_inclusion = memory._repair_l1_inclusion
    other_l1_sets = [[sets for other, sets in enumerate(l1_sets_by_cpu)
                      if other != cpu] for cpu in range(memory.num_cpus)]

    # In-loop stalls, indexed [TLB miss] + 2 * [L2 refill], with the
    # reference path's argument grouping so the floats are identical.
    l1_hit_ns = memory.l1_hit_ns
    l2_hit_ns = memory.l2_hit_ns
    tlb_miss_ns = memory.tlb_miss_ns
    stalls = [(stall(0.0 + l1_hit_ns, compute_ns),
               stall(tlb_miss_ns + l1_hit_ns, compute_ns),
               stall((0.0 + l1_hit_ns) + l2_hit_ns, compute_ns),
               stall((tlb_miss_ns + l1_hit_ns) + l2_hit_ns, compute_ns))
              for stall in stall_models]

    n = len(traces)
    iterators = [vec.iter_pairs(t) for t in traces]
    start = start or [CpuRunResult(0.0, 0, 0.0, 0.0, 0.0)] * n
    local = [r.finish_ns for r in start]
    steps = [r.steps for r in start]
    compute_total = [r.compute_ns for r in start]
    stall_total = [r.stall_ns for r in start]
    queueing_total = [r.queueing_ns for r in start]
    counts = [[0] * len(_SLOTS) for _ in range(n)]

    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    # (issue_ns, cpu, (addr, access)); (issue_ns, cpu) is unique, so the
    # merge order is the reference path's.
    heap: List[Tuple[float, int, Tuple[int, AccessType]]] = []
    for cpu in range(n):
        ref = next(iterators[cpu], None)
        if ref is not None:
            heapq.heappush(heap, (local[cpu] + compute_ns, cpu, ref))

    while heap:
        issue, cpu, (addr, access) = heap[0]
        tag = addr >> l1_shift
        line_set = l1_sets_by_cpu[cpu][tag & l1_mask]
        state = line_set.get(tag)
        if state is not None and access is not write_t:
            fast = True
        else:
            l2_set = l2_sets_by_cpu[cpu][tag & l2_mask]
            l2_state = l2_set.get(tag)
            fast = l2_state == exclusive or l2_state == modified
            victim_tag = None
            if fast and state is None and len(line_set) >= l1_ways:
                victim_tag = next(iter(line_set))
                victim_state = line_set[victim_tag]
                if victim_state == modified:
                    victim_l2_set = l2_sets_by_cpu[cpu][victim_tag & l2_mask]
                    # A dirty victim missing from L2 is an inclusion
                    # breach: leave it to the reference path.
                    fast = victim_tag in victim_l2_set

        if fast:
            c = counts[cpu]
            tlb_entries = tlb_by_cpu[cpu]
            page = addr >> page_shift
            if page in tlb_entries:
                del tlb_entries[page]
                tlb_entries[page] = None
                c[0] += 1
                stall_index = 0
            else:
                if len(tlb_entries) >= tlb_capacity:
                    del tlb_entries[next(iter(tlb_entries))]
                    c[2] += 1
                tlb_entries[page] = None
                c[1] += 1
                stall_index = 1
            if state is not None:
                # --- L1 hit -----------------------------------------
                del line_set[tag]
                if access is write_t:
                    if state == shared:
                        c[5] += 1
                    line_set[tag] = modified
                    c[4] += 1
                    # Keep L2's view of dirtiness in sync.
                    del l2_set[tag]
                    l2_set[tag] = modified
                    c[11] += 1
                else:
                    line_set[tag] = state
                    c[3] += 1
            else:
                # --- L1 miss refilled by this CPU's E/M L2 line -------
                if victim_tag is not None:
                    del line_set[victim_tag]
                    if victim_state == modified:
                        c[8] += 1
                        if victim_l2_set.pop(victim_tag) == shared:
                            c[12] += 1
                        victim_l2_set[victim_tag] = modified
                        c[11] += 1
                    else:
                        c[9] += 1
                del l2_set[tag]
                if access is write_t:
                    line_set[tag] = modified
                    c[7] += 1
                    l2_set[tag] = modified
                    c[11] += 1
                else:
                    line_set[tag] = exclusive
                    c[6] += 1
                    l2_set[tag] = l2_state
                    c[10] += 1
                c[13] += 1
                stall_index += 2
                for sets in other_l1_sets[cpu]:
                    if tag in sets[tag & l1_mask]:
                        repair_l1_inclusion(addr)
                        break
            stall_ns = stalls[cpu][stall_index]
        else:
            # DRAM miss, SHARED upgrade or repair case: the reference
            # path, which sees pristine state.
            outcome = slow_access(cpu, issue, addr, access)
            stall_ns = stall_models[cpu](outcome.latency_ns, compute_ns)
            queueing_total[cpu] += outcome.queueing_ns
        now = issue + stall_ns
        local[cpu] = now
        steps[cpu] += 1
        compute_total[cpu] += compute_ns
        stall_total[cpu] += stall_ns
        ref = next(iterators[cpu], None)
        if ref is None:
            heappop(heap)
        else:
            heapreplace(heap, (now + compute_ns, cpu, ref))

    for cpu in range(n):
        _flush_replay_counters(memory, cpu, counts[cpu])
    return [CpuRunResult(finish_ns=local[cpu], steps=steps[cpu],
                         compute_ns=compute_total[cpu],
                         stall_ns=stall_total[cpu],
                         queueing_ns=queueing_total[cpu])
            for cpu in range(n)]


def _flush_replay_counters(memory: MultiprocessorMemory, cpu: int,
                           counts: Sequence[int]) -> None:
    """Fold one CPU's locally-accumulated counters into the real stats."""
    stats = {"tlb": memory.tlbs[cpu].stats, "l1": memory.l1s[cpu].stats,
             "l2": memory.l2s[cpu].stats, "domain": memory.domain.stats}
    for (component, key), amount in zip(_SLOTS, counts):
        if amount:
            stats[component].incr(key, amount)
    for key, amount in (("tlb_misses", counts[1]),
                        ("l1_hits", counts[3] + counts[4]),
                        ("l2_hits", counts[13])):
        if amount:
            memory.stats.incr(key, amount)
