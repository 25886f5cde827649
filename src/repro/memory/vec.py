"""Numpy-vectorized trace replay: array kernels over trace segments.

``replay_traces`` sends every single-trace replay to this module first,
and every multi-trace replay whose CPUs touch pairwise disjoint lines.
The contract is the one the scalar loop keeps: the replay must be
*access-for-access identical* to the reference ``run_interleaved`` path —
same hit/miss/evict/upgrade/TLB counters, same float operation order,
hence bit-identical timing.  The representation changes, the semantics
do not.

How a dict-LRU simulation becomes array code
--------------------------------------------

The scalar paths juggle one dict entry per reference.  Here a trace is
cut into contiguous ``(addr, is_write)`` structured arrays of at most
``_SEGMENT`` accesses (:func:`segments`), each replayed from the state
the previous one committed, and each structure gets its own oracle over
a segment:

* **L1 (chunked lockstep LRU).**  Per-set access streams are split into
  fixed-length chunks and simulated as parallel numpy *lanes*: the state
  is a ``lanes x ways`` tag/dirty/age matrix advanced one vectorized step
  per chunk position (hit detect via an equality matrix, LRU victim via
  ``argmin`` over ages); the accesses of one step are stored contiguous,
  with no padding for lanes already done.  Chunk 0 of every set is
  seeded from the true cache state, so it is exact from the start.
  Later chunks start empty and rely on the LRU *convergence* property:
  once a chunk has touched ``ways`` distinct tags (position ``v``), set
  content and recency order are independent of the initial state.  A
  short scalar warmup replays ``[0, v]`` from the true state to fix up
  the pre-convergence outcomes, and the only post-``v`` divergence —
  dirty bits inherited across the chunk boundary — is repaired sparsely
  (flip the affected victim's writeback flag, or carry the bit into the
  final state).
* **TLB (previous-occurrence filter).**  An access whose page recurred
  within the last ``capacity`` accesses is a guaranteed LRU hit, so one
  argsort of the page column proves almost the whole trace; only the
  remaining *candidates* (first occurrences, wide recurrence gaps) run
  scalar, with exact victim selection keyed by last-occurrence lookups.
* **L2 (derived op stream).**  Every L2 side effect of both scalar routes
  is a plain ``Cache.access`` with ``fill_state=EXCLUSIVE`` semantics,
  from exactly three sources: a write L1-hit (dirtiness sync), a dirty L1
  victim writeback, and a refill of the missed line.  The op stream is
  scattered from the L1 outcomes, split per L2 set, and run through the
  same lockstep engine — one lane per set, seeded from the true L2 state,
  so no fixup is needed.
* **Timing (segmented cumsum).**  The local-clock recurrence
  ``issue = local + compute; local = issue + stall`` is an interleaved
  prefix sum, and ``np.cumsum`` is bit-identical to sequential float
  adds.  Stall values of non-refill-miss accesses take one of four
  precomputed constants (TLB hit/miss x L1 hit/L2 refill); only refill
  *misses* — which serialize through the address-phase sequencer and the
  DRAM banks — run scalar, calling the real sequencer/DRAM/data-bus
  objects between cumsum segments.
* **CPUs (one merge of the misses).**  When no line is in two CPUs'
  caches or traces, no access snoops another CPU's line, so each CPU's
  L1, TLB and L2 oracles run on its own segments unchanged.  Only the
  refill misses meet, in the shared sequencer, DRAM banks and data bus:
  a heap keyed ``(issue_ns, cpu)``, as in ``run_interleaved``, pulls
  each CPU's next miss and times it.  A segment's cache state commits
  right after its oracles, since none of it depends on timing; a CPU
  whose misses run out opens its next segment.  With non-negative
  compute and stall times each CPU's issue times never decrease, so
  this visits the misses in the reference's order; with one CPU it is
  the plain loop.

The engine needs a node and trace that are :func:`supported` — no
SHARED line anywhere, lines and addresses in ``[0, 2**63)``, and the
CPUs' lines pairwise disjoint.  ``replay_traces`` sends everything else
to the scalar loop; :func:`segments` hands it the pieces with other
addresses.  Stall models must be pure, non-negative functions of
``(latency_ns, compute_ns)`` — every model in :mod:`repro.cpu.pipeline`
is.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.cache import AccessType, MESIState

#: Structured dtype of an array-native trace (see repro.memory.trace_gen).
REF_DTYPE = np.dtype([("addr", np.int64), ("is_write", np.bool_)])

_EXCLUSIVE = int(MESIState.EXCLUSIVE)
_MODIFIED = int(MESIState.MODIFIED)
_SHARED = int(MESIState.SHARED)

#: L1 lane length.  Shorter chunks mean fewer lockstep steps (more lanes
#: in flight per step, amortising numpy dispatch) but more warmup
#: fixups; 128 balances the two for ``_SEGMENT``-long pieces on the fig7
#: geometry.
_L1_CHUNK = 128

#: Longest trace piece one engine pass takes.  The passes hold about 110
#: bytes of arrays per access, so a longer trace is replayed piece by
#: piece, each seeded from the state the previous one committed: the
#: working set stays bounded whatever the trace length.  Larger pieces
#: amortise more numpy dispatch; at 12288 a figure run's peak RSS stays
#: within 10% of the scalar loop's.
_SEGMENT = 12288

# ---------------------------------------------------------------------------
# Trace coercion
# ---------------------------------------------------------------------------


def coerce_trace(trace) -> np.ndarray:
    """Materialise any ``(addr, AccessType)`` iterable as a REF_DTYPE array.

    Structured arrays pass through untouched.  Raises ``OverflowError``
    for addresses outside int64 (callers fall back to the scalar paths).
    """
    if isinstance(trace, np.ndarray):
        if trace.dtype == REF_DTYPE:
            return trace
        if trace.dtype.names == ("addr", "is_write"):
            return trace.astype(REF_DTYPE)
    write = AccessType.WRITE
    return np.fromiter(((addr, access == write) for addr, access in trace),
                       dtype=REF_DTYPE)


def iter_refs(arr: np.ndarray) -> Iterator[Tuple[int, AccessType]]:
    """Adapt an array trace back to ``(int, AccessType)`` pairs for the
    scalar replay paths (INSTR collapses to READ, as everywhere else)."""
    read = AccessType.READ
    write = AccessType.WRITE
    addrs = arr["addr"].tolist()
    writes = arr["is_write"].tolist()
    for addr, is_write in zip(addrs, writes):
        yield addr, (write if is_write else read)


def _source(trace):
    """``(blocks, None)`` for a structured array or an iterable of them
    (one long trace in pieces), ``(None, pairs)`` for an iterable of
    ``(addr, AccessType)`` pairs."""
    if isinstance(trace, np.ndarray):
        return iter((trace,)), None
    pairs = iter(trace)
    first = next(pairs, None)
    if first is None:
        return iter(()), None
    rest = itertools.chain((first,), pairs)
    if isinstance(first, np.ndarray):
        return rest, None
    return None, rest


def iter_pairs(trace) -> Iterator[Tuple[int, AccessType]]:
    """Any trace as ``(addr, AccessType)`` pairs, for the scalar loops."""
    blocks, pairs = _source(trace)
    if blocks is None:
        return pairs
    return itertools.chain.from_iterable(map(iter_refs, blocks))


def segments(trace) -> Iterator:
    """Cut any trace into consecutive pieces of at most ``_SEGMENT``
    accesses: REF_DTYPE arrays, or, where an address falls outside
    ``[0, 2**63)`` and so outside the engine, the piece's list of pairs.
    """
    blocks, pairs = _source(trace)
    return _pair_pieces(pairs) if blocks is None else _array_pieces(blocks)


def _pair_pieces(pairs) -> Iterator:
    write = AccessType.WRITE
    while True:
        piece = list(itertools.islice(pairs, _SEGMENT))
        if not piece:
            return
        try:
            arr = np.fromiter(((addr, access == write)
                               for addr, access in piece),
                              dtype=REF_DTYPE, count=len(piece))
        except (OverflowError, ValueError):  # an address above int64
            yield piece
        else:
            yield arr if int(arr["addr"].min()) >= 0 else piece


def _array_pieces(blocks) -> Iterator:
    """Slice long arrays and merge short ones (a stream of matrix rows)
    into full segments."""
    pending: List[np.ndarray] = []
    size = 0
    for block in blocks:
        pending.append(coerce_trace(block))
        size += len(block)
        if size < _SEGMENT:
            continue
        merged = pending[0] if len(pending) == 1 else np.concatenate(pending)
        cut = size - size % _SEGMENT
        for start in range(0, cut, _SEGMENT):
            yield _checked(merged[start:start + _SEGMENT])
        pending = [merged[cut:]]
        size -= cut
    if size:
        yield _checked(np.concatenate(pending))


def _checked(arr: np.ndarray):
    """``arr``, or its pairs when a negative address keeps it from the
    engine (``-1`` marks empty ways)."""
    return arr if int(arr["addr"].min()) >= 0 else list(iter_refs(arr))


# ---------------------------------------------------------------------------
# The lockstep LRU engine
# ---------------------------------------------------------------------------


def _lockstep(tags: np.ndarray, writes: np.ndarray, lane_start: np.ndarray,
              lane_len: np.ndarray, ways: int,
              init_tags: np.ndarray, init_dirty: np.ndarray):
    """Advance many independent LRU sets one access per step, in lockstep.

    Lane ``j`` is the slice ``[lane_start[j], lane_start[j] + lane_len[j])``
    of the ``tags``/``writes`` streams; ``init_tags`` is ``(lanes, ways)``
    in LRU->MRU order, ``-1`` marking empty ways.

    Returns per-access ``(hit, victim_tag, victim_dirty)`` arrays in stream
    order and the final ``(tags, dirty, age)`` state in input lane order.
    Empty ways are seeded with the lowest ages so misses fill them before
    evicting, exactly like ``Cache.access``.
    """
    nl = len(lane_len)
    total = len(tags)
    if nl == 0:
        return (np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=bool), init_tags, init_dirty, init_tags)
    order = np.argsort(-lane_len, kind="stable")
    inv = np.empty(nl, dtype=np.int64)
    inv[order] = np.arange(nl)
    lens = lane_len[order]
    lmax = int(lens[0])
    # Step-major ragged layout: the lanes active at step t are a prefix
    # of the length-sorted order, stored as one contiguous row of
    # ``active[t]`` cells, so no cell is padding.
    active = np.searchsorted(-lens, -np.arange(lmax), side="left")
    row_off = np.zeros(lmax + 1, dtype=np.int64)
    np.cumsum(active, out=row_off[1:])
    cell = np.repeat(np.arange(lmax, dtype=np.int64), active)
    cell += lane_start[order][np.arange(total, dtype=np.int64)
                              - np.repeat(row_off[:-1], active)]
    tags_sm = tags[cell]
    writes_sm = writes[cell]

    slot = np.arange(ways, dtype=np.int64)
    st_tags = tags.dtype.type(0) + init_tags[order]  # fresh C copy
    st_dirty = init_dirty[order] | False
    st_age = np.ascontiguousarray(
        np.where(st_tags >= 0, slot + ways, slot - ways))
    flat_tags = st_tags.reshape(-1)
    flat_dirty = st_dirty.reshape(-1)
    flat_age = st_age.reshape(-1)

    out_hit = np.empty(total, dtype=bool)
    out_vt = np.empty(total, dtype=np.int64)
    out_vd = np.empty(total, dtype=bool)
    row_base = np.arange(nl, dtype=np.int64) * ways
    base_age = 2 * ways
    # A matching way outranks every age (ages are >= -ways), so one
    # masked argmin picks the hit way *or* the LRU victim, and the score
    # value at the pick says which it was.  Victim tag/dirty are stored
    # raw and masked by the hit array after the loop, off the hot path.
    sentinel = np.int64(-2 * ways - 1)
    for t, lo, hi in zip(range(lmax), row_off[:-1].tolist(),
                         row_off[1:].tolist()):
        a = hi - lo
        cur = tags_sm[lo:hi]
        eq = st_tags[:a] == cur[:, None]
        score = np.where(eq, sentinel, st_age[:a])
        way = score.argmin(axis=1)
        idx = row_base[:a] + way
        hit = score.reshape(-1)[idx] == sentinel
        vd = flat_dirty[idx]
        out_hit[lo:hi] = hit
        out_vt[lo:hi] = flat_tags[idx]
        out_vd[lo:hi] = vd
        flat_tags[idx] = cur
        flat_dirty[idx] = (vd & hit) | writes_sm[lo:hi]
        flat_age[idx] = base_age + t
    out_vt[out_hit] = -1
    out_vd &= ~out_hit
    hit_s = np.empty(total, dtype=bool)
    vt_s = np.empty(total, dtype=np.int64)
    vd_s = np.empty(total, dtype=bool)
    hit_s[cell] = out_hit
    vt_s[cell] = out_vt
    vd_s[cell] = out_vd
    return hit_s, vt_s, vd_s, st_tags[inv], st_dirty[inv], st_age[inv]


def _state_dicts(fin_tags, fin_dirty, fin_age) -> List[Dict[int, bool]]:
    """Engine state rows -> ordered ``tag -> dirty`` dicts (LRU first)."""
    orders = np.argsort(fin_age, axis=1, kind="stable")
    sorted_tags = np.take_along_axis(fin_tags, orders, axis=1).tolist()
    sorted_dirty = np.take_along_axis(fin_dirty, orders, axis=1).tolist()
    return [{tag: dirty for tag, dirty in zip(row_t, row_d) if tag >= 0}
            for row_t, row_d in zip(sorted_tags, sorted_dirty)]


# ---------------------------------------------------------------------------
# Lane planning
# ---------------------------------------------------------------------------


class _LanePlan:
    """One cache structure's lane decomposition plus lockstep results."""

    __slots__ = ("ways", "order", "lane_set", "lane_start", "lane_len",
                 "lane_first", "tags", "writes", "hit", "vtag", "vdirty",
                 "final")


def _plan_lanes(values, writes, sidx, n_sets: int, cache_sets, ways: int,
                chunk) -> _LanePlan:
    """Sort a tag stream by set index, cut per-set runs into lanes of at
    most ``chunk`` accesses (``None`` = one lane per set), seed each set's
    first lane from the true state, and run the lanes in lockstep.

    Lanes are contiguous slices of the sorted stream, which the lockstep
    outcomes come back in as well.
    """
    plan = _LanePlan()
    plan.ways = ways
    # Set indices are tiny ints; int32 halves the radix passes of the
    # stable argsort that groups the stream by set.
    order = np.argsort(sidx.astype(np.int32, copy=False), kind="stable")
    plan.order = order
    counts = np.bincount(sidx, minlength=n_sets)
    used = np.flatnonzero(counts)
    step = counts[used] if chunk is None else np.full(len(used), chunk)
    per_set = -(-counts[used] // step)  # lanes per set, rounded up
    lane_set = np.repeat(used, per_set)
    lane_step = np.repeat(step, per_set)
    off = lane_step * (np.arange(len(lane_set))
                       - np.repeat(np.cumsum(per_set) - per_set, per_set))
    nl = len(lane_set)
    plan.lane_set = lane_set.tolist()
    plan.lane_first = (off == 0).tolist()
    plan.lane_start = (np.cumsum(counts) - counts)[lane_set] + off
    plan.lane_len = np.minimum(lane_step, counts[lane_set] - off)
    plan.tags = values[order]
    plan.writes = writes[order]
    init_tags = np.full((nl, ways), -1, dtype=np.int64)
    init_dirty = np.zeros((nl, ways), dtype=bool)
    for j in np.flatnonzero(off == 0).tolist():
        line_set = cache_sets[int(lane_set[j])]
        if line_set:
            keys = list(line_set.keys())
            init_tags[j, :len(keys)] = keys
            init_dirty[j, :len(keys)] = [int(v) == _MODIFIED
                                         for v in line_set.values()]
    plan.hit, plan.vtag, plan.vdirty, *final = _lockstep(
        plan.tags, plan.writes, plan.lane_start, plan.lane_len, ways,
        init_tags, init_dirty)
    plan.final = tuple(final)
    return plan


# ---------------------------------------------------------------------------
# Per-job phases
# ---------------------------------------------------------------------------


class _Job:
    """One segment of CPU ``cpu``'s trace through the oracle passes."""

    __slots__ = (
        "memory", "cpu", "n",
        "addr", "is_write",
        "l1_plan", "l1_hit", "l1_vtag", "l1_vdirty", "l1_final",
        "tlb_miss", "tlb_evictions", "tlb_final",
        "op_addr", "op_write", "op_refill", "op_src",
        "l2_plan", "op_hit", "op_vtag", "op_vdirty", "l2_final",
    )

    def __init__(self, memory, cpu: int, segment: np.ndarray):
        self.memory = memory
        self.cpu = cpu
        self.n = len(segment)
        self.addr = np.ascontiguousarray(segment["addr"], dtype=np.int64)
        self.is_write = np.ascontiguousarray(segment["is_write"],
                                             dtype=bool)


def node_lines(memory) -> Optional[List[np.ndarray]]:
    """Per CPU, the line tags its L1 and L2 hold; ``None`` when any cache
    of the node holds a SHARED line or a line of an address outside
    ``[0, 2**63)``."""
    limit = 2 ** 63 >> memory.l1s[0]._set_shift
    lines = []
    for l1, l2 in zip(memory.l1s, memory.l2s):
        tags: List[int] = []
        for cache in (l1, l2):
            for line_set in cache._sets:
                for tag, state in line_set.items():
                    if int(state) == _SHARED or not 0 <= tag < limit:
                        return None
                    tags.append(tag)
        lines.append(np.array(tags, dtype=np.int64))
    return lines


def supported(memory, pieces: Sequence[Sequence],
              lines: Optional[List[np.ndarray]]) -> bool:
    """Whether the engine can replay ``pieces[c]`` (pieces of
    :func:`segments`) on CPU ``c`` of ``memory``.

    Every piece must be an array, no cache may hold a SHARED line or a
    line outside ``[0, 2**63)``, and the CPUs' line sets -- the lines
    their pieces touch and the lines their caches already hold -- must
    be pairwise disjoint.  Then no access ever snoops a line in another
    CPU's caches, so each CPU's caches evolve on their own and only the
    L2 misses meet, in the shared sequencer and memory path.  ``lines``
    is :func:`node_lines` of ``memory``.
    """
    if lines is None or any(isinstance(piece, list)
                            for own in pieces for piece in own):
        return False
    per_cpu = list(pieces) + [()] * (len(lines) - len(pieces))
    busy = [(resident, cpu_pieces)
            for resident, cpu_pieces in zip(lines, per_cpu)
            if resident.size or cpu_pieces]
    if len(busy) < 2:
        return True
    shift = memory.l1s[0]._set_shift
    tags = np.concatenate([
        _distinct(np.concatenate(
            [resident] + [_distinct(piece["addr"] >> shift)
                          for piece in cpu_pieces]))
        for resident, cpu_pieces in busy])
    return len(_distinct(tags)) == len(tags)


def _distinct(tags: np.ndarray) -> np.ndarray:
    """The distinct values of ``tags``, sorted.  The stable sort's code
    is the engine's own; ``np.unique`` would map about 2.7 MB of fresh
    pages on its first call."""
    tags = np.sort(tags, kind="stable")
    return tags[np.append(True, tags[1:] != tags[:-1])]


def _plan_l1(job: _Job) -> None:
    l1 = job.memory.l1s[job.cpu]
    tag = job.addr >> l1._set_shift
    sidx = tag & l1._set_mask
    job.l1_plan = _plan_lanes(tag, job.is_write, sidx, len(l1._sets),
                              l1._sets, l1._ways, _L1_CHUNK)


def _fixup_l1(job: _Job) -> None:
    """Make chunked-lane outcomes exact, then scatter to trace order.

    Walks each set's chunks in order, carrying the true state across the
    chunk boundary: chunk 0 is exact by seeding; later chunks get a
    scalar warmup over ``[0, v]`` (``v`` = position of the ``ways``-th
    distinct tag) plus sparse dirty-bit repairs past ``v``.  The warmup
    loop simultaneously finds ``v``, replays the prefix from the true
    state, and tracks which tags the from-empty engine lane marked dirty
    (before convergence the engine cannot evict, so its dirty bit is
    exactly "was written in ``[0, v]``").
    """
    plan = job.l1_plan
    ways = plan.ways
    hit, vtag, vdirty = plan.hit, plan.vtag, plan.vdirty
    fin_tags, fin_dirty, fin_age = plan.final
    states = _state_dicts(fin_tags, fin_dirty, fin_age)
    # Convergence point per lane, found vectorially: in a from-empty
    # engine lane every pre-convergence miss is a new distinct tag, so
    # ``v`` is exactly the position of the ``ways``-th engine miss; a
    # lane with fewer misses gets ``v >= length``, i.e. non-converged.
    miss_pos = np.flatnonzero(~hit)
    kth = np.searchsorted(miss_pos, plan.lane_start) + (ways - 1)
    kth_pos = np.append(miss_pos, len(hit))[np.minimum(kth, len(miss_pos))]
    v_arr = (kth_pos - plan.lane_start).tolist()
    final_states: Dict[int, Dict[int, bool]] = {}
    state: Dict[int, bool] = {}
    for j, s in enumerate(plan.lane_set):
        length = int(plan.lane_len[j])
        lo = int(plan.lane_start[j])
        if plan.lane_first[j]:
            state = states[j]
            final_states[s] = state
            continue
        v = v_arr[j] if v_arr[j] < length else None
        upto_v = length if v is None else v + 1
        tags_l = plan.tags[lo:lo + upto_v].tolist()
        writes_l = plan.writes[lo:lo + upto_v].tolist()
        written = set()
        o_hit: List[bool] = []
        o_vt: List[int] = []
        o_vd: List[bool] = []
        for tg, w in zip(tags_l, writes_l):
            if tg in state:
                dirty = state.pop(tg)
                state[tg] = dirty or w
                o_hit.append(True)
                o_vt.append(-1)
                o_vd.append(False)
            else:
                if len(state) >= ways:
                    victim = next(iter(state))
                    victim_dirty = state.pop(victim)
                else:
                    victim, victim_dirty = -1, False
                state[tg] = w
                o_hit.append(False)
                o_vt.append(victim)
                o_vd.append(victim_dirty)
            if w:
                written.add(tg)
        upto = lo + len(o_hit)
        hit[lo:upto] = o_hit
        vtag[lo:upto] = o_vt
        vdirty[lo:upto] = o_vd
        if v is None:
            # Fewer than `ways` distinct tags: the whole lane was just
            # replayed scalar and `state` (aliased by final_states[s])
            # already holds the true final state.
            continue
        carried: Dict[int, bool] = {}
        row_vt = None
        for tg, true_dirty in state.items():
            if (tg in written) == true_dirty:
                continue
            if row_vt is None:
                row_tags = plan.tags[lo:lo + length]
                row_writes = plan.writes[lo:lo + length]
                row_vt = vtag[lo:lo + length]
            occ = np.nonzero((row_tags == tg) & row_writes)[0]
            occ = occ[occ > v]
            evs = np.nonzero(row_vt == tg)[0]
            evs = evs[evs > v]
            first_write = int(occ[0]) if occ.size else length
            first_evict = int(evs[0]) if evs.size else length
            if first_evict < first_write:
                vdirty[lo + first_evict] = true_dirty
            elif first_write == length and first_evict == length:
                carried[tg] = true_dirty
        state = states[j]
        state.update(carried)
        final_states[s] = state

    n = job.n
    job.l1_hit = np.empty(n, dtype=bool)
    job.l1_vtag = np.empty(n, dtype=np.int64)
    job.l1_vdirty = np.empty(n, dtype=bool)
    job.l1_hit[plan.order] = hit
    job.l1_vtag[plan.order] = vtag
    job.l1_vdirty[plan.order] = vdirty
    job.l1_final = final_states
    job.l1_plan = None


# ---------------------------------------------------------------------------
# TLB phase
# ---------------------------------------------------------------------------


def _run_tlb_scalar(job: _Job, pages, resident: Dict[int, None],
                    capacity: int) -> None:
    """Plain dict-LRU TLB replay (``Tlb.access`` semantics, evict before
    insert) — the fallback when the trace is miss-dominated."""
    miss = np.zeros(job.n, dtype=bool)
    evictions = 0
    for i, page in enumerate(pages.tolist()):
        if page in resident:
            del resident[page]
            resident[page] = None
        else:
            if len(resident) >= capacity:
                del resident[next(iter(resident))]
                evictions += 1
            resident[page] = None
            miss[i] = True
    job.tlb_miss = miss
    job.tlb_evictions = evictions
    job.tlb_final = resident


def _run_tlb(job: _Job) -> None:
    """Fully-associative LRU TLB oracle via a previous-occurrence filter.

    An access whose page recurred within the last ``capacity`` accesses
    touched at most ``capacity - 1`` other pages in between, so it is a
    guaranteed hit — no residency bookkeeping needed.  Only *candidate*
    accesses (first occurrences, or recurrence gaps wider than the
    capacity) can change the resident set, and all of those run scalar:
    a membership test, plus on a miss an exact LRU victim search keyed by
    each resident page's last occurrence (pages untouched since the
    initial state are older than every touched page, in their original
    dict order).  Recency between candidates never needs materialising.
    """
    tlb = job.memory.tlbs[job.cpu]
    pages = job.addr >> tlb._page_shift
    capacity = tlb.config.entries
    resident: Dict[int, None] = dict(tlb._entries)
    n = job.n

    sort_key = pages
    if int(pages.max()) < 2 ** 31:
        sort_key = pages.astype(np.int32)
    order = np.argsort(sort_key, kind="stable")
    sorted_pages = pages[order]
    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = sorted_pages[1:] == sorted_pages[:-1]
    # Candidate detection directly in sorted space: within a page group
    # consecutive entries of ``order`` are that page's successive
    # occurrence positions, so the recurrence distance is their diff.
    dist_ok = np.zeros(n, dtype=bool)
    dist_ok[1:] = same[1:] & ((order[1:] - order[:-1]) <= capacity)
    cand_pos = order[~dist_ok]
    if len(cand_pos) > n // 8:
        _run_tlb_scalar(job, pages, resident, capacity)
        return
    cand_pos.sort()

    # Page-group bounds into ``order`` (ascending occurrence positions),
    # for last-touch lookups; one shared list avoids per-page tolist().
    starts = np.nonzero(~same)[0]
    ends = np.append(starts[1:], n)
    bounds: Dict[int, Tuple[int, int]] = {}
    for b, e in zip(starts.tolist(), ends.tolist()):
        bounds[int(sorted_pages[b])] = (b, e)
    order_list = memoryview(order)  # indexable without an int per entry
    init_rank = {page: rank - capacity
                 for rank, page in enumerate(resident)}

    miss = np.zeros(n, dtype=bool)
    evictions = 0
    from bisect import bisect_left
    for i, page in zip(cand_pos.tolist(), pages[cand_pos].tolist()):
        if page in resident:
            continue
        miss[i] = True
        if len(resident) >= capacity:
            victim = None
            victim_key = None
            for q in resident:
                be = bounds.get(q)
                if be is None:
                    last = init_rank[q]
                else:
                    b, e = be
                    k = bisect_left(order_list, i, b, e)
                    last = order_list[k - 1] if k > b else init_rank[q]
                if victim_key is None or last < victim_key:
                    victim_key = last
                    victim = q
            del resident[victim]
            evictions += 1
        resident[page] = None

    # Final recency order: initial pages never touched keep their original
    # relative order and precede everything touched; touched resident
    # pages order by overall last occurrence.
    untouched = []
    touched = []
    for q in resident:
        be = bounds.get(q)
        if be is None:
            untouched.append(q)
        else:
            touched.append((order_list[be[1] - 1], q))
    touched.sort()
    final: Dict[int, None] = {q: None for q in untouched}
    for _, q in touched:
        final[q] = None
    job.tlb_miss = miss
    job.tlb_evictions = evictions
    job.tlb_final = final


# ---------------------------------------------------------------------------
# L2 phase: derived op stream
# ---------------------------------------------------------------------------


def _plan_l2(job: _Job) -> None:
    """Scatter the three L2 op sources out of the L1 outcomes.

    Per access, in reference order: a write L1-hit syncs dirtiness (WH); an
    L1 miss first writes back a dirty victim (VWB), then refills the line
    (REFILL).  Every op is a plain ``Cache.access`` on the private L2.
    """
    l1 = job.memory.l1s[job.cpu]
    l2 = job.memory.l2s[job.cpu]
    addr, is_write = job.addr, job.is_write
    l1_hit, vdirty = job.l1_hit, job.l1_vdirty

    wh = l1_hit & is_write
    l1_miss = ~l1_hit
    vwb = l1_miss & vdirty
    counts = wh.astype(np.int64) + l1_miss + vwb
    cum = np.cumsum(counts)
    total = int(cum[-1])
    offsets = cum
    offsets -= counts
    op_addr = np.empty(total, dtype=np.int64)
    op_write = np.empty(total, dtype=bool)
    op_refill = np.zeros(total, dtype=bool)
    op_src = np.empty(total, dtype=np.int64)

    # Position lists once per source; every later access is a short
    # gather instead of another O(n) boolean-mask pass.
    wh_pos = np.nonzero(wh)[0]
    vwb_pos = np.nonzero(vwb)[0]
    miss_pos = np.nonzero(l1_miss)[0]
    idx = offsets[wh_pos]
    op_addr[idx] = addr[wh_pos]
    op_write[idx] = True
    op_src[idx] = wh_pos
    idx = offsets[vwb_pos]
    op_addr[idx] = job.l1_vtag[vwb_pos] << l1._set_shift
    op_write[idx] = True
    op_src[idx] = vwb_pos
    idx = offsets[miss_pos] + vwb[miss_pos]
    op_addr[idx] = addr[miss_pos]
    op_write[idx] = is_write[miss_pos]
    op_refill[idx] = True
    op_src[idx] = miss_pos

    job.op_addr, job.op_write = op_addr, op_write
    job.op_refill, job.op_src = op_refill, op_src

    tag = op_addr >> l2._set_shift
    sidx = tag & l2._set_mask
    job.l2_plan = _plan_lanes(tag, op_write, sidx, len(l2._sets), l2._sets,
                              l2._ways, None)


def _gather_l2(job: _Job) -> None:
    """Per-set L2 lanes are exact (true seed, no chunking): just scatter
    outcomes back to op order and keep the final states for the commit."""
    plan = job.l2_plan
    total = len(job.op_addr)
    fin_tags, fin_dirty, fin_age = plan.final
    states = _state_dicts(fin_tags, fin_dirty, fin_age)
    job.l2_final = {s: states[j] for j, s in enumerate(plan.lane_set)}
    job.op_hit = np.empty(total, dtype=bool)
    job.op_vtag = np.empty(total, dtype=np.int64)
    job.op_vdirty = np.empty(total, dtype=bool)
    job.op_hit[plan.order] = plan.hit
    job.op_vtag[plan.order] = plan.vtag
    job.op_vdirty[plan.order] = plan.vdirty
    job.l2_plan = None


# ---------------------------------------------------------------------------
# Timing, stats, commit
# ---------------------------------------------------------------------------


class _Clock:
    """One committed segment's timing: its CPU's clock over it, paused
    at each slow access (a refill that misses L2) for the merge to serve.
    ``state`` is the CPU's ``CpuRunResult``, continued in place."""

    __slots__ = ("memory", "compute_ns", "stall", "state", "n",
                 "slow_pos", "slow_addr", "slow_tlb_miss", "wb_addr",
                 "next_slow", "stall_arr", "buf", "seg_start", "local",
                 "queueing")

    def __init__(self, job: _Job, compute_ns: float, stall, state):
        memory = job.memory
        self.memory = memory
        self.compute_ns = compute_ns
        self.stall = stall
        self.state = state
        self.n = job.n
        l1_hit_ns = memory.l1_hit_ns
        l2_hit_ns = memory.l2_hit_ns
        tlb_miss_ns = memory.tlb_miss_ns

        # Slow accesses serialize through the sequencer and DRAM, in
        # trace order (``op_src`` ascends).
        dram = job.op_refill & ~job.op_hit
        slow_pos = job.op_src[dram]
        self.slow_pos = slow_pos.tolist()
        self.slow_addr = job.addr[slow_pos].tolist()
        self.slow_tlb_miss = job.tlb_miss[slow_pos].tolist()
        victim = job.op_vtag[dram]
        self.wb_addr = np.where(
            (victim >= 0) & job.op_vdirty[dram],
            victim << memory.l2s[job.cpu]._set_shift, -1).tolist()
        self.next_slow = 0

        # The four fast stall constants, argument grouping per the
        # reference.
        stall_consts = np.array([
            stall(0.0 + l1_hit_ns, compute_ns),
            stall((0.0 + l1_hit_ns) + l2_hit_ns, compute_ns),
            stall(tlb_miss_ns + l1_hit_ns, compute_ns),
            stall((tlb_miss_ns + l1_hit_ns) + l2_hit_ns, compute_ns),
        ])
        key = job.tlb_miss.astype(np.int8) * 2 + ~job.l1_hit
        self.stall_arr = stall_consts[key]

        # ``buf`` interleaves the clock recurrence: a start value, then
        # per access its compute time and stall.  Runs between slow
        # accesses use disjoint slices, so each cumsum runs in place.
        self.buf = np.empty(2 * self.n + 1)
        self.buf[1::2] = compute_ns
        self.seg_start = 0
        self.local = state.finish_ns
        self.queueing = state.queueing_ns

    def _advance(self, hi: int) -> None:
        """Run the clock over the fast accesses ``[seg_start, hi)``."""
        lo = self.seg_start
        if hi > lo:
            seg = self.buf[2 * lo:2 * hi + 1]
            seg[0] = self.local
            seg[2::2] = self.stall_arr[lo:hi]
            seg.cumsum(out=seg)
            self.local = float(seg[-1])

    def next_issue(self) -> Optional[float]:
        """Run the clock up to the next slow access and return its issue
        time; ``None`` once every access is timed."""
        if self.next_slow == len(self.slow_pos):
            self._advance(self.n)
            return None
        self._advance(self.slow_pos[self.next_slow])
        return self.local + self.compute_ns

    def serve(self, issue: float) -> None:
        """Time the next slow access, issued at ``issue``, through the
        node's shared sequencer, DRAM banks and data bus."""
        memory = self.memory
        l1_hit_ns = memory.l1_hit_ns
        l2_hit_ns = memory.l2_hit_ns
        line = memory.config.l1.line_bytes
        k = self.next_slow
        si = self.slow_pos[k]
        victim_addr = self.wb_addr[k]
        translation = memory.tlb_miss_ns if self.slow_tlb_miss[k] else 0.0
        latency = translation + l1_hit_ns
        issue_bus = issue + latency + l2_hit_ns
        grant, phase_done = memory.sequencer.occupy(issue_bus)
        queueing = grant - issue_bus
        latency += l2_hit_ns + (phase_done - issue_bus)
        start, done = memory._memory_fetch(phase_done, self.slow_addr[k],
                                           line)
        queueing += start - phase_done
        latency += done - phase_done
        if victim_addr >= 0:
            memory._memory_fetch(phase_done, victim_addr, line)
        stall_ns = self.stall(latency, self.compute_ns)
        self.stall_arr[si] = stall_ns
        self.local = issue + stall_ns
        self.queueing += queueing
        self.seg_start = si + 1
        self.next_slow = k + 1

    def close(self) -> None:
        """Continue the replay's totals past this fully timed segment."""
        state = self.state
        n = self.n
        buf = self.buf
        state.finish_ns = self.local
        state.steps += n
        state.queueing_ns = self.queueing
        # Sequential sums continuing the previous segment's, like the
        # reference's per-access ``+=``.
        buf[0] = state.compute_ns
        buf[1:n + 1] = self.compute_ns
        state.compute_ns = float(np.cumsum(buf[:n + 1])[-1])
        buf[0] = state.stall_ns
        buf[1:n + 1] = self.stall_arr
        state.stall_ns = float(np.cumsum(buf[:n + 1])[-1])


def _commit(job: _Job) -> None:
    """Fold the oracle outcomes into the real caches and counters, with
    the same per-key attribution as the scalar routes.  No cache state
    depends on timing, so this runs before the segment is timed."""
    memory = job.memory
    cpu = job.cpu
    l1, l2, tlb = memory.l1s[cpu], memory.l2s[cpu], memory.tlbs[cpu]
    is_write, l1_hit = job.is_write, job.l1_hit
    vtag, vdirty = job.l1_vtag, job.l1_vdirty
    op_write, op_hit = job.op_write, job.op_hit
    op_vtag, op_vdirty = job.op_vtag, job.op_vdirty
    dram = job.op_refill & ~op_hit

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    def incr(counter, key, value) -> None:
        if value:
            counter.incr(key, value)

    incr(l1.stats, "read_hit", count(l1_hit & ~is_write))
    incr(l1.stats, "write_hit", count(l1_hit & is_write))
    incr(l1.stats, "read_miss", count(~l1_hit & ~is_write))
    incr(l1.stats, "write_miss", count(~l1_hit & is_write))
    incr(l1.stats, "writeback", count(vdirty))
    incr(l1.stats, "clean_evict", count((vtag >= 0) & ~vdirty))

    incr(l2.stats, "read_hit", count(op_hit & ~op_write))
    incr(l2.stats, "write_hit", count(op_hit & op_write))
    incr(l2.stats, "read_miss", count(~op_hit & ~op_write))
    incr(l2.stats, "write_miss", count(~op_hit & op_write))
    incr(l2.stats, "writeback", count((op_vtag >= 0) & op_vdirty))
    incr(l2.stats, "clean_evict", count((op_vtag >= 0) & ~op_vdirty))

    tlb_misses = count(job.tlb_miss)
    incr(tlb.stats, "hits", job.n - tlb_misses)
    incr(tlb.stats, "misses", tlb_misses)
    incr(tlb.stats, "evictions", job.tlb_evictions)

    refill_hits = count(job.op_refill & op_hit)
    incr(memory.domain.stats, "hit", refill_hits)
    incr(memory.domain.stats, "miss", count(dram))
    incr(memory.stats, "l1_hits", count(l1_hit))
    incr(memory.stats, "tlb_misses", tlb_misses)
    incr(memory.stats, "l2_hits", refill_hits)
    incr(memory.stats, "memory_accesses", count(dram))
    incr(memory.stats, "writebacks",
         count(dram & (op_vtag >= 0) & op_vdirty))

    for cache, finals in ((l1, job.l1_final), (l2, job.l2_final)):
        for s, state in finals.items():
            line_set = cache._sets[s]
            line_set.clear()
            for tag, dirty in state.items():
                line_set[tag] = _MODIFIED if dirty else _EXCLUSIVE
    tlb._entries.clear()
    for page in job.tlb_final:
        tlb._entries[int(page)] = None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _open(memory, cpu: int, segment: np.ndarray, compute_ns: float,
          stall_model, state) -> _Clock:
    """Run CPU ``cpu``'s cache and TLB oracles over one segment, from the
    state its previous segment committed, commit the outcome, and return
    the segment's clock.  Only the clock's arrays outlive the call."""
    job = _Job(memory, cpu, segment)
    _plan_l1(job)
    _fixup_l1(job)
    _run_tlb(job)
    _plan_l2(job)
    _gather_l2(job)
    _commit(job)
    return _Clock(job, compute_ns, stall_model, state)


def replay(memory, pieces: Sequence[Iterable[np.ndarray]],
           compute_ns: float, stall_models, states) -> None:
    """Replay the array pieces ``pieces[c]`` on CPU ``c`` of a node that
    is :func:`supported` for them, continuing ``states[c]`` (the CPU's
    ``CpuRunResult`` so far) in place.

    Each CPU's segments run through the oracles on their own.  Their L2
    misses, the only accesses that reach the shared sequencer, DRAM
    banks and data bus, are merged on ``(issue_ns, cpu)`` as in
    ``run_interleaved``, so the shared resources see the reference's
    order.  A CPU's next segment is opened once its current one is
    timed.
    """
    sources = [iter(own) for own in pieces]
    clocks: List[Optional[_Clock]] = [None] * len(pieces)

    def next_miss(cpu: int) -> Optional[float]:
        """Open CPU ``cpu``'s segments until one has a slow access left;
        its issue time, or ``None`` when the CPU's trace is done."""
        clock = clocks[cpu]
        issue = None if clock is None else clock.next_issue()
        while issue is None:
            if clock is not None:
                clock.close()
                clock = clocks[cpu] = None  # free it before the next
            segment = next(sources[cpu], None)
            if segment is None:
                return None
            clock = clocks[cpu] = _open(memory, cpu, segment, compute_ns,
                                        stall_models[cpu], states[cpu])
            issue = clock.next_issue()
        return issue

    heap = []
    for cpu in range(len(pieces)):
        issue = next_miss(cpu)
        if issue is not None:
            heap.append((issue, cpu))
    heapq.heapify(heap)
    while heap:
        issue, cpu = heap[0]
        clocks[cpu].serve(issue)
        issue = next_miss(cpu)
        if issue is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (issue, cpu))
