"""Numpy-vectorized trace replay: array kernels over trace segments.

``replay_traces`` sends every single-trace replay to this module first,
and every multi-trace replay whose CPUs touch pairwise disjoint lines.
The contract: the replay must be *access-for-access identical* to the
reference ``run_interleaved`` path — same hit/miss/evict/upgrade/TLB
counters, same float operation order, hence bit-identical timing.  The
representation changes, the semantics do not.

How a dict-LRU simulation becomes array code
--------------------------------------------

The reference updates a few dict entries per access.  Here a trace is
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
* **Repeats.**  Before the lanes run, each set's stream is collapsed:
  an access to the line its set's previous access touched is a hit on
  the MRU way, which keeps the LRU order and only ORs the dirty bit, so
  it folds into the first access of its run (writes OR-ed) and comes
  back as a hit with no victim.  MatMult's L1 set streams repeat at
  46-72%, HINT's at under 1%.
* **Direct-mapped (closed form).**  A one-way set's collapsed stream
  needs no simulation: its first access hits exactly when it touches
  the resident line, and every later access misses with the previous
  line as victim, dirty when its run wrote.  Such a cache (Sun's L1 and
  L2) runs no lockstep and no L1 warmup, one lane per set.
* **TLB (previous-occurrence filter).**  An access whose page recurred
  within the last ``capacity`` accesses is a guaranteed LRU hit, so one
  argsort of the page column proves almost the whole trace; only the
  remaining *candidates* (first occurrences, wide recurrence gaps) run
  scalar, with exact victim selection keyed by last-occurrence lookups.
* **L2 (derived op stream).**  On a :func:`supported` node every L2
  side effect of an access is a plain ``Cache.access`` with
  ``fill_state=EXCLUSIVE`` semantics, from exactly three sources: a
  write L1-hit (dirtiness sync), a dirty L1 victim writeback, and a
  refill of the missed line.  The op stream is
  scattered from the L1 outcomes, split per L2 set, and run through the
  same lockstep engine — one lane per set, seeded from the true L2 state,
  so no fixup is needed.
* **Timing (segmented cumsum).**  The local-clock recurrence
  ``issue = local + compute; local = issue + stall`` is an interleaved
  prefix sum, and ``np.cumsum`` is bit-identical to sequential float
  adds.  Stall values of non-refill-miss accesses take one of four
  precomputed constants (TLB hit/miss x L1 hit/L2 refill); only refill
  *misses* — which serialize through the address-phase sequencer and the
  DRAM banks — run scalar between the fast runs, each served by the
  reference's own ``MultiprocessorMemory.serve_miss``.  A long fast run
  is one cumsum; a short one (``_SHORT_RUN``) the same adds in a plain
  float loop.
* **CPUs (one merge of the misses).**  When no line is in two CPUs'
  caches or traces, no access snoops another CPU's line, so each CPU's
  L1, TLB and L2 oracles run on its own segments unchanged.  Only the
  refill misses meet, in the shared sequencer, DRAM banks and data bus,
  which must see them in the order of ``run_interleaved``'s heap keyed
  ``(issue_ns, cpu)``.  The CPU with the earliest next miss serves its
  misses in one loop (:meth:`_Clock.run`) for as long as each issues
  before the other CPUs' earliest, opening its next segment whenever
  one is timed; only then does a heap pick the next CPU.  A segment's
  cache state commits right after its oracles, since none of it
  depends on timing.  With non-negative compute and stall times each
  CPU's issue times never decrease, so this visits the misses in the
  reference's order; with one CPU it is one loop per segment.
* **Plans (one oracle pass per distinct segment).**  The oracles'
  outcome for a segment, its *plan*, is free of timing: counter totals,
  the final contents of the sets and TLB it touched, the stall class of
  each access and the slow accesses.  Applying a plan to a CPU commits
  it and starts the segment's clock.  One plan serves every CPU, on
  this node or another replayed beside it, whose segment is the planned
  one shifted by an offset ``delta`` that is a multiple of each L1 and
  L2 set span and of the TLB page, with the same writes, from the
  planned CPU's starting cache and TLB state shifted by ``delta``: then
  every outcome is the plan's, shifted.  All of this is checked exactly
  (:func:`_shift_of`); any other segment gets its own pass.  fig8's dual
  run is such a case, its CPU 1 multiplying CPU 0's matrices 256 MiB
  up, and so is the one-CPU run ``smp_speedup`` replays beside it, and
  fig6's int run of a machine beside its double run (``delta`` 0).  The
  nodes advance in turns by segment index, so a plan lives only until
  the last CPU that may share it has opened its segment.

The engine needs a node and trace that are :func:`supported` — no
SHARED line anywhere, lines and addresses in ``[0, 2**63)``, and the
CPUs' lines pairwise disjoint.  ``replay_traces`` sends everything else
to the reference; :func:`segments` hands it the pieces with other
addresses.  Stall models must be pure, non-negative functions of
``(latency_ns, compute_ns)`` — every model in :mod:`repro.cpu.pipeline`
is.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.cache import AccessType, MESIState
from repro.memory.hierarchy import ServiceLevel

#: Structured dtype of an array-native trace (see repro.memory.trace_gen).
REF_DTYPE = np.dtype([("addr", np.int64), ("is_write", np.bool_)])

_EXCLUSIVE = int(MESIState.EXCLUSIVE)
_MODIFIED = int(MESIState.MODIFIED)
_SHARED = int(MESIState.SHARED)
_MEMORY = ServiceLevel.MEMORY  # every slow access is an L2 refill miss

#: L1 lane length.  Shorter chunks mean fewer lockstep steps (more lanes
#: in flight per step, amortising numpy dispatch) but more warmup
#: fixups; 128 balances the two for ``_SEGMENT``-long pieces on the fig7
#: geometry.
_L1_CHUNK = 128

#: Longest trace piece one engine pass takes.  The passes hold about 110
#: bytes of arrays per access, so a longer trace is replayed piece by
#: piece, each seeded from the state the previous one committed: the
#: working set stays bounded whatever the trace length.  Larger pieces
#: amortise more numpy dispatch; at 12288 the engine's arrays added under
#: 10% to a figure run's peak RSS when this was measured.
_SEGMENT = 12288

_INF = float("inf")

# ---------------------------------------------------------------------------
# Trace coercion
# ---------------------------------------------------------------------------


def coerce_trace(trace) -> np.ndarray:
    """Materialise any ``(addr, AccessType)`` iterable as a REF_DTYPE array.

    Structured arrays pass through untouched.  Raises ``OverflowError``
    for addresses outside int64 (callers fall back to the reference).
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
    reference replay (INSTR collapses to READ, as everywhere else)."""
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
    """Any trace as ``(addr, AccessType)`` pairs, for the reference."""
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
    """Cut long arrays and join short ones (a stream of matrix rows) into
    full segments.  Each segment is a fresh array, and while one is out
    this holds only what is still to come: a lazily consumed stream
    keeps at most one block alive."""
    pending: List[np.ndarray] = []
    size = 0
    for block in blocks:
        block = coerce_trace(block)
        while size + len(block) >= _SEGMENT:
            take = _SEGMENT - size
            pending.append(block[:take])
            block = block[take:]
            if len(block) < _SEGMENT:
                block = block.copy()  # the tail alone, so the block can go
            yield _checked(_joined(pending))
            size = 0
        if len(block):
            pending.append(block)
            size += len(block)
    if size:
        yield _checked(_joined(pending))


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """``parts`` joined into a fresh array; empties the list."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


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
    rank = np.arange(total, dtype=np.int64)
    rank -= np.repeat(row_off[:-1], active)
    cell += lane_start[order][rank]
    del rank
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
    del tags_sm, writes_sm
    out_vt[out_hit] = -1
    out_vd &= ~out_hit
    hit_s = np.empty(total, dtype=bool)
    vt_s = np.empty(total, dtype=np.int64)
    vd_s = np.empty(total, dtype=bool)
    hit_s[cell] = out_hit
    vt_s[cell] = out_vt
    vd_s[cell] = out_vd
    return hit_s, vt_s, vd_s, st_tags[inv], st_dirty[inv], st_age[inv]


def _sorted_rows(fin_tags, fin_dirty, fin_age):
    """Engine state rows' tags and dirty bits, each row LRU first."""
    orders = np.argsort(fin_age, axis=1, kind="stable")
    return (np.take_along_axis(fin_tags, orders, axis=1),
            np.take_along_axis(fin_dirty, orders, axis=1))


def _state_dicts(fin_tags, fin_dirty, fin_age) -> List[Dict[int, bool]]:
    """Engine state rows -> ordered ``tag -> dirty`` dicts (LRU first)."""
    sorted_tags, sorted_dirty = _sorted_rows(fin_tags, fin_dirty, fin_age)
    return [{tag: dirty for tag, dirty in zip(row_t, row_d) if tag >= 0}
            for row_t, row_d in zip(sorted_tags.tolist(),
                                    sorted_dirty.tolist())]


# ---------------------------------------------------------------------------
# Lane planning
# ---------------------------------------------------------------------------


class _LanePlan:
    """One cache structure's lane decomposition plus lockstep results."""

    __slots__ = ("ways", "order", "lane_set", "lane_start", "lane_len",
                 "lane_first", "tags", "writes", "hit", "vtag", "vdirty",
                 "final")


def _plan_lanes(values, writes, cache, chunk) -> _LanePlan:
    """Sort a stream of ``cache``'s line tags by set index, collapse each
    set's repeats, cut per-set runs into lanes of at most ``chunk``
    accesses (``None`` = one lane per set), seed each set's first lane
    from the true state, and run the lanes: in lockstep, or in closed
    form for a direct-mapped cache (:func:`_direct_mapped`).

    Lanes are contiguous slices of the sorted, collapsed stream, which
    the outcomes come back in as well; ``order`` maps it to stream
    positions, and an access it does not list is a repeat, a hit.
    ``values`` is consumed: it goes before the lanes run.
    """
    plan = _LanePlan()
    ways = plan.ways = cache._ways
    cache_sets = cache._sets
    # Set indices are tiny ints; int32 halves the radix passes of the
    # stable argsort that groups the stream by set.
    set_mask = cache._set_mask
    order = np.argsort((values & set_mask).astype(np.int32), kind="stable")
    tags = values[order]
    del values
    writes = writes[order]
    # An access to the line its set's previous access touched (equal
    # lines share a set) is a hit on the MRU way: it keeps the LRU order
    # and only ORs the dirty bit, so its run of repeats folds into the
    # run's first access, writes OR-ed.
    if len(tags):
        first = np.flatnonzero(np.append(True, tags[1:] != tags[:-1]))
        writes = np.logical_or.reduceat(writes, first)
        tags = tags[first]
        order = order[first]
        del first
    plan.order = order
    counts = np.bincount(tags & set_mask, minlength=len(cache_sets))
    used = np.flatnonzero(counts)
    if ways == 1:
        chunk = None
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
    plan.tags = tags
    plan.writes = writes
    del tags, writes
    # Each set's first lane holds the set's lines, LRU first.
    init_tags = np.full((nl, ways), -1, dtype=np.int64)
    init_dirty = np.zeros((nl, ways), dtype=bool)
    seeds = [cache_sets[s] for s in used.tolist()]
    sizes = np.fromiter(map(len, seeds), np.int64, len(seeds))
    held = int(sizes.sum())
    chain = itertools.chain.from_iterable
    rows = np.repeat(np.flatnonzero(off == 0), sizes)
    cols = np.arange(held) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    init_tags[rows, cols] = np.fromiter(chain(seeds), np.int64, held)
    init_dirty[rows, cols] = np.fromiter(
        chain(map(dict.values, seeds)), np.int64, held) == _MODIFIED
    del seeds, rows, cols
    solve = _direct_mapped if ways == 1 else _lockstep
    plan.hit, plan.vtag, plan.vdirty, *final = solve(
        plan.tags, plan.writes, plan.lane_start, plan.lane_len, ways,
        init_tags, init_dirty)
    plan.final = tuple(final)
    return plan


def _direct_mapped(tags: np.ndarray, writes: np.ndarray,
                   lane_start: np.ndarray, lane_len: np.ndarray, ways: int,
                   init_tags: np.ndarray, init_dirty: np.ndarray):
    """:func:`_lockstep`'s outcome for one-way sets, one lane per set,
    over a collapsed stream (no access repeats its predecessor's line).

    A set's first access hits exactly when it touches the resident line;
    every later one misses, and its victim is the line before it, dirty
    when any access of that line's run wrote (or, for the set's first
    run on a hit, the resident line was dirty).  The final state is each
    set's last line."""
    total = len(tags)
    init_tag = init_tags[:, 0]
    init_dirt = init_dirty[:, 0]
    hit = np.zeros(total, dtype=bool)
    first_hit = tags[lane_start] == init_tag
    hit[lane_start] = first_hit
    dirty = writes.copy()  # each run's line's dirty bit once it ends
    dirty[lane_start] |= first_hit & init_dirt
    vtag = np.empty(total, dtype=np.int64)
    vtag[1:] = tags[:-1]
    vtag[lane_start] = np.where(first_hit, -1, init_tag)
    vdirty = np.empty(total, dtype=bool)
    vdirty[1:] = dirty[:-1]
    vdirty[lane_start] = init_dirt & ~first_hit
    last = lane_start + lane_len - 1
    return (hit, vtag, vdirty, tags[last][:, None], dirty[last][:, None],
            np.zeros((len(last), 1), dtype=np.int64))


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
        "op_write", "op_refill", "op_src",
        "l2_plan", "op_hit", "op_vtag", "op_vdirty", "l2_final",
    )

    def __init__(self, memory, cpu: int, addr: np.ndarray,
                 is_write: np.ndarray):
        self.memory = memory
        self.cpu = cpu
        self.n = len(addr)
        self.addr = addr
        self.is_write = is_write


def node_lines(memory) -> Optional[List[np.ndarray]]:
    """Per CPU, the line tags its L1 and L2 hold; ``None`` when any cache
    of the node holds a SHARED line or a line of an address outside
    ``[0, 2**63)``."""
    limit = 2 ** 63 >> memory.l1s[0]._set_shift
    chain = itertools.chain.from_iterable
    lines = []
    for l1, l2 in zip(memory.l1s, memory.l2s):
        sets = l1._sets + l2._sets
        try:
            tags = np.fromiter(chain(sets), np.int64)
        except OverflowError:  # a line at or above 2**63
            return None
        states = np.fromiter(chain(map(dict.values, sets)), np.int64,
                             len(tags))
        if tags.size and (int(tags.min()) < 0 or int(tags.max()) >= limit
                          or (states == _SHARED).any()):
            return None
        lines.append(tags)
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
    job.l1_plan = _plan_lanes(job.addr >> l1._set_shift, job.is_write, l1,
                              _L1_CHUNK)


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

    job.l1_hit, job.l1_vtag, job.l1_vdirty = _scattered(plan, job.n)
    job.l1_final = final_states
    job.l1_plan = None


def _scattered(plan: _LanePlan, n: int):
    """A lane plan's ``(hit, victim_tag, victim_dirty)`` outcomes back in
    the order of its ``n``-access stream; a collapsed repeat hits."""
    hit = np.ones(n, dtype=bool)
    vtag = np.full(n, -1, dtype=np.int64)
    vdirty = np.zeros(n, dtype=bool)
    hit[plan.order] = plan.hit
    vtag[plan.order] = plan.vtag
    vdirty[plan.order] = plan.vdirty
    return hit, vtag, vdirty


# ---------------------------------------------------------------------------
# TLB phase
# ---------------------------------------------------------------------------


def _run_tlb_scalar(job: _Job, pages, resident: Dict[int, None],
                    capacity: int) -> None:
    """Plain dict-LRU TLB replay (``Tlb.access`` semantics, evict before
    insert) — the fallback when the trace is miss-dominated.  The pages
    become ints a block at a time, not all at once."""
    miss = np.zeros(job.n, dtype=bool)
    evictions = 0
    blocks = (pages[lo:lo + 1024].tolist()
              for lo in range(0, len(pages), 1024))
    for i, page in enumerate(itertools.chain.from_iterable(blocks)):
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
        del sort_key, order, sorted_pages, same, dist_ok, cand_pos
        _run_tlb_scalar(job, pages, resident, capacity)
        return
    cand_pos.sort()

    # Page-group bounds into ``order`` (ascending occurrence positions),
    # for last-touch lookups; one shared list avoids per-page tolist().
    starts = np.nonzero(~same)[0]
    ends = np.append(starts[1:], n)
    bounds: Dict[int, Tuple[int, int]] = dict(zip(
        sorted_pages[starts].tolist(), zip(starts.tolist(), ends.tolist())))
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
    """Derive the L2 op stream and run it through per-set lanes."""
    l2 = job.memory.l2s[job.cpu]
    job.l2_plan = _plan_lanes(_l2_ops(job) >> l2._set_shift, job.op_write,
                              l2, None)


def _l2_ops(job: _Job) -> np.ndarray:
    """Scatter the three L2 op sources out of the L1 outcomes; returns
    the ops' addresses.

    Per access, in reference order: a write L1-hit syncs dirtiness (WH); an
    L1 miss first writes back a dirty victim (VWB), then refills the line
    (REFILL).  Every op is a plain ``Cache.access`` on the private L2.
    """
    l1 = job.memory.l1s[job.cpu]
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

    job.op_write, job.op_refill, job.op_src = op_write, op_refill, op_src
    return op_addr


def _gather_l2(job: _Job) -> None:
    """Per-set L2 lanes are exact (true seed, no chunking): just scatter
    outcomes back to op order and keep the final states for the commit,
    as arrays: the sets, and their lines and dirty bits (LRU first)."""
    plan = job.l2_plan
    job.l2_final = (np.array(plan.lane_set, dtype=np.int64),
                    *_sorted_rows(*plan.final))
    job.op_hit, job.op_vtag, job.op_vdirty = _scattered(
        plan, len(job.op_write))
    job.l2_plan = None


# ---------------------------------------------------------------------------
# Plans: one oracle pass per distinct segment
# ---------------------------------------------------------------------------

#: The counters a plan carries, in commit order: ``(owner, key)``, the
#: owner being the CPU's L1, L2 or TLB, the coherence domain or the node.
_COUNTS = (
    ("l1", "read_hit"), ("l1", "write_hit"), ("l1", "read_miss"),
    ("l1", "write_miss"), ("l1", "writeback"), ("l1", "clean_evict"),
    ("l2", "read_hit"), ("l2", "write_hit"), ("l2", "read_miss"),
    ("l2", "write_miss"), ("l2", "writeback"), ("l2", "clean_evict"),
    ("tlb", "hits"), ("tlb", "misses"), ("tlb", "evictions"),
    ("domain", "hit"), ("domain", "miss"),
    ("node", "l1_hits"), ("node", "tlb_misses"), ("node", "l2_hits"),
    ("node", "memory_accesses"), ("node", "writebacks"),
)


class _Plan:
    """One segment's oracle outcome, free of timing: what committing and
    timing the segment on a CPU needs, at the planned CPU's addresses.

    ``counts`` follows :data:`_COUNTS`; ``l1_final`` maps each touched L1
    set to its final ``line -> dirty`` contents, ``l2_final`` holds the
    touched L2 sets with their final lines and dirty bits as arrays
    (``-1``: an empty way), and ``tlb_final`` lists the final TLB pages,
    all LRU first; ``stall_key`` classes each
    access's stall (2 x TLB miss + L1 miss); the ``slow_*`` arrays list
    the refills that miss L2, and ``wb_addr`` the dirty L2 victim each
    writes back (``-1``: none).  A plan that another CPU may still share
    also keeps its segment and the state it started from, ``None``
    otherwise (see :func:`_shift_of`).
    """

    __slots__ = ("geometry", "addr", "is_write", "start", "counts",
                 "l1_final", "l2_final", "tlb_final", "stall_key",
                 "slow_pos", "slow_addr", "slow_tlb_miss", "wb_addr")


def _geometry(memory, cpu: int) -> Tuple[int, ...]:
    """What a CPU's oracle outcome depends on besides its segment and
    state: L1 and L2 sets, ways and line shift, TLB entries and page
    shift."""
    l1, l2, tlb = memory.l1s[cpu], memory.l2s[cpu], memory.tlbs[cpu]
    return (len(l1._sets), l1._ways, l1._set_shift,
            len(l2._sets), l2._ways, l2._set_shift,
            tlb.config.entries, tlb._page_shift)


def _state(memory, cpu: int) -> List[np.ndarray]:
    """CPU ``cpu``'s cache and TLB contents as arrays: per cache its
    lines, their MESI states and the set sizes, in set then LRU order;
    then the TLB's pages, LRU first."""
    arrays = []
    chain = itertools.chain.from_iterable
    for cache in (memory.l1s[cpu], memory.l2s[cpu]):
        sets = cache._sets
        arrays.append(np.fromiter(chain(sets), np.int64))
        arrays.append(np.fromiter(chain(map(dict.values, sets)), np.int64))
        arrays.append(np.fromiter(map(len, sets), np.int64, len(sets)))
    arrays.append(np.fromiter(memory.tlbs[cpu]._entries, np.int64))
    return arrays


def _plan(memory, cpu: int, addr: np.ndarray, is_write: np.ndarray,
          keep: bool) -> _Plan:
    """Run CPU ``cpu``'s L1, TLB and L2 oracles over one segment, from
    the state its previous segment committed.  With ``keep`` the plan
    also records what :func:`_shift_of` needs to share it."""
    job = _Job(memory, cpu, addr, is_write)
    _plan_l1(job)
    _fixup_l1(job)
    _run_tlb(job)
    _plan_l2(job)
    _gather_l2(job)

    plan = _Plan()
    plan.geometry = _geometry(memory, cpu)
    plan.addr = addr if keep else None
    plan.is_write = is_write if keep else None
    plan.start = _state(memory, cpu) if keep else None
    l1_hit, vtag, vdirty = job.l1_hit, job.l1_vtag, job.l1_vdirty
    op_write, op_hit = job.op_write, job.op_hit
    op_vtag, op_vdirty = job.op_vtag, job.op_vdirty
    dram = job.op_refill & ~op_hit

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    tlb_misses = count(job.tlb_miss)
    refill_hits = count(job.op_refill & op_hit)
    plan.counts = (
        count(l1_hit & ~is_write), count(l1_hit & is_write),
        count(~l1_hit & ~is_write), count(~l1_hit & is_write),
        count(vdirty), count((vtag >= 0) & ~vdirty),
        count(op_hit & ~op_write), count(op_hit & op_write),
        count(~op_hit & ~op_write), count(~op_hit & op_write),
        count((op_vtag >= 0) & op_vdirty), count((op_vtag >= 0) & ~op_vdirty),
        job.n - tlb_misses, tlb_misses, job.tlb_evictions,
        refill_hits, count(dram),
        count(l1_hit), tlb_misses, refill_hits, count(dram),
        count(dram & (op_vtag >= 0) & op_vdirty))
    plan.l1_final = job.l1_final
    plan.l2_final = job.l2_final
    plan.tlb_final = list(job.tlb_final)
    plan.stall_key = job.tlb_miss.astype(np.int8) * 2 + ~l1_hit
    # Slow accesses in trace order (``op_src`` ascends).
    plan.slow_pos = job.op_src[dram]
    plan.slow_addr = addr[plan.slow_pos]
    plan.slow_tlb_miss = job.tlb_miss[plan.slow_pos]
    victim = op_vtag[dram]
    plan.wb_addr = np.where(
        (victim >= 0) & op_vdirty[dram],
        victim << memory.l2s[cpu]._set_shift, -1)
    return plan


def _shift_of(plan: _Plan, memory, cpu: int, addr: np.ndarray,
              is_write: np.ndarray) -> Optional[int]:
    """The offset ``delta`` by which CPU ``cpu``'s segment and current
    state are exactly the plan's shifted, or ``None``.

    ``delta`` must be a multiple of each L1 and L2 set span and of the
    TLB page, so that every line keeps its set and every page its
    place; the geometries and the writes must be equal.  Then each
    oracle's outcome on this CPU is the plan's, with lines, pages and
    addresses shifted by ``delta``.
    """
    if (plan.start is None or len(addr) != len(plan.addr)
            or _geometry(memory, cpu) != plan.geometry):
        return None
    l1_sets, _, l1_shift, l2_sets, _, l2_shift, _, page_shift = plan.geometry
    delta = int(addr[0]) - int(plan.addr[0])
    if (delta % (l1_sets << l1_shift) or delta % (l2_sets << l2_shift)
            or delta % (1 << page_shift)):
        return None
    if not (np.array_equal(is_write, plan.is_write)
            and np.array_equal(addr - delta, plan.addr)):
        return None
    # Lines shift, MESI states and set sizes do not, pages shift.
    shifts = (l1_shift, None, None, l2_shift, None, None, page_shift)
    for have, had, shift in zip(_state(memory, cpu), plan.start, shifts):
        if shift is not None:
            had = had + (delta >> shift)
        if not np.array_equal(have, had):
            return None
    return delta


# ---------------------------------------------------------------------------
# Timing and commit
# ---------------------------------------------------------------------------


#: Fast runs up to this long are timed by a plain float loop, longer
#: ones by one numpy cumsum: its fills and call cost about 4-5 us, which
#: the loop matches at about 100 accesses.
_SHORT_RUN = 96


class _Clock:
    """One committed segment's timing: its CPU's clock over it, through
    each slow access (a refill that misses L2) the merge lets it serve.
    ``state`` is the CPU's ``CpuRunResult``, continued in place.

    ``buf`` is scratch of at least ``2 n + 1`` floats, which all the
    clocks of a replay share since they run one at a time.  For a long
    run of fast accesses it holds the clock's start value, then per
    access its compute time and stall, so one in-place cumsum times the
    run; a short run is timed by the same adds in a plain loop.
    """

    __slots__ = ("path", "compute_ns", "stall", "state", "n",
                 "slow_pos", "slow_addr", "slow_tlb_miss", "wb_addr",
                 "slow_stalls", "stall_arr", "buf", "seg_start", "local",
                 "queueing")

    def __init__(self, plan: _Plan, delta: int, memory, compute_ns: float,
                 stall, state, buf: np.ndarray):
        # What a slow access goes through, as :meth:`run` reads it.
        self.path = (memory.serve_miss, memory.l1_hit_ns,
                     memory.tlb_miss_ns)
        self.compute_ns = compute_ns
        self.stall = stall
        self.state = state
        self.n = len(plan.stall_key)
        l1_hit_ns = memory.l1_hit_ns
        l2_hit_ns = memory.l2_hit_ns
        tlb_miss_ns = memory.tlb_miss_ns

        # Slow accesses serialize through the sequencer and DRAM, in
        # trace order, at this CPU's addresses.
        self.slow_pos = plan.slow_pos.tolist()
        self.slow_addr = (plan.slow_addr + delta).tolist()
        self.slow_tlb_miss = plan.slow_tlb_miss.tolist()
        wb_addr = plan.wb_addr
        if delta:
            wb_addr = np.where(wb_addr >= 0, wb_addr + delta, -1)
        self.wb_addr = wb_addr.tolist()
        self.slow_stalls: List[float] = []

        # The four fast stall constants, argument grouping per the
        # reference.
        stall_consts = np.array([
            stall(0.0 + l1_hit_ns, compute_ns),
            stall((0.0 + l1_hit_ns) + l2_hit_ns, compute_ns),
            stall(tlb_miss_ns + l1_hit_ns, compute_ns),
            stall((tlb_miss_ns + l1_hit_ns) + l2_hit_ns, compute_ns),
        ])
        self.stall_arr = stall_consts[plan.stall_key]

        self.buf = buf
        self.seg_start = 0
        self.local = state.finish_ns
        self.queueing = state.queueing_ns

    def _advance(self, lo: int, hi: int, local: float) -> float:
        """The clock ``local`` run over the fast accesses ``[lo, hi)``."""
        compute = self.compute_ns
        if hi - lo <= _SHORT_RUN:
            for stall in self.stall_arr[lo:hi].tolist():
                local += compute
                local += stall
            return local
        seg = self.buf[:2 * (hi - lo) + 1]
        seg[0] = local
        seg[1::2] = compute
        seg[2::2] = self.stall_arr[lo:hi]
        seg.cumsum(out=seg)
        return float(seg[-1])

    def run(self, limit: float, ties: bool) -> Optional[float]:
        """Time the segment on, serving each slow access through the
        node's shared sequencer, DRAM banks and data bus while it issues
        before ``limit`` (or at it, with ``ties``).  Returns the issue
        time of the first slow access left, ``None`` once every access
        is timed."""
        serve_miss, l1_hit_ns, tlb_miss_ns = self.path
        stall = self.stall
        compute = self.compute_ns
        slow_pos, slow_addr = self.slow_pos, self.slow_addr
        slow_tlb_miss, wb_addr = self.slow_tlb_miss, self.wb_addr
        stalls = self.slow_stalls
        queueing_ns = self.queueing
        lo = self.seg_start
        local = self.local
        for k in range(len(stalls), len(slow_pos)):
            si = slow_pos[k]
            if si > lo:
                local = self._advance(lo, si, local)
                lo = si
            issue = local + compute
            if issue > limit or (issue == limit and not ties):
                break
            wb = wb_addr[k]
            latency, queueing = serve_miss(
                issue, (tlb_miss_ns if slow_tlb_miss[k] else 0.0) + l1_hit_ns,
                slow_addr[k], _MEMORY, (wb,) if wb >= 0 else ())
            stall_ns = stall(latency, compute)
            stalls.append(stall_ns)
            local = issue + stall_ns
            queueing_ns += queueing
            lo = si + 1
        else:
            issue = None
            if self.n > lo:
                local = self._advance(lo, self.n, local)
                lo = self.n
        self.seg_start = lo
        self.local = local
        self.queueing = queueing_ns
        return issue

    def close(self) -> None:
        """Continue the replay's totals past this fully timed segment."""
        state = self.state
        state.finish_ns = self.local
        state.steps += self.n
        state.queueing_ns = self.queueing
        self.stall_arr[self.slow_pos] = self.slow_stalls
        # Sequential sums continuing the previous segment's, like the
        # reference's per-access ``+=``.
        buf = self.buf[:self.n + 1]
        buf[0] = state.compute_ns
        buf[1:] = self.compute_ns
        state.compute_ns = float(buf.cumsum()[-1])
        buf[0] = state.stall_ns
        buf[1:] = self.stall_arr
        state.stall_ns = float(buf.cumsum()[-1])


def _apply(plan: _Plan, delta: int, memory, cpu: int) -> None:
    """Commit a plan to CPU ``cpu``, its lines and pages shifted by
    ``delta``: the counters, with the reference's per-key attribution,
    and the final contents of every set it touched and of the TLB.  No
    cache state depends on timing, so this runs before the segment is
    timed."""
    l1, l2, tlb = memory.l1s[cpu], memory.l2s[cpu], memory.tlbs[cpu]
    owners = {"l1": l1.stats, "l2": l2.stats, "tlb": tlb.stats,
              "domain": memory.domain.stats, "node": memory.stats}
    for (owner, key), value in zip(_COUNTS, plan.counts):
        if value:
            owners[owner].incr(key, value)
    shift = delta >> l1._set_shift
    for s, state in plan.l1_final.items():
        line_set = l1._sets[s]
        line_set.clear()
        for line, dirty in state.items():
            line_set[line + shift] = _MODIFIED if dirty else _EXCLUSIVE
    shift = delta >> l2._set_shift
    sets, lines, dirty = plan.l2_final
    if shift:
        lines = np.where(lines >= 0, lines + shift, -1)
    states = np.where(dirty, _MODIFIED, _EXCLUSIVE)
    for s, row_lines, row_states in zip(sets.tolist(), lines.tolist(),
                                        states.tolist()):
        line_set = l2._sets[s]
        line_set.clear()
        line_set.update(zip(row_lines, row_states))
        line_set.pop(-1, None)  # line -1 marks the empty ways
    shift = delta >> tlb._page_shift
    tlb._entries.clear()
    for page in plan.tlb_final:
        tlb._entries[int(page) + shift] = None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Plans:
    """The plans of one :func:`replay` that a stream may still share.

    A *stream* is one CPU's pieces on one node; a plan made for a
    stream's ``k``-th segment is offered to every other stream's
    ``k``-th segment, and dropped once every stream has opened its
    ``k``-th segment or run out.  A stream that cannot use any offered
    plan runs its own oracle pass.
    """

    def __init__(self, streams: int):
        #: Segments each stream has opened; ``inf`` once it ran out.
        self.opened: List[float] = [0] * streams
        self.live: Dict[int, List[_Plan]] = {}

    def open(self, stream: int, memory, cpu: int, addr: np.ndarray,
             is_write: np.ndarray) -> Tuple[_Plan, int]:
        """Commit stream ``stream``'s next segment, the accesses
        ``(addr, is_write)``, on CPU ``cpu`` of ``memory``, through a
        shared plan or a pass of its own; returns the plan and the offset
        it applied at."""
        k = self.opened[stream]
        for plan in self.live.get(k, ()):
            delta = _shift_of(plan, memory, cpu, addr, is_write)
            if delta is not None:
                break
        else:
            delta = 0
            keep = any(opened <= k for other, opened
                       in enumerate(self.opened) if other != stream)
            plan = _plan(memory, cpu, addr, is_write, keep)
            if keep:
                self.live.setdefault(k, []).append(plan)
        self.opened[stream] = k + 1
        self._drop()
        _apply(plan, delta, memory, cpu)
        return plan, delta

    def done(self, stream: int) -> None:
        self.opened[stream] = float("inf")
        self._drop()

    def _drop(self) -> None:
        low = min(self.opened)
        for k in [k for k in self.live if k < low]:
            del self.live[k]


def _merge(plans: _Plans, scratch: List[np.ndarray], streams: range, memory,
           pieces, compute_ns: float, stall_models,
           states) -> Iterator[int]:
    """One node's replay: its CPUs' L2 misses merged on
    ``(issue_ns, cpu)``.  Yields the index of each segment a CPU is
    about to open, for :func:`replay` to pace the nodes by.
    ``scratch[0]`` is the replay's clock scratch, grown as needed."""
    sources = [iter(own) for own in pieces]
    clocks: List[Optional[_Clock]] = [None] * len(pieces)

    def reopen(cpu: int, limit: float, ties: bool):
        """Close CPU ``cpu``'s timed segment, if any, and open its next
        ones, each run as :meth:`_Clock.run` does; the issue time of its
        next slow access, or ``None`` when its trace is done."""
        while True:
            clock = clocks[cpu]
            if clock is not None:
                clock.close()
                clock = clocks[cpu] = None  # free it before the next
            segment = next(sources[cpu], None)
            if segment is None:
                plans.done(streams[cpu])
                return None
            yield plans.opened[streams[cpu]]
            addr = np.ascontiguousarray(segment["addr"], dtype=np.int64)
            is_write = np.ascontiguousarray(segment["is_write"], dtype=bool)
            del segment  # before the oracles run
            plan, delta = plans.open(streams[cpu], memory, cpu, addr,
                                     is_write)
            del addr, is_write  # a shared plan keeps them
            if len(scratch[0]) < 2 * len(plan.stall_key) + 1:
                scratch[0] = np.empty(2 * len(plan.stall_key) + 1)
            clock = clocks[cpu] = _Clock(plan, delta, memory, compute_ns,
                                         stall_models[cpu], states[cpu],
                                         scratch[0])
            del plan
            issue = clock.run(limit, ties)
            if issue is not None:
                return issue

    # Each CPU's first slow access, none served yet; then the earliest
    # issuer serves its misses for as long as it stays the earliest.
    heap = []
    for cpu in range(len(pieces)):
        issue = yield from reopen(cpu, -_INF, False)
        if issue is not None:
            heap.append((issue, cpu))
    heapq.heapify(heap)
    while heap:
        _, cpu = heapq.heappop(heap)
        limit, ties = _INF, True
        if heap:
            limit, other = heap[0]
            ties = cpu < other
        issue = clocks[cpu].run(limit, ties)
        if issue is None:
            issue = yield from reopen(cpu, limit, ties)
        if issue is not None:
            heapq.heappush(heap, (issue, cpu))


def replay(runs: Sequence[Tuple]) -> None:
    """Replay nodes side by side, one oracle pass per distinct segment.

    Each run is ``(memory, pieces, compute_ns, stall_models, states)``:
    the array pieces ``pieces[c]`` replay on CPU ``c`` of a node that is
    :func:`supported` for them, continuing ``states[c]`` (the CPU's
    ``CpuRunResult`` so far) in place.  The runs' nodes must be distinct.

    Within a node, each CPU's segments run through the oracles on their
    own, and their L2 misses, the only accesses that reach the shared
    sequencer, DRAM banks and data bus, are merged on ``(issue_ns, cpu)``
    as in ``run_interleaved``, so the shared resources see the
    reference's order.  A CPU's next segment is opened once its current
    one is timed.  Across nodes nothing is shared but the plans (and the
    clocks' scratch), so the nodes advance in turns: the one whose next
    segment has the lowest index goes on, which keeps every stream
    within about a segment of the others and each plan's life short.
    """
    plans = _Plans(sum(len(run[1]) for run in runs))
    scratch = [np.empty(0)]
    queue = []
    first = 0
    for order, (memory, pieces, compute_ns, stall_models, states) in \
            enumerate(runs):
        streams = range(first, first + len(pieces))
        first += len(pieces)
        queue.append((0, order, _merge(plans, scratch, streams, memory,
                                        pieces, compute_ns, stall_models,
                                        states)))
    while queue:
        _, order, merge = queue[0]
        k = next(merge, None)
        if k is None:
            heapq.heappop(queue)
        else:
            heapq.heapreplace(queue, (k, order, merge))
