"""Address-trace generators for the benchmark kernels.

Generators yield ``(address, AccessType)`` pairs; the CPU timing models
attach per-access compute time from the kernel's instruction mix.  MatMult
traces follow the paper's *odd-stride* allocation (rows padded to an odd
element count so successive rows never map to the same cache sets).

Each generator also has an ``*_array`` twin producing the same reference
stream as a structured ``(addr, is_write)`` numpy array (the
``repro.memory.vec`` trace representation), element-for-element equal to
the iterator.  The regular kernels build their arrays with broadcasting;
:func:`random_array` materialises its iterator so the random call
order — and hence the exact address sequence — is preserved, and
:func:`hint_sweep_array` makes the same random calls as its iterator.  The array twins import numpy when
called, so the iterators cost no numpy import.
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from repro.memory.cache import AccessType

MemRef = Tuple[int, AccessType]


def odd_stride(n: int) -> int:
    """The paper's odd leading dimension for an n x n matrix."""
    return n if n % 2 == 1 else n + 1


def matmult_naive_trace(base_a: int, base_b: int, base_c: int, n: int,
                        elem_bytes: int = 8,
                        row_range: range | None = None) -> Iterator[MemRef]:
    """C = A * B with both matrices in row order (paper's naive version).

    Per inner-product step: one load from A's row (sequential) and one from
    B's column (stride = ld * elem_bytes — the cache-hostile pattern).  The
    running sum lives in a register; C[i][j] is stored once per (i, j).

    ``row_range`` restricts the generated rows of C, enabling sampled
    simulation (cold-start rows plus a steady-state window).
    """
    ld = odd_stride(n)
    rows = range(n) if row_range is None else row_range
    for i in rows:
        a_row = base_a + i * ld * elem_bytes
        for j in range(n):
            b_col = base_b + j * elem_bytes
            for k in range(n):
                yield a_row + k * elem_bytes, AccessType.READ
                yield b_col + k * ld * elem_bytes, AccessType.READ
            yield base_c + (i * ld + j) * elem_bytes, AccessType.WRITE


def transpose_trace(base_src: int, base_dst: int, n: int,
                    elem_bytes: int = 8) -> Iterator[MemRef]:
    """BT[j][i] = B[i][j]; reads sequential, writes column-strided."""
    ld = odd_stride(n)
    for i in range(n):
        for j in range(n):
            yield base_src + (i * ld + j) * elem_bytes, AccessType.READ
            yield base_dst + (j * ld + i) * elem_bytes, AccessType.WRITE


def matmult_transposed_trace(base_a: int, base_bt: int, base_c: int, n: int,
                             elem_bytes: int = 8,
                             row_range: range | None = None) -> Iterator[MemRef]:
    """C = A * BT with BT already transposed: both operands stream rows.

    This is the paper's version (b) inner loop — the transposition itself is
    generated separately by :func:`transpose_trace` so the harness can charge
    its time once while sampling product rows.
    """
    ld = odd_stride(n)
    rows = range(n) if row_range is None else row_range
    for i in rows:
        a_row = base_a + i * ld * elem_bytes
        for j in range(n):
            bt_row = base_bt + j * ld * elem_bytes
            for k in range(n):
                yield a_row + k * elem_bytes, AccessType.READ
                yield bt_row + k * elem_bytes, AccessType.READ
            yield base_c + (i * ld + j) * elem_bytes, AccessType.WRITE


def stream_trace(base: int, nbytes: int, elem_bytes: int = 8,
                 access: AccessType = AccessType.READ,
                 repeats: int = 1) -> Iterator[MemRef]:
    """Sequential sweep over a buffer, optionally repeated."""
    count = nbytes // elem_bytes
    for _ in range(repeats):
        for idx in range(count):
            yield base + idx * elem_bytes, access


def stride_trace(base: int, count: int, stride_bytes: int,
                 access: AccessType = AccessType.READ) -> Iterator[MemRef]:
    """Fixed-stride sweep (for cache-line and bank-conflict studies)."""
    for idx in range(count):
        yield base + idx * stride_bytes, access


def random_trace(base: int, nbytes: int, count: int, elem_bytes: int = 8,
                 write_fraction: float = 0.0, seed: int = 42) -> Iterator[MemRef]:
    """Uniform random accesses within a working set (latency-bound)."""
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in [0,1], got {write_fraction}")
    rng = random.Random(seed)
    slots = max(1, nbytes // elem_bytes)
    for _ in range(count):
        addr = base + rng.randrange(slots) * elem_bytes
        access = (AccessType.WRITE if rng.random() < write_fraction
                  else AccessType.READ)
        yield addr, access


def hint_sweep_trace(base: int, records: int, record_bytes: int,
                     touched_fraction: float = 1.0,
                     write_fraction: float = 0.25,
                     seed: int = 7) -> Iterator[MemRef]:
    """One HINT iteration's memory behaviour over ``records`` interval logs.

    HINT scans its interval table to find the largest removable error, then
    rewrites the split interval's records.  The interval data lives in
    parallel arrays (the "logs" describing intervals and the bounds
    calculated for them), so the information "is accessed in more complex
    ways than just a consecutive order" (paper Section 5.1.1): the scan is
    modelled as two interleaved passes — even records, then odd records —
    which visits every record once but defeats long-cache-line prefetching
    exactly as HINT's real layout does.  The split then rewrites a few
    random records.  ``touched_fraction`` lets the caller model partial
    scans (HINT keeps errors partially ordered).
    """
    rng = random.Random(seed)
    scan = int(records * touched_fraction)
    for parity in (0, 1):
        for idx in range(parity, scan, 2):
            yield base + idx * record_bytes, AccessType.READ
    writes = max(1, int(scan * write_fraction))
    for _ in range(writes):
        rec = rng.randrange(max(1, records))
        yield base + rec * record_bytes, AccessType.WRITE

# ---------------------------------------------------------------------------
# Array-native emitters (repro.memory.vec trace representation)
# ---------------------------------------------------------------------------


def _ref_array(size: int):
    import numpy as np
    from repro.memory.vec import REF_DTYPE

    return np.empty(size, dtype=REF_DTYPE)


def matmult_naive_array(base_a: int, base_b: int, base_c: int, n: int,
                        elem_bytes: int = 8,
                        row_range: range | None = None):
    """Array twin of :func:`matmult_naive_trace`."""
    import numpy as np

    ld = odd_stride(n)
    rows = range(n) if row_range is None else row_range
    i_idx = np.asarray(list(rows), dtype=np.int64)
    nr = len(i_idx)
    blk = 2 * n + 1
    out = _ref_array(nr * n * blk)
    addr = out["addr"].reshape(nr, n, blk)
    k = np.arange(n, dtype=np.int64)
    j = np.arange(n, dtype=np.int64)
    a_row = base_a + i_idx * (ld * elem_bytes)
    addr[:, :, 0:2 * n:2] = a_row[:, None, None] + k * elem_bytes
    addr[:, :, 1:2 * n:2] = (base_b + j * elem_bytes)[None, :, None] \
        + k * (ld * elem_bytes)
    addr[:, :, 2 * n] = base_c + (i_idx[:, None] * ld + j) * elem_bytes
    is_write = out["is_write"].reshape(nr, n, blk)
    is_write[:, :, :2 * n] = False
    is_write[:, :, 2 * n] = True
    return out


def transpose_array(base_src: int, base_dst: int, n: int,
                    elem_bytes: int = 8):
    """Array twin of :func:`transpose_trace`."""
    import numpy as np

    ld = odd_stride(n)
    out = _ref_array(n * n * 2)
    addr = out["addr"].reshape(n, n, 2)
    i = np.arange(n, dtype=np.int64)[:, None]
    j = np.arange(n, dtype=np.int64)[None, :]
    addr[:, :, 0] = base_src + (i * ld + j) * elem_bytes
    addr[:, :, 1] = base_dst + (j * ld + i) * elem_bytes
    is_write = out["is_write"].reshape(n, n, 2)
    is_write[:, :, 0] = False
    is_write[:, :, 1] = True
    return out


def matmult_transposed_array(base_a: int, base_bt: int, base_c: int, n: int,
                             elem_bytes: int = 8,
                             row_range: range | None = None):
    """Array twin of :func:`matmult_transposed_trace`."""
    import numpy as np

    ld = odd_stride(n)
    rows = range(n) if row_range is None else row_range
    i_idx = np.asarray(list(rows), dtype=np.int64)
    nr = len(i_idx)
    blk = 2 * n + 1
    out = _ref_array(nr * n * blk)
    addr = out["addr"].reshape(nr, n, blk)
    k = np.arange(n, dtype=np.int64)
    j = np.arange(n, dtype=np.int64)
    a_row = base_a + i_idx * (ld * elem_bytes)
    addr[:, :, 0:2 * n:2] = a_row[:, None, None] + k * elem_bytes
    addr[:, :, 1:2 * n:2] = (base_bt + j * (ld * elem_bytes))[None, :, None] \
        + k * elem_bytes
    addr[:, :, 2 * n] = base_c + (i_idx[:, None] * ld + j) * elem_bytes
    is_write = out["is_write"].reshape(nr, n, blk)
    is_write[:, :, :2 * n] = False
    is_write[:, :, 2 * n] = True
    return out


def stream_array(base: int, nbytes: int, elem_bytes: int = 8,
                 access: AccessType = AccessType.READ,
                 repeats: int = 1):
    """Array twin of :func:`stream_trace`."""
    import numpy as np

    count = nbytes // elem_bytes
    out = _ref_array(count * repeats)
    addrs = base + np.arange(count, dtype=np.int64) * elem_bytes
    out["addr"].reshape(max(repeats, 0), count)[:] = addrs
    out["is_write"] = access == AccessType.WRITE
    return out


def stride_array(base: int, count: int, stride_bytes: int,
                 access: AccessType = AccessType.READ):
    """Array twin of :func:`stride_trace`."""
    import numpy as np

    out = _ref_array(count)
    out["addr"] = base + np.arange(count, dtype=np.int64) * stride_bytes
    out["is_write"] = access == AccessType.WRITE
    return out


def random_array(base: int, nbytes: int, count: int, elem_bytes: int = 8,
                 write_fraction: float = 0.0, seed: int = 42):
    """Array twin of :func:`random_trace` (materialises the iterator so
    the RNG call order, hence the address sequence, is identical)."""
    from repro.memory.vec import coerce_trace
    return coerce_trace(random_trace(base, nbytes, count, elem_bytes,
                                     write_fraction, seed))


def hint_sweep_array(base: int, records: int, record_bytes: int,
                     touched_fraction: float = 1.0,
                     write_fraction: float = 0.25,
                     seed: int = 7):
    """Array twin of :func:`hint_sweep_trace`: the scan as two strides
    (even records, then odd), then the split writes, drawn by the same
    ``random.Random(seed)`` calls in the same order."""
    import numpy as np

    rng = random.Random(seed)
    scan = int(records * touched_fraction)
    writes = max(1, int(scan * write_fraction))
    split = [rng.randrange(max(1, records)) for _ in range(writes)]
    out = _ref_array(scan + writes)
    addr = out["addr"]
    evens = (scan + 1) // 2
    addr[:evens] = np.arange(0, scan, 2, dtype=np.int64)
    addr[evens:scan] = np.arange(1, scan, 2, dtype=np.int64)
    addr[scan:] = split
    addr *= record_bytes
    addr += base
    out["is_write"][:scan] = False
    out["is_write"][scan:] = True
    return out
