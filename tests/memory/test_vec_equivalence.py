"""Vectorized-backend vs. reference equivalence for trace replay.

``replay_traces(..., backend="numpy")`` carries the same contract as the
scalar fast path: *access-for-access* identical to the reference
``run_interleaved`` route — same hit/miss/evict/upgrade/TLB counters,
same float operation order, hence bit-identical timing, and the same
final cache/TLB contents and recency order.  The hypothesis suite here
pins that over randomized traces spanning every replay regime (L1-hit
runs, write fractions from read-only to write-heavy, TLB churn and
L2-thrashing spans), mirroring ``test_replay_equivalence.py``; the
multi-CPU cases additionally pin that the backend's fallback (vec only
handles single-trace replays) stays identical too.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import AccessType
from repro.memory.mp import REPLAY_BACKENDS, replay_traces
from repro.memory.vec import REF_DTYPE, coerce_trace, iter_refs

from .test_replay_equivalence import make_memory, random_trace, snapshot

_READ = AccessType.READ
_WRITE = AccessType.WRITE


def run_pair(cpus, traces, compute_ns=5.0):
    stalls = [lambda latency, compute: latency] * cpus
    vec_mem = make_memory(cpus)
    vec = replay_traces(vec_mem, [list(t) for t in traces], compute_ns,
                        stalls, backend="numpy")
    ref_mem = make_memory(cpus)
    ref = replay_traces(ref_mem, [list(t) for t in traces], compute_ns,
                        stalls, use_fast_path=False)
    return (vec, vec_mem), (ref, ref_mem)


def regime_trace(rng, length, write_fraction):
    """Mixed-regime stream with a controlled write mix.

    Hot addresses keep L1 busy, the 4 MiB span churns the 8-entry TLB
    and thrashes the 4 KiB L2 of ``make_memory`` nodes.
    """
    hot = [rng.randrange(0, 2048) * 8 for _ in range(16)]
    trace = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            addr = rng.choice(hot)
        elif roll < 0.70:
            addr = rng.randrange(0, 4096) * 8
        else:
            addr = rng.randrange(0, 1 << 22) & ~0x7  # TLB/L2 thrash span
        is_write = rng.random() < write_fraction
        trace.append((addr, _WRITE if is_write else _READ))
    return trace


class TestVecBackendEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           write_fraction=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
           length=st.integers(min_value=1, max_value=1200))
    @settings(max_examples=25, deadline=None)
    def test_single_cpu_bitwise_identical(self, seed, write_fraction,
                                          length):
        rng = random.Random(seed)
        trace = regime_trace(rng, length, write_fraction)
        (vec, vec_mem), (ref, ref_mem) = run_pair(1, [trace])
        assert vec == ref  # exact float equality, field for field
        assert snapshot(vec_mem) == snapshot(ref_mem)

    @pytest.mark.parametrize("cpus,seed", [(2, 0), (2, 3), (4, 4), (4, 13)])
    def test_multi_cpu_identical_via_fallback(self, cpus, seed):
        rng = random.Random(seed)
        traces = [random_trace(rng, 1500) for _ in range(cpus)]
        (vec, vec_mem), (ref, ref_mem) = run_pair(cpus, traces)
        assert vec == ref
        assert snapshot(vec_mem) == snapshot(ref_mem)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_scalar_fast_path_too(self, seed):
        rng = random.Random(seed)
        trace = random_trace(rng, 2000)
        stalls = [lambda latency, compute: latency]
        vec_mem = make_memory(1)
        vec = replay_traces(vec_mem, [list(trace)], 5.0, stalls,
                            backend="numpy")
        fast_mem = make_memory(1)
        fast = replay_traces(fast_mem, [list(trace)], 5.0, stalls,
                             backend="fast")
        assert vec == fast
        assert snapshot(vec_mem) == snapshot(fast_mem)

    def test_warm_cache_second_epoch_identical(self):
        """Backend equivalence must hold from a *warm* (non-empty) state:
        the lane seeding and TLB initial-recency paths only matter then."""
        rng = random.Random(21)
        warm = random_trace(rng, 1500)
        measured = random_trace(rng, 1500)
        stalls = [lambda latency, compute: latency]
        vec_mem = make_memory(1)
        replay_traces(vec_mem, [list(warm)], 5.0, stalls, backend="numpy")
        vec_mem.reset_timing()
        vec = replay_traces(vec_mem, [list(measured)], 5.0, stalls,
                            backend="numpy")
        ref_mem = make_memory(1)
        replay_traces(ref_mem, [list(warm)], 5.0, stalls,
                      use_fast_path=False)
        ref_mem.reset_timing()
        ref = replay_traces(ref_mem, [list(measured)], 5.0, stalls,
                            use_fast_path=False)
        assert vec == ref
        assert snapshot(vec_mem) == snapshot(ref_mem)

    def test_array_traces_accepted_by_every_backend(self):
        rng = random.Random(3)
        trace = random_trace(rng, 800)
        arr = coerce_trace(list(trace))
        assert arr.dtype == REF_DTYPE
        stalls = [lambda latency, compute: latency]
        results = {}
        memories = {}
        for backend in REPLAY_BACKENDS:
            mem = make_memory(1)
            results[backend] = replay_traces(mem, [arr], 5.0, stalls,
                                             backend=backend)
            memories[backend] = mem
        ref_mem = make_memory(1)
        ref = replay_traces(ref_mem, [list(trace)], 5.0, stalls,
                            use_fast_path=False)
        for backend in REPLAY_BACKENDS:
            assert results[backend] == ref
            assert snapshot(memories[backend]) == snapshot(ref_mem)

    def test_unknown_backend_rejected(self):
        mem = make_memory(1)
        with pytest.raises(ValueError, match="unknown replay backend"):
            replay_traces(mem, [[(0, _READ)]], 5.0,
                          [lambda latency, compute: latency],
                          backend="cuda")

    def test_empty_trace(self):
        (vec, vec_mem), (ref, ref_mem) = run_pair(1, [[]])
        assert vec == ref
        assert snapshot(vec_mem) == snapshot(ref_mem)


class TestVecPrimitives:
    def test_coerce_round_trip(self):
        rng = random.Random(11)
        trace = random_trace(rng, 300)
        arr = coerce_trace(list(trace))
        assert list(iter_refs(arr)) == trace

    def test_cumsum_bit_identical_to_sequential_adds(self):
        """The timing engine's foundation: ``np.cumsum`` must reproduce a
        sequential Python float accumulation bit for bit."""
        rng = random.Random(5)
        values = [rng.uniform(0.0, 100.0) for _ in range(4096)]
        acc, expect = 0.0, []
        for v in values:
            acc += v
            expect.append(acc)
        got = np.cumsum(np.array(values))
        assert got.tolist() == expect
