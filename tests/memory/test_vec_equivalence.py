"""Vectorized-engine vs. reference equivalence for trace replay.

``replay_traces`` hands single-CPU replays, and multi-CPU replays whose
CPUs touch pairwise disjoint lines, to the vectorized engine, whose
contract is *access-for-access* identity with ``replay_reference`` —
same hit/miss/evict/upgrade/TLB counters, same float operation order,
hence bit-identical timing, and the same final cache/TLB contents and
recency order.  The hypothesis suite here pins that over randomized
traces spanning every replay regime (L1-hit runs, write fractions from
read-only to write-heavy, TLB churn and L2-thrashing spans).  The
multi-CPU cases pin vec's per-CPU oracles and issue-time merge of the
L2 misses for disjoint traces on every fabric.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import vec
from repro.memory.cache import AccessType, CacheGeometry
from repro.memory.mp import FabricKind, replay_reference, replay_traces
from repro.memory.vec import REF_DTYPE, coerce_trace, iter_refs

from .test_replay_equivalence import (
    make_memory,
    random_trace,
    relocate,
    replay_pair,
    snapshot,
)

_READ = AccessType.READ
_WRITE = AccessType.WRITE


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


def assert_regime_identical(replay, seed, write_fraction, length,
                            kind=FabricKind.SWITCHED):
    rng = random.Random(seed)
    trace = regime_trace(rng, length, write_fraction)
    (got, got_mem), (ref, ref_mem) = replay_pair(replay, [trace], kind=kind)
    assert got == ref  # exact float equality, field for field
    assert snapshot(got_mem) == snapshot(ref_mem)


class TestVecBackendEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           write_fraction=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
           length=st.integers(min_value=1, max_value=1200),
           kind=st.sampled_from(list(FabricKind)))
    @settings(max_examples=25, deadline=None)
    def test_single_cpu_bitwise_identical(self, seed, write_fraction,
                                          length, kind):
        """Every fabric, since fig6 and fig7 replay the split-bus Sun
        and the shared-bus PC on one CPU too."""
        assert_regime_identical(replay_traces, seed, write_fraction, length,
                                kind)

    def test_warm_cache_second_epoch_identical(self):
        """Equivalence must hold from a *warm* (non-empty) state: vec's
        lane seeding and TLB initial-recency paths only matter then."""
        rng = random.Random(21)
        warm = random_trace(rng, 1500)
        measured = random_trace(rng, 1500)
        stalls = [lambda latency, compute: latency]

        def two_epochs(replay):
            memory = make_memory(1)
            replay(memory, [list(warm)], 5.0, stalls)
            memory.reset_timing()
            return (replay(memory, [list(measured)], 5.0, stalls),
                    snapshot(memory))

        assert two_epochs(replay_traces) == two_epochs(replay_reference)

    def test_array_traces_accepted_by_every_backend(self):
        rng = random.Random(3)
        trace = random_trace(rng, 800)
        arr = coerce_trace(list(trace))
        assert arr.dtype == REF_DTYPE
        stalls = [lambda latency, compute: latency]
        ref_mem = make_memory(1)
        ref = replay_reference(ref_mem, [arr], 5.0, stalls)
        mem = make_memory(1)
        assert replay_traces(mem, [arr], 5.0, stalls) == ref
        assert snapshot(mem) == snapshot(ref_mem)

    def test_empty_trace(self):
        (got, got_mem), (ref, ref_mem) = replay_pair(replay_traces, [[]])
        assert got == ref
        assert snapshot(got_mem) == snapshot(ref_mem)


def repeat_trace(rng, length, write_fraction, line_bytes=64):
    """Runs of accesses to one line each, as MatMult's streams are: a
    line from a hot set (L1 hits) or a 1 MiB span (conflict misses in
    every geometry), then 1-8 accesses within it, reads and writes mixed
    at ``write_fraction``."""
    hot = [rng.randrange(0, 256) for _ in range(12)]
    trace = []
    while len(trace) < length:
        line = (rng.choice(hot) if rng.random() < 0.4
                else rng.randrange(0, (1 << 20) // line_bytes))
        for _ in range(rng.randint(1, 8)):
            addr = line * line_bytes + rng.randrange(0, line_bytes, 8)
            trace.append((addr, _WRITE if rng.random() < write_fraction
                          else _READ))
    return trace[:length]


#: ``(l1, l2)`` geometries: a direct-mapped pair with Sun's 32-byte
#: lines, a direct-mapped L1 over a set-associative L2 and the reverse.
GEOMETRIES = {
    "dm_dm": (CacheGeometry(512, 32, 1), CacheGeometry(4096, 32, 1)),
    "dm_2way": (CacheGeometry(1024, 64, 1), CacheGeometry(4096, 64, 2)),
    "4way_dm": (CacheGeometry(1024, 64, 4), CacheGeometry(4096, 64, 1)),
}


class TestRepeatsAndDirectMapped:
    """Collapsed same-line repeats and closed-form direct-mapped sets
    must leave every result, counter and cache content as the reference
    does, from a cold and from a warm cache."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           geometry=st.sampled_from(sorted(GEOMETRIES)),
           write_fraction=st.sampled_from([0.0, 0.3, 1.0]),
           lengths=st.lists(st.integers(min_value=1, max_value=1500),
                            min_size=2, max_size=2),
           segment=st.sampled_from([97, vec._SEGMENT]),
           chunk=st.sampled_from([8, vec._L1_CHUNK]))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_with_warm_second_epoch(
            self, seed, geometry, write_fraction, lengths, segment, chunk):
        l1, l2 = GEOMETRIES[geometry]
        rng = random.Random(seed)
        epochs = [repeat_trace(rng, length, write_fraction, l1.line_bytes)
                  for length in lengths]
        stalls = [lambda latency, compute: latency]

        def two_epochs(replay):
            memory = make_memory(1, l1=l1, l2=l2)
            results = []
            for trace in epochs:
                memory.reset_timing()
                results.append(replay(memory, [list(trace)], 5.0, stalls))
            return results, snapshot(memory)

        # Short chunks make later lanes of a set start from empty, so the
        # warm-up fix-up runs on collapsed lanes too.
        with mock.patch.object(vec, "_SEGMENT", segment), \
                mock.patch.object(vec, "_L1_CHUNK", chunk):
            got = two_epochs(replay_traces)
        assert got == two_epochs(replay_reference)


class TestSegmentedReplay:
    """A trace longer than a segment replays piece by piece, each piece
    from the state the last one committed; no seam may show, whether the
    trace is pairs or a stream of short array blocks, and where a piece
    holds an address that sends it to the reference."""

    @pytest.mark.parametrize("form", ["pairs", "blocks"])
    def test_matches_reference(self, monkeypatch, form):
        monkeypatch.setattr(vec, "_SEGMENT", 97)
        pairs = random_trace(random.Random(8), 1000)
        pairs[600] = (-64, _WRITE)
        trace = iter(pairs)
        if form == "pairs":
            pairs[300] = (1 << 70, _READ)  # beyond even an array
        else:
            arr = coerce_trace(pairs)
            trace = (arr[i:i + 40] for i in range(0, len(arr), 40))
        stalls = [lambda latency, compute: latency]
        memory, ref_mem = make_memory(1), make_memory(1)
        assert (replay_traces(memory, [trace], 5.0, stalls)
                == replay_reference(ref_mem, [pairs], 5.0, stalls))
        assert snapshot(memory) == snapshot(ref_mem)


class TestDisjointMultiCpuEquivalence:
    """Traces in disjoint per-CPU regions replay through vec: per-CPU
    oracles, and one merge of the L2 misses on ``(issue_ns, cpu)``.  The
    shared sequencer, DRAM banks and (on the bus fabrics) data bus must
    see the reference's order, so results and every counter, cache set
    and resource clock match ``replay_reference`` exactly."""

    @pytest.fixture
    def vec_only(self, monkeypatch):
        """Count the vec calls and their CPUs: a multi-CPU replay goes to
        vec whole or to the reference whole."""
        calls = []
        replay = vec.replay

        def spy(runs):
            calls.extend(len(run[1]) for run in runs)
            return replay(runs)

        monkeypatch.setattr(vec, "replay", spy)
        return calls

    @staticmethod
    def epochs(cpus, seed, lengths, mirrored):
        """Two replays on one node, a warm second epoch after the first;
        with ``mirrored`` every CPU runs the same trace in its own region,
        so issue times tie and contend at every miss."""
        rng = random.Random(seed)
        runs = []
        for length in lengths:
            base = random_trace(rng, length)
            runs.append([relocate(base if mirrored
                                  else random_trace(rng, length), cpu)
                         for cpu in range(cpus)])
        return runs

    @staticmethod
    def replay_epochs(replay, kind, runs, compute_ns=5.0):
        cpus = len(runs[0])
        memory = make_memory(cpus, kind)
        stalls = [lambda latency, compute: latency] * cpus
        results = []
        for traces in runs:
            memory.reset_timing()
            results.append(replay(memory, [list(t) for t in traces],
                                  compute_ns, stalls))
        return results, snapshot(memory)

    @pytest.mark.parametrize("kind", list(FabricKind))
    @pytest.mark.parametrize("cpus,seed,mirrored",
                             [(2, 0, True), (2, 5, False), (4, 9, True),
                              (4, 12, False)])
    def test_matches_reference(self, vec_only, monkeypatch, kind, cpus,
                               seed, mirrored):
        runs = self.epochs(cpus, seed, (700, 600), mirrored)
        ref = self.replay_epochs(replay_reference, kind, runs)
        monkeypatch.setattr(vec, "_SEGMENT", 97)  # several segments each
        assert self.replay_epochs(replay_traces, kind, runs) == ref
        assert vec_only == [cpus, cpus]
        # The runs reached the shared resources, in contention.
        _, snap = ref
        assert snap["memory"]["memory_accesses"] > 100
        assert snap["sequencer"]["contended"] > 0

    @given(seed=st.integers(min_value=0, max_value=10_000),
           cpus=st.integers(min_value=2, max_value=4),
           kind=st.sampled_from(list(FabricKind)),
           lengths=st.lists(st.integers(min_value=0, max_value=400),
                            min_size=4, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_uneven_traces_match_reference(self, seed, cpus, kind, lengths):
        """CPUs with traces of different lengths, empty ones included, so
        CPUs run out of misses at different points of the merge."""
        rng = random.Random(seed)
        traces = [relocate(random_trace(rng, length), cpu)
                  for cpu, length in enumerate(lengths[:cpus])]
        assert (self.replay_epochs(replay_traces, kind, [traces])
                == self.replay_epochs(replay_reference, kind, [traces]))


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
