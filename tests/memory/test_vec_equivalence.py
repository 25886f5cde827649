"""Vectorized-engine vs. reference equivalence for trace replay.

``replay_traces`` hands single-CPU replays, and multi-CPU replays whose
CPUs touch pairwise disjoint lines, to the vectorized engine, which
carries the scalar loop's contract: *access-for-access* identical to
``replay_reference`` — same hit/miss/evict/upgrade/TLB counters, same
float operation order, hence bit-identical timing, and the same final
cache/TLB contents and recency order.  The hypothesis suite here pins
that over randomized traces spanning every replay regime (L1-hit runs,
write fractions from read-only to write-heavy, TLB churn and
L2-thrashing spans) for the default dispatch and for the scalar loop
``_replay_fast`` called directly.  The multi-CPU cases pin the
dispatch's scalar route for overlapping traces, and vec's per-CPU
oracles and issue-time merge of the L2 misses for disjoint ones on
every fabric.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import vec
from repro.memory.cache import AccessType
from repro.memory import mp
from repro.memory.mp import (
    FabricKind,
    _replay_fast,
    replay_reference,
    replay_traces,
)
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

#: The engines under the contract: the default dispatch and the scalar
#: loop it falls back to.
ENGINES = (replay_traces, _replay_fast)


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


def assert_regime_identical(replay, seed, write_fraction, length):
    rng = random.Random(seed)
    trace = regime_trace(rng, length, write_fraction)
    (got, got_mem), (ref, ref_mem) = replay_pair(replay, [trace])
    assert got == ref  # exact float equality, field for field
    assert snapshot(got_mem) == snapshot(ref_mem)


regimes = given(seed=st.integers(min_value=0, max_value=10_000),
                write_fraction=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
                length=st.integers(min_value=1, max_value=1200))


class TestVecBackendEquivalence:
    @regimes
    @settings(max_examples=25, deadline=None)
    def test_single_cpu_bitwise_identical(self, seed, write_fraction,
                                          length):
        assert_regime_identical(replay_traces, seed, write_fraction, length)

    @regimes
    @settings(max_examples=25, deadline=None)
    def test_scalar_loop_single_cpu_bitwise_identical(self, seed,
                                                      write_fraction,
                                                      length):
        assert_regime_identical(_replay_fast, seed, write_fraction, length)

    @pytest.mark.parametrize("cpus,seed", [(2, 0), (2, 3), (4, 4), (4, 13)])
    def test_multi_cpu_identical_via_fallback(self, cpus, seed):
        rng = random.Random(seed)
        traces = [random_trace(rng, 1500) for _ in range(cpus)]
        (got, got_mem), (ref, ref_mem) = replay_pair(replay_traces, traces)
        assert got == ref
        assert snapshot(got_mem) == snapshot(ref_mem)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_scalar_fast_path_too(self, seed):
        rng = random.Random(seed)
        trace = random_trace(rng, 2000)
        (got, got_mem), _ = replay_pair(replay_traces, [trace])
        (fast, fast_mem), _ = replay_pair(_replay_fast, [trace])
        assert got == fast
        assert snapshot(got_mem) == snapshot(fast_mem)

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

        ref = two_epochs(replay_reference)
        for replay in ENGINES:
            assert two_epochs(replay) == ref

    def test_array_traces_accepted_by_every_backend(self):
        rng = random.Random(3)
        trace = random_trace(rng, 800)
        arr = coerce_trace(list(trace))
        assert arr.dtype == REF_DTYPE
        stalls = [lambda latency, compute: latency]
        ref_mem = make_memory(1)
        ref = replay_reference(ref_mem, [arr], 5.0, stalls)
        for replay in ENGINES:
            mem = make_memory(1)
            assert replay(mem, [arr], 5.0, stalls) == ref
            assert snapshot(mem) == snapshot(ref_mem)

    def test_empty_trace(self):
        for replay in ENGINES:
            (got, got_mem), (ref, ref_mem) = replay_pair(replay, [[]])
            assert got == ref
            assert snapshot(got_mem) == snapshot(ref_mem)


class TestSegmentedReplay:
    """A trace longer than a segment replays piece by piece, each piece
    from the state the last one committed; no seam may show, whether the
    trace is pairs or a stream of short array blocks, and where a piece
    holds an address that sends it to the scalar loop."""

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
        """Fail on any scalar-loop call; count the vec calls."""
        calls = []
        replay = vec.replay

        def spy(memory, pieces, *args):
            calls.append(len(pieces))
            return replay(memory, pieces, *args)

        monkeypatch.setattr(vec, "replay", spy)
        monkeypatch.setattr(mp, "_replay_fast", None)
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
        assert snap["sequencer"][3]["contended"] > 0

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
