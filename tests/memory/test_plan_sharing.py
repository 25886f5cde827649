"""One oracle pass per distinct segment: when vec shares a plan, and when
it must not.

``replay_nodes`` replays several nodes side by side, and vec plans a
segment's L1, TLB and L2 outcome once for every CPU whose segment is the
planned one shifted by an offset aligned to each set span and page, with
equal writes, from the equally shifted state.  A shared plan must give
each CPU exactly what the reference gives it; every near miss of the
sharing rule must get an oracle pass of its own and still match.
"""

import random
import tracemalloc

import pytest

from repro.bench.matmult import _alloc_matrices, _product_trace, smp_speedup
from repro.core.specs import PC_CLUSTER_180, POWERMANNA
from repro.memory import vec
from repro.memory.cache import AccessType
from repro.memory.mp import replay_nodes, replay_reference

from .test_replay_equivalence import make_memory, random_trace, snapshot

_READ = AccessType.READ
_WRITE = AccessType.WRITE


@pytest.fixture
def passes(monkeypatch):
    """The number of oracle passes vec runs (one ``_plan_l1`` each)."""
    calls = []
    plan_l1 = vec._plan_l1

    def spy(job):
        calls.append(job.n)
        return plan_l1(job)

    monkeypatch.setattr(vec, "_plan_l1", spy)
    return calls


def shifted(trace, delta):
    return [(addr + delta, access) for addr, access in trace]


def stalls(cpus):
    return [lambda latency, compute: latency] * cpus


def replay_together(memories, traces_per_node, compute_ns=5.0):
    """``replay_nodes`` over ``memories``, each with its own traces."""
    return replay_nodes([(memory, [list(t) for t in traces], compute_ns,
                          stalls(len(traces)))
                         for memory, traces in zip(memories,
                                                   traces_per_node)])


def reference(memory, traces, compute_ns=5.0):
    return replay_reference(memory, [list(t) for t in traces], compute_ns,
                            stalls(len(traces)))


class TestSharedPlansMatchTheReference:
    """fig8's shape on a tiny node: one CPU alone beside two CPUs whose
    traces are its trace and the same shifted by 8 MiB."""

    DELTA = 1 << 23  # a multiple of every set span and page of make_memory

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_solo_and_dual_runs_match_the_reference(self, monkeypatch,
                                                    passes, seed):
        monkeypatch.setattr(vec, "_SEGMENT", 97)  # several segments each
        rng = random.Random(seed)
        epochs = [random_trace(rng, 600), random_trace(rng, 500)]
        solo, dual = make_memory(2), make_memory(2)
        ref_solo, ref_dual = make_memory(2), make_memory(2)
        for trace in epochs:
            pair = [trace, shifted(trace, self.DELTA)]
            for memory in (solo, dual, ref_solo, ref_dual):
                memory.reset_timing()
            got = replay_together([solo, dual], [[trace], pair])
            assert got == [reference(ref_solo, [trace]),
                           reference(ref_dual, pair)]
        assert snapshot(solo) == snapshot(ref_solo)
        assert snapshot(dual) == snapshot(ref_dual)
        # One pass per segment of the one trace, not one per CPU.
        assert len(passes) == sum(-(-len(t) // 97) for t in epochs)
        # The runs reached DRAM and contended there.
        assert snapshot(ref_dual)["memory"]["memory_accesses"] > 100
        assert snapshot(ref_dual)["sequencer"]["contended"] > 0

    def test_results_equal_separate_replays(self, monkeypatch):
        """Replayed together or one node at a time, the nodes end alike."""
        monkeypatch.setattr(vec, "_SEGMENT", 97)
        trace = random_trace(random.Random(5), 700)
        pair = [trace, shifted(trace, self.DELTA)]
        together = [make_memory(2), make_memory(2)]
        got = replay_together(together, [[trace], pair])
        alone = [make_memory(2), make_memory(2)]
        assert got == [replay_together([alone[0]], [[trace]])[0],
                       replay_together([alone[1]], [pair])[0]]
        assert [snapshot(m) for m in together] == [snapshot(m)
                                                   for m in alone]

    def test_a_node_takes_part_once(self):
        memory = make_memory(1)
        with pytest.raises(ValueError):
            replay_together([memory, memory], [[[]], [[]]])


class TestNearMissesGetTheirOwnPass:
    """Two single-CPU nodes, the second's trace or state a near miss of
    the first's shifted; each must run its own oracle passes and match
    the reference.  The real fig8 geometry (PowerMANNA at scale 16: L1
    set span and TLB page 256 B, L2 set span 32 KiB) separates the three
    alignment conditions."""

    SEGMENT = 211
    SPAN = 1 << 18

    @staticmethod
    def memory():
        return POWERMANNA.node(scale=16).memory

    def trace(self, seed=4, length=900):
        """Hot lines for L1 hits, a span that thrashes the 32 KiB L2 and
        the 128-page TLB, and a third of the accesses writes."""
        rng = random.Random(seed)
        hot = [rng.randrange(0, 4096) * 8 for _ in range(12)]
        out = []
        for _ in range(length):
            addr = (rng.choice(hot) if rng.random() < 0.4
                    else rng.randrange(0, self.SPAN) & ~0x7)
            out.append((0x1000_0000 + addr,
                        _WRITE if rng.random() < 0.3 else _READ))
        return out

    def check(self, monkeypatch, passes, first, second, warm=None):
        """Replay ``first`` and ``second`` on two nodes together (after
        ``warm`` on the second node alone) and compare both with the
        reference; returns the oracle passes the pair ran."""
        monkeypatch.setattr(vec, "_SEGMENT", self.SEGMENT)
        memories = [self.memory(), self.memory()]
        refs = [self.memory(), self.memory()]
        if warm is not None:
            replay_together([memories[1]], [[warm]])
            reference(refs[1], [warm])
            for memory in memories + refs:
                memory.reset_timing()
        passes.clear()
        got = replay_together(memories, [[first], [second]])
        assert got == [reference(refs[0], [first]),
                       reference(refs[1], [second])]
        assert [snapshot(m) for m in memories] == [snapshot(m) for m in refs]
        return len(passes)

    def segments(self, trace):
        return -(-len(trace) // self.SEGMENT)

    def test_aligned_shift_shares(self, monkeypatch, passes):
        """The control: a shift by whole L2 spans shares every plan."""
        trace = self.trace()
        assert (self.check(monkeypatch, passes, trace,
                           shifted(trace, 3 << 15))
                == self.segments(trace))

    @pytest.mark.parametrize("delta", [64, 1 << 14],
                             ids=["line", "half_l2_span"])
    def test_unaligned_shift(self, monkeypatch, passes, delta):
        """+64 B breaks the L1 set span and the page; +16 KiB, half the
        L2 set span, keeps both and breaks only the L2 span."""
        trace = self.trace()
        assert (self.check(monkeypatch, passes, trace,
                           shifted(trace, delta))
                == 2 * self.segments(trace))

    def test_differing_write(self, monkeypatch, passes):
        trace = self.trace()
        other = shifted(trace, 1 << 15)
        addr, access = other[-1]
        other[-1] = (addr, _READ if access == _WRITE else _WRITE)
        # Only the last segment differs, so only it is planned twice.
        assert (self.check(monkeypatch, passes, trace, other)
                == self.segments(trace) + 1)

    def test_shifted_but_different_starting_state(self, monkeypatch,
                                                  passes):
        """The second node starts with one extra line cached and one
        extra TLB page: its state is not the first's shifted, so no plan
        is shared, though the segments are."""
        trace = self.trace()
        other = shifted(trace, 1 << 15)
        spare = 0x7000_0000
        assert (self.check(monkeypatch, passes, trace, other,
                           warm=[(spare, _READ)])
                == 2 * self.segments(trace))


def run_cli(argv):
    """A figure command in-process, at its printed size, cold."""
    from repro.cli import main
    assert main(argv + ["--jobs", "1", "--no-cache", "--no-journal"]) == 0


class TestFig6OraclePasses:
    def test_data_types_share_each_checkpoint(self, passes, capsys):
        """fig6 replays a machine's double and int runs side by side: one
        pass per checkpoint (16 ... 4096) per machine, where the runs
        apart took 72."""
        run_cli(["fig6"])
        assert len(passes) == 36


class TestDirectMappedSetsRunNoLockstep:
    @pytest.mark.parametrize("argv", [["fig6"], ["fig7", "--sizes", "8", "24"],
                                      ["fig8", "--sizes", "8"]],
                             ids=["fig6", "fig7", "fig8"])
    def test_sun_caches_are_solved_in_closed_form(self, monkeypatch, capsys,
                                                  argv):
        """Sun's direct-mapped L1 and L2 never reach the lockstep engine;
        the other machines' caches do."""
        ways = []
        lockstep = vec._lockstep
        direct = []
        direct_mapped = vec._direct_mapped

        def spy(tags, writes, lane_start, lane_len, n_ways, *rest):
            ways.append(n_ways)
            return lockstep(tags, writes, lane_start, lane_len, n_ways,
                            *rest)

        def spy_direct(*args):
            direct.append(args[4])
            return direct_mapped(*args)

        monkeypatch.setattr(vec, "_lockstep", spy)
        monkeypatch.setattr(vec, "_direct_mapped", spy_direct)
        run_cli(argv)
        assert ways and 1 not in ways
        assert direct and set(direct) == {1}


class TestFig8OraclePasses:
    def test_one_pass_per_distinct_segment(self, passes):
        """An unsampled fig8 point plans CPU 0's product trace once for
        the solo CPU and both CPUs of the dual run."""
        n = 24
        trace = _product_trace("naive", _alloc_matrices(0, n), n, None)
        distinct = len(list(vec.segments(trace)))
        smp_speedup(POWERMANNA, n, "naive")
        assert distinct == 3
        assert len(passes) == distinct

    #: ``tracemalloc`` peaks of ``smp_speedup(spec, 96, version)`` (a
    #: sampled point) when the solo and the dual run replayed one after
    #: the other, each CPU planning its own segments, measured as the
    #: test below measures them, on CPython 3.11 and numpy 2.
    SEPARATE_RUN_PEAKS = {
        ("powermanna", "naive"): 3_306_081,
        ("powermanna", "transposed"): 3_352_220,
        ("pc180", "naive"): 3_320_183,
        ("pc180", "transposed"): 3_265_334,
    }

    @pytest.mark.parametrize("spec", [POWERMANNA, PC_CLUSTER_180],
                             ids=lambda spec: spec.key)
    @pytest.mark.parametrize("version", ["naive", "transposed"])
    def test_sampled_point_peak_memory(self, spec, version):
        """Sharing plans must not cost memory: the two nodes run side by
        side, so each plan lives only until its last CPU opened it."""
        smp_speedup(spec, 16, version)  # first-call allocations
        tracemalloc.start()
        try:
            smp_speedup(spec, 96, version)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.10 * self.SEPARATE_RUN_PEAKS[spec.key, version]
