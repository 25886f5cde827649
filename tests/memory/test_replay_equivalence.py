"""Engine vs. reference equivalence for the batch trace replay.

Every replay engine must be *access-for-access* identical to
``replay_reference`` (the ``run_interleaved`` path): same hit/miss/
evict/upgrade/TLB counters, same float operation order (hence
bit-identical timing).  These property tests pin that over randomized
traces designed to hit every replay regime — L1 hits, SHARED-line write
upgrades, capacity misses, TLB thrashing — on one- and multi-CPU nodes,
for the default ``replay_traces`` dispatch (vec whenever the CPUs' lines
are pairwise disjoint, the scalar loop otherwise; these overlapping
random traces take the loop) and for the scalar loop ``_replay_fast``
called directly, so the loop keeps its single-CPU coverage.  The
dispatch cases pin which engine each input gets, and the fig8 regime
pins the dual-CPU vec route on real MatMult traces.

A second group pins the DES side the same way: the seeded fig9 run must
produce an identical metrics snapshot run-to-run, so the pooled-event /
inlined-trigger engine fast paths cannot perturb the instrumented path.
"""

import random

import pytest

from repro.memory.cache import AccessType, CacheGeometry, MESIState
from repro.memory.dram import DramConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.mesi import CoherenceError
from repro.memory.mp import (
    FabricConfig,
    FabricKind,
    MultiprocessorMemory,
    _replay_fast,
    replay_reference,
    replay_traces,
)
from repro.memory.snoop import SnoopConfig
from repro.memory.tlb import TlbConfig
from repro.sim.clock import Clock


def make_memory(cpus, kind=FabricKind.SWITCHED):
    """A deliberately tiny node so short random traces still evict."""
    hierarchy = HierarchyConfig(
        cpu_clock=Clock(180.0),
        bus_clock=Clock(60.0),
        l1=CacheGeometry(1024, 64, 2),
        l2=CacheGeometry(4096, 64, 2),
        dram=DramConfig(num_banks=4, interleave_bytes=64,
                        access_ns=60.0, bandwidth_mb_s=640.0),
        tlb=TlbConfig(entries=8, page_bytes=4096, miss_cycles=12.0),
        l1_hit_cycles=1.0, l2_hit_cycles=6.0, bus_overhead_bus_cycles=4.0)
    fabric = FabricConfig(
        kind=kind,
        snoop=SnoopConfig(bus_clock=Clock(60.0), phase_cycles=3.0,
                          queue_depth=4),
        data_bus_mb_s=480.0, c2c_transfer_mb_s=480.0, c2c_latency_ns=50.0)
    return MultiprocessorMemory(hierarchy, cpus, fabric)


def random_trace(rng, length):
    """A mixed-regime access stream.

    Draws from a hot set (L1 hits), a shared region (cross-CPU MESI
    traffic), a wide span (misses/evictions) and many pages (TLB churn),
    with a read-heavy but write-significant mix.
    """
    hot = [rng.randrange(0, 2048) * 8 for _ in range(16)]
    trace = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.45:
            addr = rng.choice(hot)
        elif roll < 0.70:
            addr = rng.randrange(0, 4096) * 8  # shared region, all CPUs
        else:
            addr = rng.randrange(0, 1 << 22) & ~0x7  # wide span
        access = AccessType.WRITE if rng.random() < 0.3 else AccessType.READ
        trace.append((addr, access))
    return trace


def relocate(trace, cpu):
    """``trace`` moved into CPU ``cpu``'s own 8 MiB region, so traces
    relocated to different CPUs share no line."""
    return [(addr + (cpu << 23), access) for addr, access in trace]


def snapshot(memory):
    """Everything a replay leaves behind in ``memory``.

    Every counter (per cache and TLB, the node's and the coherence
    domain's), every cache set's contents in LRU order, each TLB's
    entries in LRU order, and the shared-resource timing state of the
    address-phase sequencer, the DRAM banks and the data bus.
    """
    seq = memory.sequencer
    bus = memory.data_bus
    return {
        "l1": [l1.stats.as_dict() for l1 in memory.l1s],
        "l2": [l2.stats.as_dict() for l2 in memory.l2s],
        "tlb": [tlb.stats.as_dict() for tlb in memory.tlbs],
        "memory": memory.stats.as_dict(),
        "domain": memory.domain.stats.as_dict(),
        "l1_sets": [[list(s.items()) for s in l1._sets]
                    for l1 in memory.l1s],
        "l2_sets": [[list(s.items()) for s in l2._sets]
                    for l2 in memory.l2s],
        "tlb_entries": [list(tlb._entries) for tlb in memory.tlbs],
        "sequencer": (seq._next_free, seq.total_wait_ns, seq.busy_ns,
                      seq.stats.as_dict()),
        "dram": (list(memory.dram._bank_free), memory.dram.stats.as_dict()),
        "data_bus": (bus._next_free, bus.busy_ns, bus.grants),
    }


def replay_pair(replay, traces, compute_ns=5.0):
    """Replay ``traces`` through ``replay`` and through the reference,
    each on a fresh node; returns ``(results, memory)`` for both."""
    cpus = len(traces)
    stalls = [lambda latency, compute: latency] * cpus
    got_mem = make_memory(cpus)
    got = replay(got_mem, [list(t) for t in traces], compute_ns, stalls)
    ref_mem = make_memory(cpus)
    ref = replay_reference(ref_mem, [list(t) for t in traces], compute_ns,
                           stalls)
    return (got, got_mem), (ref, ref_mem)


def run_both(replay, cpus, seed, length=3000, compute_ns=5.0):
    rng = random.Random(seed)
    traces = [random_trace(rng, length) for _ in range(cpus)]
    (got, got_mem), (ref, ref_mem) = replay_pair(replay, traces, compute_ns)
    return (got, snapshot(got_mem)), (ref, snapshot(ref_mem))


class TestReplayFastPathEquivalence:
    """The default ``replay_traces`` dispatch against the reference."""

    replay = staticmethod(replay_traces)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
    def test_single_cpu_identical(self, seed):
        (fast, fast_snap), (ref, ref_snap) = run_both(self.replay, 1, seed)
        assert fast == ref  # exact float equality, field for field
        assert fast_snap == ref_snap

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_two_cpus_identical(self, seed):
        (fast, fast_snap), (ref, ref_snap) = run_both(self.replay, 2, seed)
        assert fast == ref
        assert fast_snap == ref_snap

    @pytest.mark.parametrize("seed", [4, 13])
    def test_four_cpus_identical(self, seed):
        (fast, fast_snap), (ref, ref_snap) = run_both(self.replay, 4, seed)
        assert fast == ref
        assert fast_snap == ref_snap

    def test_access_counts_match_trace_length(self):
        (fast, fast_snap), _ = run_both(self.replay, 2, seed=9, length=500)
        for res in fast:
            assert res.steps == 500
        for l1_counts in fast_snap["l1"]:
            hits = (l1_counts.get("read_hit", 0)
                    + l1_counts.get("write_hit", 0))
            misses = (l1_counts.get("read_miss", 0)
                      + l1_counts.get("write_miss", 0))
            assert hits + misses == 500

    def test_all_regimes_exercised(self):
        """The random traces must actually cover the interesting paths —
        otherwise the equivalence assertions above prove nothing."""
        _, (_, ref_snap) = run_both(self.replay, 2, seed=0)
        l1_total = {}
        for counts in ref_snap["l1"]:
            for key, value in counts.items():
                l1_total[key] = l1_total.get(key, 0) + value
        tlb_total = {}
        for counts in ref_snap["tlb"]:
            for key, value in counts.items():
                tlb_total[key] = tlb_total.get(key, 0) + value
        for key in ("read_hit", "write_hit", "read_miss", "write_miss",
                    "upgrade"):
            assert l1_total.get(key, 0) > 0, f"trace never hit {key}"
        assert tlb_total.get("misses", 0) > 0
        assert tlb_total.get("hits", 0) > 0
        assert tlb_total.get("evictions", 0) > 0
        # L1 misses refilled in-loop from the CPU's own E/M L2 line.
        l2_read_hits = sum(counts.get("read_hit", 0)
                           for counts in ref_snap["l2"])
        assert l2_read_hits > 0
        assert ref_snap["domain"].get("hit", 0) > 0

    def test_refills_run_in_loop(self):
        """Private-L2 refills must not reach the reference access path:
        only DRAM misses, SHARED upgrades and repair cases do."""
        rng = random.Random(0)
        traces = [random_trace(rng, 3000) for _ in range(2)]
        memory = make_memory(2)
        slow_calls = []
        reference_access = memory.access

        def counting_access(*args):
            slow_calls.append(args)
            return reference_access(*args)

        memory.access = counting_access
        self.replay(memory, traces, 5.0,
                    [lambda latency, compute: latency] * 2)
        # A replay that sent every L1 miss to the reference path would
        # make at least one call per miss.
        assert memory.domain.stats["hit"] > 0
        assert len(slow_calls) < sum(l1.miss_count() for l1 in memory.l1s)


class TestScalarLoopEquivalence(TestReplayFastPathEquivalence):
    """The same contract for ``_replay_fast`` called directly: the
    dispatch hands it single-CPU replays only when vec declines."""

    replay = staticmethod(_replay_fast)


class TestReplayDispatch:
    """The trace count and the node state pick the engine."""

    @pytest.fixture
    def served(self, monkeypatch):
        """Which engine replays each piece of a trace, in order."""
        from repro.memory import mp

        log = []
        for owner, name, label in ((mp.vec, "replay", "vec"),
                                   (mp, "_replay_fast", "scalar")):
            def spy(*args, engine=getattr(owner, name), label=label,
                    **kwargs):
                log.append(label)
                return engine(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        return log

    @staticmethod
    def replay(memory, traces):
        return replay_traces(memory, traces, 5.0,
                             [lambda latency, compute: latency] * len(traces))

    def test_fresh_single_cpu_replay_served_by_vec(self, served):
        trace = random_trace(random.Random(1), 500)
        memory = make_memory(2)
        self.replay(memory, [trace])
        self.replay(memory, [trace])  # warm CPU 0 alone: still vec
        assert served == ["vec", "vec"]

    def test_multi_cpu_replay_served_by_scalar_loop(self, served):
        rng = random.Random(2)
        self.replay(make_memory(2), [random_trace(rng, 500) for _ in "ab"])
        assert served == ["scalar"]

    def test_disjoint_multi_cpu_replay_served_by_vec(self, served):
        rng = random.Random(2)
        memory = make_memory(2)
        self.replay(memory, [relocate(random_trace(rng, 500), cpu)
                             for cpu in range(2)])
        assert served == ["vec"]

    @pytest.mark.parametrize("case", ["shared_line", "warm_sibling"])
    def test_node_state_falls_back(self, served, case):
        memory = make_memory(2)
        line = [(0x40, AccessType.READ)]
        if case == "shared_line":
            self.replay(memory, [line, line])
            memory.l1s[1].invalidate_all()
            memory.l2s[1].invalidate_all()
            assert memory.l2s[0].state_of(0x40) == MESIState.SHARED
        else:
            self.replay(memory, [[], line])  # CPU 1 holds the line
        served.clear()
        self.replay(memory, [[(0x80, AccessType.READ),
                              (0x40, AccessType.WRITE)]])
        assert served == ["scalar"]

    def test_disjoint_warm_sibling_served_by_vec(self, served):
        memory = make_memory(2)
        self.replay(memory, [[], [(0x40, AccessType.READ)]])
        self.replay(memory, [[(0x80, AccessType.READ)]])
        assert served == ["vec", "vec"]

    @pytest.mark.parametrize("case",
                             ["shared_line", "sibling_line", "outside_int64"])
    def test_multi_cpu_falls_back(self, served, case):
        memory = make_memory(2)
        traces = [[(0x1000, AccessType.READ)], [(0x2000, AccessType.WRITE)]]
        if case == "shared_line":
            line = [(0x40, AccessType.READ)]
            self.replay(memory, [line, line])
            memory.l1s[1].invalidate_all()
            memory.l2s[1].invalidate_all()
        elif case == "sibling_line":
            # CPU 0 holds the line CPU 1's trace touches.
            self.replay(memory, [[(0x2000, AccessType.READ)]])
        else:
            traces[1].append((1 << 70, AccessType.READ))
        served.clear()
        results = self.replay(memory, traces)
        assert served == ["scalar"]
        assert [r.steps for r in results] == [len(t) for t in traces]

    def test_address_outside_int64_falls_back(self, served):
        trace = iter([(0x40, AccessType.READ), (1 << 70, AccessType.READ),
                      (0x80, AccessType.WRITE)])
        result, = self.replay(make_memory(1), [trace])
        assert served == ["scalar"]
        assert result.steps == 3  # the half-coerced iterator is replayed whole


class TestFig8RegimeEquivalence:
    """The real fig8 regime: both MatMult versions, dual-CPU, on
    disjoint per-CPU matrices whose L2 lines are only ever E or M, on
    all three fabrics; every dual-CPU replay goes to vec."""

    @pytest.mark.parametrize("spec_name",
                             ["POWERMANNA", "SUN_ULTRA", "PC_CLUSTER_180"])
    @pytest.mark.parametrize("version", ["naive", "transposed"])
    def test_dual_cpu_matmult_identical(self, monkeypatch, spec_name,
                                        version):
        from repro.bench import matmult
        from repro.core import specs
        from repro.memory import mp
        from repro.memory.trace_gen import transpose_trace

        spec = getattr(specs, spec_name)
        n = 8
        bases = [matmult._alloc_matrices(cpu, n) for cpu in range(2)]

        def run(replay):
            node = spec.node(scale=16)
            stalls = [node._stall] * 2
            results = []
            if version == "transposed":
                traces = [transpose_trace(b[1], b[2], n) for b in bases]
                node.memory.reset_timing()
                results.append(replay(
                    node.memory, traces,
                    matmult._transpose_compute_ns(node), stalls))
            traces = [matmult._product_trace(version, b, n, None)
                      for b in bases]
            node.memory.reset_timing()
            results.append(replay(
                node.memory, traces,
                matmult._per_access_compute_ns(node, n, version), stalls))
            return results, node.memory

        ref, ref_mem = run(replay_reference)
        cpus_per_vec_call = []
        vec_replay = mp.vec.replay

        def spy(memory, pieces, *args):
            cpus_per_vec_call.append(len(pieces))
            return vec_replay(memory, pieces, *args)

        monkeypatch.setattr(mp.vec, "replay", spy)
        monkeypatch.setattr(mp, "_replay_fast", None)  # must not be reached
        fast, fast_mem = run(replay_traces)
        assert cpus_per_vec_call == [2] * len(ref)
        assert fast == ref
        assert snapshot(fast_mem) == snapshot(ref_mem)
        # The regime this pins: no L2 line is ever SHARED, so there are
        # no upgrade or intervention bus ops.
        assert not fast_mem.stats["upgrades"]
        assert not fast_mem.stats["c2c_transfers"]
        assert all(state != MESIState.SHARED
                   for l2 in fast_mem.l2s for _, state in l2.resident_lines())

    def test_fig8_command_stays_in_vec(self, monkeypatch, capsys):
        """``fig8 --sizes 16 24`` replays every access through vec: no
        scalar loop, and no access through the reference path."""
        from repro.cli import main
        from repro.memory import mp

        def forbidden(*args, **kwargs):
            raise AssertionError("left the vectorized engine")

        monkeypatch.setattr(mp, "_replay_fast", forbidden)
        monkeypatch.setattr(MultiprocessorMemory, "access", forbidden)
        assert main(["fig8", "--sizes", "16", "24", "--jobs", "1",
                     "--no-cache", "--no-journal"]) in (0, None)
        assert "Figure 8" in capsys.readouterr().out


class TestReferencePathMesiBreach:
    @pytest.mark.xfail(strict=True, raises=CoherenceError, reason=(
        "MultiprocessorMemory never back-invalidates L1 when L2 evicts: "
        "_repair_l1_inclusion repairs only the accessed line, so a later "
        "L1 write hit or dirty L1 victim refills L2 as MODIFIED with no "
        "bus op while another L2 holds the line SHARED"))
    @pytest.mark.parametrize("cpus,seed", [(2, 2), (4, 5), (4, 6), (4, 23)])
    def test_reference_path_keeps_mesi(self, cpus, seed):
        rng = random.Random(seed)
        traces = [random_trace(rng, 3000) for _ in range(cpus)]
        replay_reference(make_memory(cpus), traces, 5.0,
                         [lambda latency, compute: latency] * cpus)


class TestFig9MetricsSnapshotDeterminism:
    def test_seeded_fig9_metrics_snapshot_identical(self):
        from repro.msg.api import build_cluster_world
        from repro.obs import observe

        def run():
            with observe() as session:
                _, world = build_cluster_world()
                total = 0.0
                for nbytes in (8, 64, 512):
                    total += world.one_way_latency_ns(0, 1, nbytes)
            return total, session.metrics.snapshot()

        total_a, snap_a = run()
        total_b, snap_b = run()
        assert total_a == total_b
        assert dict(snap_a.items()) == dict(snap_b.items())
        assert snap_b.diff(snap_a) == {}
        # The snapshot is non-trivial: the whole message path reported in.
        assert len(snap_a) > 10
