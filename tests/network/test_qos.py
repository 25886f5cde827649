"""Tests for per-class QoS: arbiters, token buckets, adaptive routing."""

import pytest

from repro.bench.traffic import ClassTraffic, run_load
from repro.msg.api import build_topology_world
from repro.network.crossbar import CrossbarConfig
from repro.network.qos import (
    AdaptiveConfig,
    AdaptiveRouter,
    ClassedArbiter,
    QosConfig,
    TrafficClass,
    _TokenBucket,
)
from repro.network.topo import parse_topology
from repro.sim.engine import SimulationError, Simulator


def two_classes(arbiter="fifo", **kwargs):
    return QosConfig(arbiter=arbiter, classes=(
        TrafficClass("urgent", priority=0, weight=4, **kwargs),
        TrafficClass("bulk", priority=1, weight=1)))


class TestConfigs:
    def test_round_trip(self):
        qos = two_classes("wdrr", rate_mb_s=30.0, burst_bytes=2048)
        assert QosConfig.from_dict(qos.to_dict()) == qos

    def test_adaptive_round_trip(self):
        config = AdaptiveConfig(depth_threshold=2, wait_slope=0.5,
                                check_interval_ns=100.0)
        assert AdaptiveConfig.from_dict(config.to_dict()) == config

    def test_class_index(self):
        qos = two_classes()
        assert qos.class_index("bulk") == 1
        with pytest.raises(KeyError):
            qos.class_index("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            QosConfig(arbiter="lottery")
        with pytest.raises(ValueError):
            QosConfig(classes=())
        with pytest.raises(ValueError):
            QosConfig(classes=(TrafficClass("a"), TrafficClass("a")))
        with pytest.raises(ValueError):
            TrafficClass("x", weight=0)
        with pytest.raises(ValueError):
            TrafficClass("x", rate_mb_s=-1.0)


class TestTokenBucket:
    def test_burst_then_debt(self):
        bucket = _TokenBucket(rate_mb_s=1000.0, burst_bytes=100)
        assert bucket.eligible(0.0)
        bucket.charge(150, 0.0)
        assert not bucket.eligible(0.0)
        # 1000 MB/s == 1 byte/ns: 50 bytes of debt clears in 50 ns.
        assert bucket.eligible_at(0.0) == pytest.approx(50.0, abs=1.0)
        assert bucket.eligible(60.0)

    def test_refill_caps_at_burst(self):
        bucket = _TokenBucket(rate_mb_s=1000.0, burst_bytes=100)
        bucket.charge(50, 0.0)
        bucket.refill(1e6)
        assert bucket.tokens == pytest.approx(100.0)


def drain(sim, arbiter, sclass, hold_ns, nbytes, grants):
    waited = yield arbiter.acquire(sclass)
    grants.append((sclass, sim.now, waited))
    yield sim.timeout(hold_ns)
    arbiter.release(sclass, nbytes)


class TestClassedArbiter:
    def test_fifo_is_arrival_order(self):
        sim = Simulator()
        arb = ClassedArbiter(sim, two_classes("fifo"))
        grants = []
        # bulk arrives before urgent: fifo must grant bulk first.
        sim.process(drain(sim, arb, 1, 10.0, 64, grants))
        sim.process(drain(sim, arb, 0, 10.0, 64, grants))
        sim.run()
        assert [g[0] for g in grants] == [1, 0]

    def test_priority_jumps_the_queue(self):
        sim = Simulator()
        arb = ClassedArbiter(sim, two_classes("priority"))
        grants = []

        def scenario():
            # Hold the port, queue bulk then urgent behind it.
            yield arb.acquire(1)
            sim.process(drain(sim, arb, 1, 10.0, 64, grants))
            sim.process(drain(sim, arb, 1, 10.0, 64, grants))
            sim.process(drain(sim, arb, 0, 10.0, 64, grants))
            yield sim.timeout(5.0)
            arb.release(1, 64)

        sim.process(scenario())
        sim.run()
        assert [g[0] for g in grants] == [0, 1, 1]

    def test_wdrr_shares_by_weight(self):
        sim = Simulator()
        qos = two_classes("wdrr")  # weights 4:1
        arb = ClassedArbiter(sim, qos)
        grants = []

        def scenario():
            yield arb.acquire(0)
            for _ in range(8):
                sim.process(drain(sim, arb, 0, 10.0, 1024, grants))
                sim.process(drain(sim, arb, 1, 10.0, 1024, grants))
            yield sim.timeout(5.0)
            arb.release(0, 1024)

        sim.process(scenario())
        sim.run()
        assert len(grants) == 16
        # In any window the 4:1 weights must favour urgent: among the
        # first 10 grants urgent gets clearly more than half.
        first = [g[0] for g in grants[:10]]
        assert first.count(0) >= 6

    def test_rate_limit_stalls_and_recovers(self):
        sim = Simulator()
        qos = QosConfig(arbiter="priority", classes=(
            TrafficClass("limited", priority=0, rate_mb_s=1000.0,
                         burst_bytes=64),
            TrafficClass("free", priority=1)))
        arb = ClassedArbiter(sim, qos)
        grants = []
        for _ in range(3):
            sim.process(drain(sim, arb, 0, 1.0, 256, grants))
        sim.run()
        assert len(grants) == 3
        # After the first grant exhausts the bucket, later grants wait
        # for refill: strictly increasing grant times, stalls counted.
        times = [g[1] for g in grants]
        assert times[1] > times[0] and times[2] > times[1]
        assert arb.class_rate_stalls[0] >= 1

    def test_resource_compatible_stats(self):
        sim = Simulator()
        arb = ClassedArbiter(sim, two_classes())
        grants = []
        sim.process(drain(sim, arb, 0, 100.0, 64, grants))
        sim.process(drain(sim, arb, 1, 100.0, 64, grants))
        sim.run()
        assert arb.total_acquisitions == 2
        assert arb.total_wait_time == pytest.approx(100.0)
        arb.sync()
        assert arb.busy_time == pytest.approx(200.0)
        assert arb.utilization() == pytest.approx(1.0)
        assert arb.queue_length == 0
        stats = arb.class_stats()
        assert stats["urgent"]["grants"] == 1
        assert stats["bulk"]["wait_ns"] == pytest.approx(100.0)

    def test_wait_pressure_counts_queued_waiters(self):
        sim = Simulator()
        arb = ClassedArbiter(sim, two_classes())

        def scenario():
            yield arb.acquire(0)
            arb.acquire(1)  # left queued
            yield sim.timeout(50.0)

        sim.process(scenario())
        sim.run()
        assert arb.wait_pressure() == pytest.approx(50.0)

    def test_release_when_idle_raises(self):
        sim = Simulator()
        arb = ClassedArbiter(sim, two_classes())
        with pytest.raises(SimulationError):
            arb.release(0, 64)

    def test_unknown_class_raises(self):
        sim = Simulator()
        arb = ClassedArbiter(sim, two_classes())
        with pytest.raises(SimulationError):
            arb.acquire(7)


INCAST_MIX = {"urgent": ClassTraffic("incast", 0.2, senders="odd"),
              "bulk": ClassTraffic("hotspot", 0.8, senders="even")}


def incast_p99(arbiter: str) -> float:
    qos = two_classes(arbiter)
    _, world = build_topology_world(parse_topology("cluster"),
                                    crossbar_config=CrossbarConfig(qos=qos))
    result = run_load(world, qos=qos, mix=INCAST_MIX, load=0.8,
                      messages=24, seed=11)
    return result.classes[0].latency_p99_ns


class TestQosEndToEnd:
    def test_priority_beats_fifo_p99_under_incast(self):
        """The acceptance criterion: under the incast mix the
        high-priority class's latency tail is demonstrably lower with
        strict priority than with fifo arbitration."""
        fifo = incast_p99("fifo")
        priority = incast_p99("priority")
        assert priority < fifo * 0.75

    def test_wdrr_beats_fifo_p99_under_incast(self):
        assert incast_p99("wdrr") < incast_p99("fifo")

    def test_classed_fifo_single_class_matches_legacy(self):
        """One best-effort class under the classed fifo arbiter produces
        the same traffic results as the legacy Resource arbiters."""
        from repro.bench.traffic import run_pattern

        spec = parse_topology("cluster")
        qos = QosConfig()  # fifo, single class
        _, legacy = build_topology_world(spec)
        _, classed = build_topology_world(
            spec, crossbar_config=CrossbarConfig(qos=qos))
        a = run_pattern(legacy, "random", message_bytes=256, rounds=2)
        b = run_pattern(classed, "random", message_bytes=256, rounds=2)
        assert a == b


class TestAdaptiveRouting:
    def build(self, depth=1, **kwargs):
        _, world = build_topology_world(parse_topology("cluster"))
        router = world.enable_adaptive(
            AdaptiveConfig(depth_threshold=depth, **kwargs))
        return world, router

    def test_congestion_marks_invalidate_memo(self):
        world, router = self.build()
        routes = world.routes
        version = routes.version
        edge = next(iter(router._port_edges.values()))
        assert routes.set_congested_edges({edge}) is True
        assert routes.version == version + 1
        # Re-asserting the same verdict is free.
        assert routes.set_congested_edges({edge}) is False
        assert routes.version == version + 1
        assert edge in routes.congested_edges

    def test_congested_edge_is_avoided_or_falls_back(self):
        """On the single-crossbar cluster every pair's only path crosses
        the one crossbar, so congestion avoidance must fall back to the
        congested path rather than stall."""
        world, router = self.build(check_interval_ns=1e9)
        # Consume the initial scan so it cannot overwrite the marks.
        router.route_bytes(("node", 0, 0), ("node", 2, 0))
        edge = router._port_edges[("plane0", 1)]
        world.routes.set_congested_edges({edge})
        route = router.route_bytes(("node", 0, 0), ("node", 1, 0))
        assert route  # delivered a usable route
        assert router.stats["fallbacks"] >= 1
        assert world.routes.congested_edges == set()

    def test_reroutes_under_hotspot_load(self):
        world, router = self.build(depth=2, check_interval_ns=500.0)
        qos = QosConfig()
        result = run_load(world, qos=qos,
                          mix={"best-effort": ClassTraffic("hotspot")},
                          load=0.9, messages=24, seed=5)
        # One crossbar: no port has a detour, so nothing is scanned.
        assert router.scans == 0
        assert result.reroutes == router.stats["reroutes"] == 0
        assert result.fallbacks == router.stats["fallbacks"] == 0

    def test_reroutes_under_hotspot_load_where_detours_exist(self):
        _, world = build_topology_world(parse_topology("fat_tree"))
        router = world.enable_adaptive(
            AdaptiveConfig(depth_threshold=1, check_interval_ns=500.0))
        assert router.has_detours
        result = run_load(world, qos=QosConfig(),
                          mix={"best-effort": ClassTraffic("hotspot")},
                          load=0.9, messages=8, seed=5)
        assert router.scans > 0
        assert result.reroutes == router.stats["reroutes"] > 0
        assert result.fallbacks == router.stats["fallbacks"]

    def test_single_crossbar_never_reroutes(self):
        """The cluster's one crossbar leaves every pair one path, so the
        router never scans: under a hotspot no route changes, nothing
        falls back and the route memo is never invalidated."""
        world, router = self.build(depth=2, check_interval_ns=500.0)
        assert not router.has_detours
        version = world.routes.version
        run_load(world, qos=QosConfig(),
                 mix={"best-effort": ClassTraffic("hotspot")},
                 load=0.9, messages=24, seed=5)
        assert router.scans == 0
        assert router.stats["fallbacks"] == 0
        assert router.stats["reroutes"] == 0
        assert world.routes.version == version

    def test_reroute_counts_a_changed_path(self):
        _, world = build_topology_world(parse_topology("manna"))
        router = world.enable_adaptive(
            AdaptiveConfig(depth_threshold=1, check_interval_ns=1e12))
        src, dst = (("node", node, 0) for node in world.far_pair())
        first = router.route_bytes(src, dst)  # takes the one scan
        assert router.route_bytes(src, dst) == first
        # Congest the spine-to-leaf hop: another spine takes over.
        path = world.routes.path(src, dst)
        world.routes.set_congested_edges({(path[2], path[3])})
        detour = router.route_bytes(src, dst)
        assert detour != first
        assert router.route_bytes(src, dst) == detour
        assert router.stats["reroutes"] == 1

    def test_scan_is_rate_limited(self):
        _, world = build_topology_world(parse_topology("manna"))
        router = world.enable_adaptive(
            AdaptiveConfig(depth_threshold=1, check_interval_ns=1e9))
        for _ in range(5):
            router.route_bytes(("node", 0, 0), ("node", 1, 0))
        assert router.scans == 1
