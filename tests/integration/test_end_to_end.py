"""End-to-end integration tests across subsystems."""

import pytest

from repro import PowerMannaSystem
from repro.bench.hint import hint_on_machine
from repro.bench.matmult import run_matmult
from repro.core.specs import PC_CLUSTER_180, POWERMANNA, SUN_ULTRA
from repro.msg.api import CommWorld, build_cluster_world
from repro.msg.mpi import MiniMpi
from repro.network.topo import build_fabric
from repro.network.topology import manna_spec
from repro.sim.engine import Simulator


class TestFullSystem:
    def test_cluster_ping_pong_through_every_layer(self):
        """Driver -> NI FIFO -> link -> crossbar -> link -> NI -> driver."""
        system = PowerMannaSystem.cluster()
        for a, b in ((0, 1), (0, 7), (3, 6)):
            latency = system.world(0).one_way_latency_ns(a, b, 8, reps=2)
            assert 2000.0 < latency < 4000.0

    def test_256_system_messages_cross_three_crossbars(self):
        sim = Simulator()
        fabric = build_fabric(sim, manna_spec(clusters=4, nodes_per_cluster=8))
        world = CommWorld(sim, fabric)
        recv = world.recv(31)
        world.send(0, 31, 1024)
        sim.run_until_complete(recv)
        message = recv.value
        assert len(message.route) == 3
        assert message.latency() > 0

    def test_mpi_program_on_the_full_stack(self):
        _, world = build_cluster_world()
        mpi = MiniMpi(world)

        def ring(ctx):
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            total_bytes = 0
            token = 64
            for _ in range(ctx.size):
                send = ctx.send(right, token)
                envelope = yield ctx.recv(left)
                yield send
                total_bytes += envelope.nbytes
            return total_bytes

        results = mpi.run(ring)
        assert all(value == 8 * 64 for value in results)

    def test_crossbar_collisions_under_hotspot(self):
        """All nodes hammering node 0 must collide on one output port."""
        sim, world = build_cluster_world()
        received = []

        def sink():
            for _ in range(7):
                message = yield world.recv(0)
                received.append(message)

        sink_proc = sim.process(sink())
        for src in range(1, 8):
            world.send(src, 0, 2048)
        sim.run_until_complete(sink_proc)
        assert len(received) == 7
        xbar = world.fabric.crossbars["plane0"]
        assert xbar.stats["collisions"] >= 5


class TestCrossMachineConsistency:
    """The three machines are built from the same substrate code; a change
    to one model must not silently warp another.  These pin the headline
    cross-machine relations the figures rely on."""

    def test_same_trace_same_determinism(self):
        first = run_matmult(POWERMANNA.node(scale=32), 24, "naive")
        second = run_matmult(POWERMANNA.node(scale=32), 24, "naive")
        assert first.elapsed_ns == second.elapsed_ns

    def test_transposed_ranking_holds(self):
        values = {}
        for spec in (POWERMANNA, SUN_ULTRA, PC_CLUSTER_180):
            values[spec.key] = run_matmult(spec.node(scale=32), 48,
                                           "transposed").mflops
        assert values["powermanna"] > values["pc180"]
        assert values["powermanna"] > values["sun"]

    def test_hint_peak_ranking_holds(self):
        peaks = {}
        for spec in (POWERMANNA, SUN_ULTRA, PC_CLUSTER_180):
            peaks[spec.key] = hint_on_machine(
                spec, scale=32, max_subintervals=2048).peak_quips
        assert peaks["powermanna"] > peaks["pc180"] > peaks["sun"]


class TestFaultInjection:
    def test_corrupted_message_crc_detected_end_to_end(self):
        from repro.ni.interface import CrcError
        sim, world = build_cluster_world()
        message = world.make_message(0, 1, 64, tag={"crc": 0xBAD})
        recv = world.recv(1)
        sim.process(world.endpoint(0).driver.send_message(message))
        with pytest.raises(CrcError):
            sim.run_until_complete(recv)

    def test_receive_without_sender_deadlocks_cleanly(self):
        from repro.sim.engine import SimulationError
        sim, world = build_cluster_world()
        recv = world.recv(1)
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(recv)

    def test_unrouteable_destination_raises(self):
        from repro.network.routing import NoRouteError
        _, world = build_cluster_world()
        with pytest.raises((KeyError, NoRouteError)):
            world.make_message(0, 99, 8)
