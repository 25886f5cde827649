"""Cross-subsystem integration tests for the extension packages."""

import numpy as np

from repro.apps import run_stencil, serial_stencil
from repro.earth.fibers import Fiber, SyncSlot
from repro.earth.operations import DataSync, Spawn
from repro.earth.runtime import EarthMachine
from repro.msg.api import CommWorld
from repro.msg.reliable import ReliableChannel, ReliableConfig
from repro.network.topo import build_fabric
from repro.network.topology import manna_spec
from repro.sim.engine import Simulator


class TestEarthDivideAndConquer:
    def test_distributed_fib_is_correct(self):
        """A miniature EARTH fib: real recursion over 8 nodes."""
        machine = EarthMachine()

        def serial_fib(n):
            a, b = 0, 1
            for _ in range(n):
                a, b = b, a + b
            return a

        def make_fib(n, reply_node, frame, key, slot):
            def start(node, _frame):
                if n < 2:
                    return [DataSync(node=reply_node, frame=frame, key=key,
                                     value=serial_fib(n), slot=slot)]

                def combine(node_, my_frame):
                    return [DataSync(node=reply_node, frame=frame, key=key,
                                     value=my_frame["l"] + my_frame["r"],
                                     slot=slot)]

                my_frame: dict = {}
                continuation = Fiber(combine, frame=my_frame)
                child_slot = SyncSlot(2, continuation)
                here = node.node_id
                return [
                    Spawn(node=(here + 1) % 8,
                          fiber=make_fib(n - 1, here, my_frame, "l",
                                         child_slot)),
                    Spawn(node=(here + 3) % 8,
                          fiber=make_fib(n - 2, here, my_frame, "r",
                                         child_slot)),
                ]

            return Fiber(start, label=f"fib({n})")

        result_frame: dict = {}
        done = SyncSlot(1, Fiber(lambda node, frame: []))
        machine.spawn(0, make_fib(10, 0, result_frame, "result", done))
        machine.run()
        assert result_frame["result"] == 55
        # Work really spread across the machine.
        active_nodes = sum(1 for node in machine.nodes
                           if node.stats["fibers_run"] > 0)
        assert active_nodes >= 4


class TestReliableOverBigTopology:
    def test_reliable_delivery_across_three_crossbars(self):
        sim = Simulator()
        fabric = build_fabric(sim, manna_spec(clusters=4, nodes_per_cluster=8))
        world = CommWorld(sim, fabric)
        channel = ReliableChannel(world, ReliableConfig(error_rate=0.25,
                                                        seed=4))
        count = 6
        collected = []

        def receiver():
            for _ in range(count):
                delivery = yield channel.recv(31)   # different cluster
                collected.append(delivery.sequence)

        recv_proc = sim.process(receiver())

        def sender():
            for _ in range(count):
                yield channel.send(0, 31, 512)

        sim.process(sender())
        sim.run_until_complete(recv_proc)
        assert collected == list(range(count))
        assert channel.stats["delivered"] == count


class TestAppsAcrossMachines:
    def test_stencil_runs_on_every_table1_machine_spec(self):
        from repro.core.specs import PC_CLUSTER_180, POWERMANNA, SUN_ULTRA
        rod = np.zeros(64)
        rod[0], rod[-1] = 1.0, -1.0
        reference = serial_stencil(rod, 4)
        for spec in (POWERMANNA, SUN_ULTRA, PC_CLUSTER_180):
            result = run_stencil(64, 4, ranks=4, machine=spec, initial=rod)
            np.testing.assert_allclose(result.solution, reference)

    def test_faster_cpu_spends_less_compute_time(self):
        from repro.core.specs import PC_CLUSTER_180, POWERMANNA
        pm = run_stencil(4096, 4, ranks=4, machine=POWERMANNA)
        pc = run_stencil(4096, 4, ranks=4, machine=PC_CLUSTER_180)
        # The MPC620's FMA pipeline updates cells faster than the x87.
        assert pm.compute_ns < pc.compute_ns
