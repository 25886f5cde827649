"""Tests for the 16x16 crossbar."""

import pytest

from repro.network.crossbar import Crossbar, CrossbarConfig, RoutingError
from repro.network.link import ByteFifo, Link, LinkConfig
from repro.network.message import Flit, FlitKind, Message, build_wire_format
from repro.network.topo import build_fabric
from repro.network.topology import cluster_spec
from repro.obs import observe
from repro.sim.engine import Simulator


def wired_crossbar(sim, ports_to_wire=(0, 1, 2, 3), config=None):
    """A crossbar with sink FIFOs on the given output ports."""
    xbar = Crossbar(sim, config or CrossbarConfig(), name="x")
    sinks = {}
    for port in ports_to_wire:
        sink = ByteFifo(sim, 4096, name=f"sink{port}")
        link = Link(sim, LinkConfig(propagation_ns=0.0), sink,
                    name=f"x.out{port}")
        xbar.attach_output(port, link)
        sinks[port] = sink
    return xbar, sinks


def inject(sim, xbar, in_port, flits):
    def feeder():
        for flit in flits:
            yield xbar.input_fifo(in_port).put(flit)

    sim.process(feeder())


def drain(sim, sink, count, out):
    def drainer():
        for _ in range(count):
            flit = yield sink.get()
            out.append((sim.now, flit))

    sim.process(drainer())


def message_flits(route, payload=16, mid_holder=[100]):
    mid_holder[0] += 1
    message = Message(source=0, dest=1, payload_bytes=payload,
                      route=tuple(route))
    message.message_id = mid_holder[0]
    return build_wire_format(message)


class TestWormholeRouting:
    def test_route_byte_consumed_payload_forwarded(self):
        sim = Simulator()
        xbar, sinks = wired_crossbar(sim)
        flits = message_flits([2], payload=16)
        inject(sim, xbar, 0, flits)
        out = []
        drain(sim, sinks[2], 3, out)   # 2 data + close
        sim.run()
        kinds = [f.kind for _, f in out]
        assert kinds == [FlitKind.DATA, FlitKind.DATA, FlitKind.CLOSE]

    def test_multi_hop_header_forwards_remaining_routes(self):
        sim = Simulator()
        xbar, sinks = wired_crossbar(sim)
        flits = message_flits([1, 5], payload=8)
        inject(sim, xbar, 0, flits)
        out = []
        drain(sim, sinks[1], 3, out)
        sim.run()
        kinds = [f.kind for _, f in out]
        # The second route byte travels on for the next crossbar.
        assert kinds == [FlitKind.ROUTE, FlitKind.DATA, FlitKind.CLOSE]
        assert out[0][1].route_port == 5

    def test_route_setup_takes_200ns(self):
        sim = Simulator()
        xbar, sinks = wired_crossbar(sim)
        inject(sim, xbar, 0, message_flits([2], payload=8))
        out = []
        drain(sim, sinks[2], 2, out)
        sim.run()
        first_arrival = out[0][0]
        assert first_arrival >= 200.0   # the paper's through-routing time

    def test_connection_closes_and_reopens(self):
        sim = Simulator()
        xbar, sinks = wired_crossbar(sim)
        first = message_flits([2], payload=8)
        second = message_flits([3], payload=8)
        inject(sim, xbar, 0, first + second)
        out2, out3 = [], []
        drain(sim, sinks[2], 2, out2)
        drain(sim, sinks[3], 2, out3)
        sim.run()
        assert len(out2) == 2 and len(out3) == 2
        assert xbar.stats["connections"] == 2

    def test_two_inputs_to_different_outputs_in_parallel(self):
        sim = Simulator()
        xbar, sinks = wired_crossbar(sim)
        inject(sim, xbar, 0, message_flits([2], payload=64))
        inject(sim, xbar, 1, message_flits([3], payload=64))
        out2, out3 = [], []
        drain(sim, sinks[2], 9, out2)
        drain(sim, sinks[3], 9, out3)
        sim.run()
        assert xbar.stats["collisions"] == 0
        # Both finished around the same time: full parallelism.
        assert out2[-1][0] == pytest.approx(out3[-1][0], rel=0.2)

    def test_output_collision_serialises(self):
        sim = Simulator()
        xbar, sinks = wired_crossbar(sim)
        inject(sim, xbar, 0, message_flits([2], payload=64))
        inject(sim, xbar, 1, message_flits([2], payload=64))
        out = []
        drain(sim, sinks[2], 18, out)
        sim.run()
        assert xbar.stats["collisions"] == 1
        assert xbar.collision_rate() == pytest.approx(0.5)
        # Wormhole: no interleaving of the two messages' payloads.
        ids = [f.message_id for _, f in out]
        switch_points = sum(1 for a, b in zip(ids, ids[1:]) if a != b)
        assert switch_points == 1


class TestFailedOutput:
    """A failed output black-holes wormholes routed to it: every flit is
    consumed so the input keeps flowing, none is forwarded, and each
    swallowed wormhole is counted once in stats and in metrics."""

    def _cluster_plane(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec())
        return sim, fabric.crossbars["plane0"], fabric.attachment(2, 0).rx_fifo

    def test_message_to_failed_port_is_blackholed_and_counted(self):
        with observe() as session:
            sim, xbar, rx = self._cluster_plane()
            xbar.fail_output(2)
            inject(sim, xbar, 0, message_flits([2], payload=64))
            sim.run()
        assert xbar.stats["blackholed"] == 1
        assert session.metrics.total("faults.blackholed") == 1
        assert xbar.stats["forwarded_bytes"] == 0
        assert rx.is_empty and xbar.input_fifo(0).is_empty

    def test_port_failed_mid_wormhole_drains_the_rest_unsent(self):
        sim, xbar, rx = self._cluster_plane()
        flits = message_flits([2], payload=256)
        inject(sim, xbar, 0, flits)
        delivered = []
        drain(sim, rx, len(flits), delivered)

        def fail_after_first_flits():
            # Route setup is 200 ns; by 400 ns the circuit is open and
            # carrying payload, with most of the message still upstream.
            yield sim.timeout(400.0)
            assert xbar.stats["connections"] == 1
            assert 0 < xbar.stats["forwarded_bytes"] < 256
            xbar.fail_output(2)

        sim.process(fail_after_first_flits())
        sim.run()
        assert xbar.stats["blackholed"] == 1
        assert 0 < len(delivered) < len(flits) - 1
        assert all(f.kind == FlitKind.DATA for _, f in delivered)
        assert xbar.input_fifo(0).is_empty


class TestProtocolErrors:
    def test_data_before_route_rejected(self):
        sim = Simulator()
        xbar, _ = wired_crossbar(sim)
        inject(sim, xbar, 0, [Flit(FlitKind.DATA, 8, 1)])
        with pytest.raises(RoutingError, match="expected a route"):
            sim.run()

    def test_route_to_unwired_output_rejected(self):
        sim = Simulator()
        xbar, _ = wired_crossbar(sim, ports_to_wire=(0,))
        inject(sim, xbar, 1, message_flits([9]))
        with pytest.raises(RoutingError, match="unwired"):
            sim.run()

    def test_route_out_of_range_rejected(self):
        sim = Simulator()
        xbar, _ = wired_crossbar(sim)
        inject(sim, xbar, 0, message_flits([99]))
        with pytest.raises(RoutingError):
            sim.run()

    def test_double_output_wiring_rejected(self):
        sim = Simulator()
        xbar, _ = wired_crossbar(sim, ports_to_wire=(0,))
        sink = ByteFifo(sim, 64)
        with pytest.raises(ValueError, match="already wired"):
            xbar.attach_output(0, Link(sim, LinkConfig(), sink))

    def test_bad_port_rejected(self):
        sim = Simulator()
        xbar, _ = wired_crossbar(sim)
        with pytest.raises(ValueError):
            xbar.input_fifo(99)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CrossbarConfig(ports=1)
        with pytest.raises(ValueError):
            CrossbarConfig(input_fifo_bytes=4)
        with pytest.raises(ValueError):
            CrossbarConfig(route_setup_ns=-1.0)


class TestWormholeWatchdog:
    """Under fault injection an open wormhole whose upstream goes quiet
    for ``teardown_ns`` is torn down: the output is released and the
    input resynchronises on the next route command."""

    TEARDOWN_NS = 1000.0

    def _crossbar(self, sim):
        config = CrossbarConfig(teardown_ns=self.TEARDOWN_NS)
        return wired_crossbar(sim, config=config)

    def test_quiet_wormhole_is_torn_down_and_input_resyncs(self):
        from repro.faults import FaultPlan, inject as inject_faults

        with inject_faults(FaultPlan(seed=0)):
            sim = Simulator()
            xbar, sinks = self._crossbar(sim)
            stalled = message_flits([2], payload=16)
            fifo = xbar.input_fifo(0)

            def upstream():
                # Route and one data flit, then silence past the
                # watchdog; then a straggler and a whole new message.
                for flit in stalled[:2]:
                    yield fifo.put(flit)
                yield sim.timeout(5 * self.TEARDOWN_NS)
                yield fifo.put(stalled[2])
                for flit in message_flits([2], payload=8):
                    yield fifo.put(flit)

            sim.process(upstream())
            sim.run()
        assert xbar.stats["torn_down"] == 1
        assert xbar.stats["resync_discarded"] == 1
        assert xbar.stats["connections"] == 2
        kinds = [flit.kind for flit in sinks[2].items]
        assert kinds == [FlitKind.DATA, FlitKind.DATA, FlitKind.CLOSE]
        assert xbar.output_utilization(2) > 0

    def test_flit_put_at_the_watchdog_instant_wins(self):
        from repro.faults import FaultPlan, inject as inject_faults

        config = CrossbarConfig(teardown_ns=self.TEARDOWN_NS)
        with inject_faults(FaultPlan(seed=0)):
            sim = Simulator()
            xbar, sinks = self._crossbar(sim)
            flits = message_flits([2], payload=16)
            fifo = xbar.input_fifo(0)
            for flit in flits[:2]:
                assert fifo.try_put(flit)
            # The data flit is forwarded at route set-up + forward_ns,
            # and the watchdog is armed then.  The rest arrives exactly
            # one watchdog period later, queued after the timer.
            armed_at = config.route_setup_ns + config.forward_ns

            def late_upstream():
                yield sim.timeout(armed_at)
                yield sim.timeout(0)
                yield sim.timeout(self.TEARDOWN_NS)
                for flit in flits[2:]:
                    assert fifo.try_put(flit)

            sim.process(late_upstream())
            sim.run()
        assert xbar.stats["torn_down"] == 0
        assert xbar.stats["connections"] == 1
        kinds = [flit.kind for flit in sinks[2].items]
        assert kinds == [FlitKind.DATA, FlitKind.DATA, FlitKind.CLOSE]
