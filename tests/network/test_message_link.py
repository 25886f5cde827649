"""Tests for messages, flits, byte FIFOs and links."""

import pytest

from repro.network.link import ByteFifo, Link, LinkConfig
from repro.network.message import (
    Flit,
    FlitKind,
    Message,
    build_wire_format,
    payload_flit_count,
)
from repro.sim.engine import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestMessage:
    def test_wire_bytes_counts_header_and_close(self):
        message = Message(source=0, dest=1, payload_bytes=64, route=(3, 7))
        assert message.wire_bytes == 64 + 2 + 1

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Message(source=0, dest=1, payload_bytes=-1)

    def test_unique_ids(self):
        a = Message(source=0, dest=1, payload_bytes=0)
        b = Message(source=0, dest=1, payload_bytes=0)
        assert a.message_id != b.message_id

    def test_latency_requires_timestamps(self):
        message = Message(source=0, dest=1, payload_bytes=8)
        with pytest.raises(ValueError):
            message.latency()
        message.sent_at, message.delivered_at = 10.0, 35.0
        assert message.latency() == 25.0


class TestWireFormat:
    def test_structure(self):
        message = Message(source=0, dest=1, payload_bytes=20, route=(5, 2))
        flits = build_wire_format(message)
        kinds = [f.kind for f in flits]
        assert kinds == [FlitKind.ROUTE, FlitKind.ROUTE, FlitKind.DATA,
                         FlitKind.DATA, FlitKind.DATA, FlitKind.CLOSE]
        assert [f.nbytes for f in flits] == [1, 1, 8, 8, 4, 1]
        assert flits[0].route_port == 5

    def test_zero_payload_message(self):
        message = Message(source=0, dest=1, payload_bytes=0, route=(1,))
        flits = build_wire_format(message)
        assert [f.kind for f in flits] == [FlitKind.ROUTE, FlitKind.CLOSE]

    def test_payload_flit_count(self):
        assert payload_flit_count(0) == 0
        assert payload_flit_count(8) == 1
        assert payload_flit_count(9) == 2

    def test_data_flits_sequence_numbered(self):
        message = Message(source=0, dest=1, payload_bytes=24)
        data = [f for f in build_wire_format(message)
                if f.kind == FlitKind.DATA]
        assert [f.seq for f in data] == [0, 1, 2]

    def test_flit_validation(self):
        with pytest.raises(ValueError):
            Flit(FlitKind.ROUTE, 1, 1)              # route without port
        with pytest.raises(ValueError):
            Flit(FlitKind.DATA, 8, 1, route_port=2)  # data with port
        with pytest.raises(ValueError):
            Flit(FlitKind.DATA, 0, 1)                # empty flit


def data_flit(nbytes=8, mid=1, seq=0):
    return Flit(FlitKind.DATA, nbytes, mid, seq=seq)


class TestByteFifo:
    def test_capacity_in_bytes_not_items(self, sim):
        fifo = ByteFifo(sim, 16)
        assert fifo.try_put(data_flit(8))
        assert fifo.try_put(data_flit(8))
        assert not fifo.try_put(data_flit(1))
        assert len(fifo) == 2

    def test_put_blocks_until_room(self, sim):
        fifo = ByteFifo(sim, 8)
        done = []

        def producer():
            yield fifo.put(data_flit(8))
            yield fifo.put(data_flit(8))
            done.append(sim.now)

        def consumer():
            yield sim.timeout(100.0)
            yield fifo.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert done == [100.0]

    def test_try_put_wakes_a_getter_and_keeps_putters_in_order(self, sim):
        fifo = ByteFifo(sim, 8)
        got = []

        def consumer():
            got.append((yield fifo.get()).seq)

        sim.process(consumer())
        sim.run()
        # A waiting getter is handed the flit; nothing is left.
        assert fifo.try_put(data_flit(8, seq=1))
        assert fifo.level_bytes == 0
        sim.run()
        assert got == [1]
        # Full: refused.  Room again but a putter queued first: refused,
        # so a try_put never overtakes a blocked put.
        assert fifo.try_put(data_flit(8, seq=2))
        queued = fifo.put(data_flit(4, seq=3))
        assert not fifo.try_put(data_flit(4, seq=4))
        fifo.try_get()
        assert queued.triggered
        assert not fifo.try_put(data_flit(8, seq=5))
        assert [flit.seq for flit in fifo.items] == [3]

    def test_oversize_flit_rejected_eagerly(self, sim):
        fifo = ByteFifo(sim, 4)
        with pytest.raises(SimulationError, match="never fit"):
            fifo.put(data_flit(8))

    def test_level_accounting(self, sim):
        fifo = ByteFifo(sim, 64)
        fifo.try_put(data_flit(8))
        fifo.try_put(data_flit(4))
        assert fifo.level_bytes == 12
        assert fifo.free_bytes == 52
        fifo.try_get()
        assert fifo.level_bytes == 4
        assert fifo.high_water_bytes == 12


class TestLink:
    def test_serialization_time(self, sim):
        # 60 MHz byte-parallel link: 8 bytes take 8 cycles = 133.3 ns.
        config = LinkConfig(propagation_ns=0.0)
        rx = ByteFifo(sim, 64)
        link = Link(sim, config, rx, name="l")
        arrival = []

        def watcher():
            yield rx.get()
            arrival.append(sim.now)

        sim.process(watcher())
        link.send(data_flit(8))
        sim.run()
        assert arrival[0] == pytest.approx(8 * config.byte_ns)

    def test_bandwidth_is_60_mb_s(self):
        assert LinkConfig().bandwidth_mb_s == pytest.approx(60.0)

    def test_backpressure_stops_the_wire(self, sim):
        config = LinkConfig(propagation_ns=0.0)
        rx = ByteFifo(sim, 8)          # room for exactly one word
        link = Link(sim, config, rx, name="l")
        for seq in range(4):
            link.send(data_flit(8, seq=seq))
        times = []

        def slow_consumer():
            for _ in range(4):
                yield sim.timeout(1000.0)
                got = yield rx.get()
                times.append((sim.now, got.seq))

        sim.process(slow_consumer())
        sim.run()
        # The stop signal holds each subsequent word until the FIFO drains.
        assert [seq for _, seq in times] == [0, 1, 2, 3]
        assert times[-1][0] >= 4000.0

    def test_flits_stay_ordered(self, sim):
        rx = ByteFifo(sim, 1024)
        link = Link(sim, LinkConfig(), rx, name="l")
        for seq in range(10):
            link.send(data_flit(8, seq=seq))
        received = []

        def consumer():
            for _ in range(10):
                flit = yield rx.get()
                received.append(flit.seq)

        sim.process(consumer())
        sim.run()
        assert received == list(range(10))

    def test_utilization_and_stats(self, sim):
        rx = ByteFifo(sim, 1024)
        link = Link(sim, LinkConfig(propagation_ns=0.0), rx, name="l")
        link.send(data_flit(8))
        sim.run()
        assert link.stats["bytes"] == 8
        assert 0.0 < link.utilization() <= 1.0
