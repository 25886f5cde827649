"""Tests for the link-interface ASIC and the PIO driver."""

import pytest

from repro.msg.api import build_cluster_world
from repro.network.link import ByteFifo, Link, LinkConfig
from repro.network.message import FlitKind, Message, build_wire_format
from repro.ni.dma import DmaNicModel
from repro.ni.driver import DriverConfig, PioDriver
from repro.ni.interface import CrcError, LinkInterface, LinkInterfaceConfig
from repro.sim.engine import SimulationError, Simulator


class TestLinkInterfaceConfig:
    def test_paper_fifo_size(self):
        # "a FIFO buffer of 32 64-bit words" = 256 bytes.
        assert LinkInterfaceConfig().fifo_bytes == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkInterfaceConfig(fifo_words=2)
        with pytest.raises(ValueError):
            LinkInterfaceConfig(word_bytes=16)
        with pytest.raises(ValueError):
            LinkInterfaceConfig(register_access_ns=-1.0)


def loopback_interface(sim, config=None):
    """An NI whose tx link delivers straight into its own rx FIFO."""
    config = config or LinkInterfaceConfig()
    rx = ByteFifo(sim, config.fifo_bytes, name="rx")
    tx = Link(sim, LinkConfig(propagation_ns=0.0), rx, name="loop")
    return LinkInterface(sim, config, tx, rx, name="ni")


class TestLinkInterface:
    def test_rx_fifo_size_must_match_config(self):
        sim = Simulator()
        rx = ByteFifo(sim, 128)
        tx = Link(sim, LinkConfig(), rx)
        with pytest.raises(SimulationError, match="receive FIFO"):
            LinkInterface(sim, LinkInterfaceConfig(), tx, rx)

    def test_staged_flits_drain_to_link(self):
        sim = Simulator()
        ni = loopback_interface(sim)
        message = Message(source=0, dest=0, payload_bytes=16)

        def stage():
            for flit in build_wire_format(message):
                yield ni.stage_flit(flit)

        sim.process(stage())
        sim.run()
        assert ni.stats["tx_messages"] == 1
        assert ni.recv_available_bytes() == 16 + 1 + 0  # data + close

    def test_status_registers(self):
        sim = Simulator()
        ni = loopback_interface(sim)
        assert ni.send_space_bytes() == 256
        assert ni.recv_available_bytes() == 0

    def test_crc_roundtrip_clean(self):
        sim = Simulator()
        ni = loopback_interface(sim)
        message = Message(source=0, dest=1, payload_bytes=64)
        ni.check_crc(message)
        assert ni.stats["crc_checked"] == 1

    def test_corrupted_crc_detected(self):
        sim = Simulator()
        ni = loopback_interface(sim)
        message = Message(source=0, dest=1, payload_bytes=64,
                          tag={"crc": 0xDEADBEEF})
        with pytest.raises(CrcError):
            ni.check_crc(message)
        assert ni.stats["crc_errors"] == 1


class TestDriverConfig:
    def test_batch_defaults_to_fifo_size(self):
        sim = Simulator()
        ni = loopback_interface(sim)
        driver = PioDriver(sim, ni, DriverConfig(), {}, name="d")
        assert driver._batch == 256

    def test_copy_time(self):
        config = DriverConfig(copy_out_mb_s=128.0)
        assert config.copy_out_ns(128) == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DriverConfig(copy_in_mb_s=0.0)
        with pytest.raises(ValueError):
            DriverConfig(send_setup_ns=-1.0)
        with pytest.raises(ValueError):
            DriverConfig(batch_bytes=4)


class TestDriverOnCluster:
    """End-to-end driver behaviour over the real fabric."""

    def test_send_and_receive_one_message(self):
        sim, world = build_cluster_world()
        recv = world.recv(1)
        send = world.send(0, 1, 128)
        sim.run_until_complete(recv)
        message = recv.value
        assert message.payload_bytes == 128
        assert message.source == 0 and message.dest == 1
        assert message.delivered_at > message.sent_at

    def test_zero_byte_message(self):
        sim, world = build_cluster_world()
        recv = world.recv(3)
        world.send(2, 3, 0)
        sim.run_until_complete(recv)
        assert recv.value.payload_bytes == 0

    def test_large_message_integrity(self):
        sim, world = build_cluster_world()
        recv = world.recv(1)
        world.send(0, 1, 8192)
        sim.run_until_complete(recv)
        assert recv.value.payload_bytes == 8192

    def test_messages_arrive_in_order(self):
        sim, world = build_cluster_world()
        received = []

        def receiver():
            for _ in range(4):
                message = yield world.recv(1)
                received.append(message.message_id)

        def sender():
            for _ in range(4):
                yield world.send(0, 1, 64)

        recv_proc = sim.process(receiver())
        sim.process(sender())
        sim.run_until_complete(recv_proc)
        assert received == sorted(received)

    def test_send_to_self_rejected(self):
        _, world = build_cluster_world()
        with pytest.raises(ValueError):
            world.make_message(0, 0, 8)

    def test_bidirectional_exchange_completes_both_sides(self):
        sim, world = build_cluster_world()
        a = world.exchange(0, 1, 1024)
        b = world.exchange(1, 0, 1024)
        sim.run()
        assert a.finished and b.finished
        assert a.value.payload_bytes == 1024

    def test_driver_stats(self):
        sim, world = build_cluster_world()
        recv = world.recv(1)
        world.send(0, 1, 64)
        sim.run_until_complete(recv)
        assert world.endpoint(0).driver.stats["sent"] == 1
        assert world.endpoint(1).driver.stats["received"] == 1


class TestDmaModel:
    def test_latency_monotone_in_size(self):
        model = DmaNicModel(name="m", host_overhead_send_ns=1000,
                            host_overhead_recv_ns=1000, dma_setup_ns=500,
                            pci_mb_s=132, link_mb_s=126)
        assert model.one_way_latency_ns(8) < model.one_way_latency_ns(4096)

    def test_bandwidth_approaches_bottleneck(self):
        model = DmaNicModel(name="m", host_overhead_send_ns=1000,
                            host_overhead_recv_ns=1000, dma_setup_ns=500,
                            pci_mb_s=132, link_mb_s=126)
        assert model.unidirectional_mb_s(1 << 20) == pytest.approx(126.0,
                                                                   rel=0.01)

    def test_store_and_forward_slower_than_pipelined(self):
        kwargs = dict(name="m", host_overhead_send_ns=0,
                      host_overhead_recv_ns=0, dma_setup_ns=0,
                      pci_mb_s=132, link_mb_s=132, wire_ns=0)
        cut = DmaNicModel(pipelined=True, **kwargs)
        saf = DmaNicModel(pipelined=False, **kwargs)
        assert saf.one_way_latency_ns(4096) > cut.one_way_latency_ns(4096)

    def test_bidirectional_capped(self):
        model = DmaNicModel(name="m", host_overhead_send_ns=100,
                            host_overhead_recv_ns=100, dma_setup_ns=100,
                            pci_mb_s=132, link_mb_s=132)
        assert model.bidirectional_mb_s(65536) <= 2 * 132

    def test_validation(self):
        with pytest.raises(ValueError):
            DmaNicModel(name="m", host_overhead_send_ns=-1,
                        host_overhead_recv_ns=0, dma_setup_ns=0,
                        pci_mb_s=132, link_mb_s=132)
