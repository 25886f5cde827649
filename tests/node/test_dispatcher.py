"""Tests for the central dispatcher."""

import pytest

from repro.memory.dram import DramConfig, InterleavedDram
from repro.memory.snoop import SnoopConfig
from repro.node.adsp import AdspSwitch
from repro.node.dispatcher import BusTransaction, Dispatcher, TransactionKind
from repro.sim.clock import Clock
from repro.sim.engine import Simulator


def make_dispatcher(banks=4):
    sim = Simulator()
    switch = AdspSwitch(sim)
    for device in ("cpu0", "cpu1", "link0"):
        switch.register(device)
    dram = InterleavedDram(DramConfig(num_banks=banks, interleave_bytes=64,
                                      access_ns=60.0, bandwidth_mb_s=640.0))
    snoop = SnoopConfig(bus_clock=Clock(60.0), phase_cycles=3.0, queue_depth=4)
    dispatcher = Dispatcher(sim, switch, dram, snoop)
    return sim, switch, dispatcher


class TestSingleTransactions:
    def test_read_completes_with_memory_latency(self):
        sim, _, dispatcher = make_dispatcher()
        txn = BusTransaction("cpu0", TransactionKind.READ, 0x1000, 64)
        proc = dispatcher.submit(txn)
        sim.run_until_complete(proc)
        # Address phase (50 ns) + DRAM access (60) + transfer (100).
        assert txn.latency_ns == pytest.approx(210.0)

    def test_io_transaction_skips_snoop(self):
        sim, _, dispatcher = make_dispatcher()
        txn = BusTransaction("cpu0", TransactionKind.IO, 0xF000_0000, 8,
                             target="link0")
        proc = dispatcher.submit(txn)
        sim.run_until_complete(proc)
        assert txn.latency_ns == pytest.approx(dispatcher.io_access_ns)
        assert dispatcher.stats["address_phases"] == 0

    def test_intervention_streams_from_cache(self):
        sim, _, dispatcher = make_dispatcher()
        txn = BusTransaction("cpu0", TransactionKind.INTERVENTION, 0x0, 64,
                             target="cpu1")
        proc = dispatcher.submit(txn)
        sim.run_until_complete(proc)
        assert dispatcher.stats["interventions"] == 1

    def test_unknown_master_rejected(self):
        _, _, dispatcher = make_dispatcher()
        with pytest.raises(KeyError):
            dispatcher.submit(
                BusTransaction("ghost", TransactionKind.READ, 0x0, 64))

    def test_latency_before_completion_raises(self):
        txn = BusTransaction("cpu0", TransactionKind.READ, 0x0, 64)
        with pytest.raises(ValueError):
            _ = txn.latency_ns


class TestSplitTransactions:
    def test_data_phases_of_two_masters_overlap(self):
        sim, _, dispatcher = make_dispatcher()
        t0 = BusTransaction("cpu0", TransactionKind.READ, 0x0, 64)
        t1 = BusTransaction("cpu1", TransactionKind.READ, 0x40, 64)  # bank 1
        p0, p1 = dispatcher.submit(t0), dispatcher.submit(t1)
        sim.run()
        assert p0.finished and p1.finished
        # Serial execution would take ~420 ns; overlap keeps the second
        # under one full extra memory access.
        assert max(t0.completed_at, t1.completed_at) < 420.0

    def test_address_phases_serialise(self):
        sim, _, dispatcher = make_dispatcher()
        for i in range(4):
            dispatcher.submit(BusTransaction(
                "cpu0" if i % 2 == 0 else "cpu1",
                TransactionKind.READ, i * 64, 64))
        sim.run()
        assert dispatcher.sequencer.stats["phases"] == 4
        assert dispatcher.sequencer.stats["contended"] >= 1

    def test_out_of_order_completion_happens(self):
        sim, _, dispatcher = make_dispatcher(banks=2)
        # First transaction hits a bank that a long burst keeps busy; the
        # second (younger tag, different bank) finishes first.
        dispatcher.dram.service(0.0, 0x0, 4096)   # bank 0 busy for ~6.5 us
        slow = BusTransaction("cpu0", TransactionKind.READ, 0x0, 64)
        fast = BusTransaction("cpu1", TransactionKind.READ, 0x40, 64)
        dispatcher.submit(slow)
        dispatcher.submit(fast)
        sim.run()
        assert fast.completed_at < slow.completed_at
        assert dispatcher.out_of_order_completions() >= 1

    def test_same_master_transactions_serialise_on_its_port(self):
        sim, _, dispatcher = make_dispatcher()
        t0 = BusTransaction("cpu0", TransactionKind.READ, 0x0, 64)
        t1 = BusTransaction("cpu0", TransactionKind.READ, 0x40, 64)
        dispatcher.submit(t0)
        dispatcher.submit(t1)
        sim.run()
        # The master's switch port is a single connection at a time.
        assert t1.completed_at > t0.completed_at

    def test_latency_histogram_collects(self):
        sim, _, dispatcher = make_dispatcher()
        for i in range(8):
            dispatcher.submit(BusTransaction("cpu0", TransactionKind.READ,
                                             i * 64, 64))
        sim.run()
        assert dispatcher.latencies.count == 8
        assert dispatcher.stats["completed_read"] == 8
