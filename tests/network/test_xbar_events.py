"""The kernel cost of a flit-hop through one crossbar, and its slack.

N staged flits go NI -> link -> one uncontended crossbar -> link -> rx.
No process runs on that path: each link hop is two kernel events (end
of serialisation, end of flight), the crossbar adds one ``forward_ns``
timeout per forwarded flit, and opening the connection costs the
arbiter's grant event and the ``route_setup_ns`` timeout.  A stalled
receiver holds back exactly the flits it did when the NI, the crossbar
and the transceiver were generator processes.
"""

import pytest

from repro.network.crossbar import Crossbar, CrossbarConfig
from repro.network.link import ByteFifo, Link, LinkConfig
from repro.network.message import Flit, FlitKind
from repro.ni.interface import LinkInterface, LinkInterfaceConfig
from repro.sim.engine import Simulator
from repro.sim.process import Process


def _staged_path(sim, n, rx_bytes, out_propagation_ns=5.0):
    """A route flit, ``n`` 8-byte data flits and a close flit staged in
    an NI's send FIFO (with ``try_put``, so staging costs no event),
    wired NI -> link -> crossbar input 0 -> output 1 -> link -> rx."""
    rx = ByteFifo(sim, rx_bytes, name="rx")
    xbar = Crossbar(sim, CrossbarConfig(), name="x")
    out = Link(sim, LinkConfig(propagation_ns=out_propagation_ns), rx,
               name="x.out1")
    xbar.attach_output(1, out)
    up = Link(sim, LinkConfig(), xbar.input_fifo(0), name="up")
    ni = LinkInterface(sim, LinkInterfaceConfig(), up,
                       ByteFifo(sim, 256, name="ni.rx"), name="ni")
    flits = ([Flit(FlitKind.ROUTE, 1, 1, route_port=1)]
             + [Flit(FlitKind.DATA, 8, 1, seq=seq) for seq in range(n)]
             + [Flit(FlitKind.CLOSE, 1, 1, seq=n)])
    for flit in flits:
        assert ni.send_fifo.try_put(flit)
    return ni, up, xbar, out, rx


@pytest.fixture
def no_process(monkeypatch):
    """Fail the test if any process resumes."""
    def resume(self, event):
        raise AssertionError(f"process {self.name!r} resumed")

    monkeypatch.setattr(Process, "_resume", resume)


#: (n, sim.now at the end) recorded with the process-based NI and
#: crossbar, whose kernel cost was 9n + 35 events.
END_TIMES = {1: 393.3666666666667, 7: 1193.3666666666668,
             24: 3460.033333333334}


@pytest.mark.parametrize("n", sorted(END_TIMES))
def test_a_crossbar_flit_hop_costs_five_kernel_events(n, no_process):
    sim = Simulator()
    _, up, xbar, out, rx = _staged_path(sim, n, 4096)
    sim.run()
    assert [flit.seq for flit in rx.items] == list(range(n + 1))
    assert up.stats["flits"] == n + 2
    assert out.stats["flits"] == n + 1
    assert xbar.stats["connections"] == 1
    assert xbar.stats["collisions"] == 0
    # Up link: 2 events for each of the n + 2 flits.  Crossbar: the
    # grant and the route set-up, then one forward timeout for each of
    # the n + 1 flits after the route byte.  Down link: 2 events each.
    assert sim.events_processed == 2 * (n + 2) + 2 + (n + 1) + 2 * (n + 1)
    assert sim.now == END_TIMES[n]


#: (sim.now, seq) of every get by the consumer below, recorded with the
#: process-based NI and crossbar.
STALLED_GETS = [
    (10000.0, 0), (10000.0, 1), (10000.0, 2), (10000.0, 3), (10000.0, 4),
    (10000.0, 5), (10000.0, 6), (10183.333333333334, 7),
    (10316.666666666668, 8), (10450.000000000002, 9),
    (10583.333333333336, 10), (10716.66666666667, 11),
    (10733.333333333336, 12),
]


def test_stalled_output_backs_up_through_the_crossbar():
    sim = Simulator()
    n = 12
    ni, up, xbar, out, rx = _staged_path(sim, n, 8, out_propagation_ns=50.0)
    sim.run()
    # Nobody reads rx: data flit 0 fills it, and the stop signal backs
    # up through the down link's cable, its tx, the crossbar's input
    # FIFO and the up link, exactly as far as with the processes.
    assert sim.now == 1638.3333333333333
    assert [flit.seq for flit in rx.items] == [0]
    assert out.stats["flits"] == 1
    assert out.tx.total_bytes_out == 56
    assert xbar.stats["forwarded_bytes"] == 72
    assert xbar.input_fifo(0).level_bytes == 17
    assert up.tx.total_bytes_out == 98
    assert ni.send_fifo.total_bytes_out == 98

    gets = []

    def consumer():
        yield sim.timeout(10_000.0 - sim.now)
        for _ in range(n + 1):
            flit = yield rx.get()
            gets.append((sim.now, flit.seq))

    sim.process(consumer())
    sim.run()
    assert gets == STALLED_GETS
    assert xbar.stats["forwarded_bytes"] == 8 * n + 1
