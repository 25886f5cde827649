"""The link's kernel cost and its stop-signal slack.

A flit-hop is two kernel events (end of serialisation, end of flight),
and a stalled receiver holds back the cable's ``wire_slots`` flits plus
the one at the receiver before the serializer stalls.
"""

import pytest

from repro.network.link import ByteFifo, Link, LinkConfig
from repro.network.message import Flit, FlitKind
from repro.sim.engine import Simulator


def _flits(n):
    return [Flit(FlitKind.DATA, 8, message_id=1, seq=seq) for seq in range(n)]


def _staged_link(sim, n, rx_bytes, config):
    """A link with ``n`` 8-byte flits already in its tx FIFO (staged with
    ``try_put``, so staging costs no event)."""
    rx = ByteFifo(sim, rx_bytes, name="rx")
    link = Link(sim, config, rx, name="l", tx_capacity_bytes=8 * n)
    for flit in _flits(n):
        assert link.tx.try_put(flit)
    return link, rx


@pytest.mark.parametrize("n", [1, 7, 40])
def test_a_flit_hop_costs_two_kernel_events(n):
    sim = Simulator()
    config = LinkConfig()
    link, rx = _staged_link(sim, n, 8 * n, config)
    sim.run()
    assert [flit.seq for flit in rx.items] == list(range(n))
    assert link.stats["flits"] == n
    # The serializer waits on tx as a callable getter, so staging wakes
    # it with no event; each flit costs its serialisation timeout and its
    # flight timeout.
    assert sim.events_processed == 2 * n
    assert sim.now == pytest.approx(n * 8 * config.byte_ns
                                    + config.propagation_ns)


#: (sim.now, seq) of every get by the consumer below, recorded with the
#: process-based link (a serializer and a deliverer process joined by a
#: cable FIFO of ``wire_slots`` flits).
STALLED_GETS = [
    (10000.0, 0), (10000.0, 1), (10000.0, 2), (10000.0, 3), (10000.0, 4),
    (10000.0, 5), (10000.0, 6), (10183.333333333334, 7),
    (10316.666666666668, 8), (10450.000000000002, 9),
    (10583.333333333336, 10), (10716.66666666667, 11),
]


def test_stalled_receiver_holds_wire_slots_plus_one_then_stalls():
    sim = Simulator()
    config = LinkConfig(propagation_ns=50.0)
    n = 12
    link, rx = _staged_link(sim, n, 8, config)
    assert link.wire_slots == 4
    sim.run()
    # Nobody reads rx: flit 0 fills it, the stop signal holds flit 1 at
    # the receiver with wire_slots flits behind it on the cable, and the
    # serializer stalls holding the next one, which has been serialised.
    assert [flit.seq for flit in rx.items] == [0]
    taken = link.tx.total_bytes_out // 8
    assert taken == 1 + (link.wire_slots + 1) + 1
    assert link.stats["flits"] == 1
    stalled_at = sim.now

    gets = []

    def consumer():
        yield sim.timeout(10_000.0 - sim.now)
        for _ in range(n):
            flit = yield rx.get()
            gets.append((sim.now, flit.seq))

    sim.process(consumer())
    sim.run()
    assert [seq for _, seq in gets] == list(range(n))
    assert link.stats["flits"] == n
    assert stalled_at < 10_000.0
    assert gets == STALLED_GETS
