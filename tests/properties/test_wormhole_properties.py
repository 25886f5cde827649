"""Property-based tests on wormhole routing and route computation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msg.api import build_cluster_world
from repro.network.message import FlitKind
from repro.network.routing import RouteTable
from repro.network.topo import build_fabric
from repro.network.topology import manna_spec, node_key
from repro.obs import observe
from repro.sim.engine import Simulator

_PAYLOADS = st.lists(st.integers(min_value=0, max_value=256),
                     min_size=2, max_size=5)
_SENDERS = st.lists(st.integers(min_value=1, max_value=7),
                    min_size=2, max_size=5)


def _contend(payloads, senders):
    """Send one message from each sender to node 0 at once; return the
    flits in the order they reached node 0's receive FIFO."""
    sim, world = build_cluster_world()
    target = 0
    arrived = []

    def recorder():
        fifo = world.fabric.attachment(target, 0).rx_fifo
        while True:
            flit = yield fifo.get()
            arrived.append(flit)

    # Replace the driver's receive with a raw recorder on the rx FIFO.
    sim.process(recorder())

    for sender, nbytes in zip(senders, payloads):
        message = world.make_message(sender, target, nbytes)
        sim.process(world.endpoint(sender).driver.send_message(message))
    sim.run()
    return arrived


@given(payloads=_PAYLOADS, senders=_SENDERS)
@settings(max_examples=25, deadline=None)
def test_wormhole_messages_never_interleave(payloads, senders):
    """Under arbitrary contention on one output port, each message's
    payload flits arrive contiguously (wormhole = circuit until close)."""
    senders = senders[:len(payloads)]
    payloads = payloads[:len(senders)]
    arrived = _contend(payloads, senders)

    # Partition arrivals by message id; each message's flits contiguous.
    ids_in_order = [f.message_id for f in arrived]
    seen = []
    for mid in ids_in_order:
        if not seen or seen[-1] != mid:
            seen.append(mid)
    assert len(seen) == len(set(seen)), (
        f"message flits interleaved: {ids_in_order}")
    # And every message fully arrived (close flit per message).
    closes = [f for f in arrived if f.kind == FlitKind.CLOSE]
    assert len(closes) == len(senders)


@given(payloads=_PAYLOADS, senders=_SENDERS)
@settings(max_examples=25, deadline=None)
def test_crossbar_spans_route_before_forward_and_hold_the_circuit(
        payloads, senders):
    """The same contention, read back from repro.obs spans: a crossbar
    consumes the route byte (xbar.arbitrate) before it forwards anything
    (xbar.forward), and an output port carries one wormhole at a time —
    forward spans on one (crossbar, out_port) never overlap, because the
    circuit is held until the close flit."""
    senders = senders[:len(payloads)]
    payloads = payloads[:len(senders)]
    with observe() as session:
        _contend(payloads, senders)
    spans = session.tracer.finished_spans()
    arbitrate = {(s.message_id, s.component): s for s in spans
                 if s.name == "xbar.arbitrate"}
    forward = [s for s in spans if s.name == "xbar.forward"]
    assert len(forward) == len(arbitrate) == len(senders)

    by_output = {}
    for fwd in forward:
        arb = arbitrate[(fwd.message_id, fwd.component)]
        assert arb.end_ns <= fwd.start_ns, (arb, fwd)
        by_output.setdefault((fwd.component, fwd.attrs["out_port"]),
                             []).append(fwd)
    for circuits in by_output.values():
        circuits.sort(key=lambda s: s.start_ns)
        for held, nxt in zip(circuits, circuits[1:]):
            assert held.end_ns <= nxt.start_ns, (held, nxt)


@given(pairs=st.lists(
    st.tuples(st.integers(min_value=0, max_value=127),
              st.integers(min_value=0, max_value=127)),
    min_size=1, max_size=10))
@settings(max_examples=10, deadline=None)
def test_route_length_equals_crossbars_on_path(pairs):
    sim = Simulator()
    fabric = build_fabric(sim, manna_spec())
    table = RouteTable(fabric.graph)
    for src, dst in pairs:
        if src == dst:
            continue
        route = table.route_bytes(node_key(src, 0), node_key(dst, 0))
        hops = table.crossbars_on_path(node_key(src, 0), node_key(dst, 0))
        assert len(route) == hops
        assert 1 <= hops <= 3
        same_cluster = src // 8 == dst // 8
        assert hops == (1 if same_cluster else 3)


@given(src=st.integers(min_value=0, max_value=7),
       dst=st.integers(min_value=0, max_value=7),
       nbytes=st.integers(min_value=0, max_value=1024))
@settings(max_examples=30, deadline=None)
def test_any_message_delivered_with_exact_payload(src, dst, nbytes):
    if src == dst:
        return
    sim, world = build_cluster_world()
    recv = world.recv(dst)
    world.send(src, dst, nbytes)
    sim.run_until_complete(recv)
    message = recv.value
    assert message.payload_bytes == nbytes
    assert message.source == src and message.dest == dst
    assert message.delivered_at >= message.sent_at
