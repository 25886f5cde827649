"""Observable-order digests: what whole figure runs deliver, and when.

Two things are logged over a fig9 cluster run and over one classed load
point of the ``traffic`` command:

* every flit as it enters the receive FIFO of a :class:`Link`, as
  ``(sim.now, link name, message id, seq)``;
* every message's delivery stamp, as ``(delivered_at, message id)``.

The SHA-256 of that log, in each FIFO's own order, is compared against
digests recorded before the link became a callback state machine.  The
log sees only what a receiver can observe, so it holds across
kernel-internal changes (how many events a flit-hop takes, which
process resumes when) but fails on any change to when or in which order
a flit or a message arrives.
"""

import hashlib
from collections import deque

import pytest

from repro.network.link import Link
from repro.network.message import Message, message_id_namespace

#: (log entries, sha256 of the log) per run, recorded with the
#: process-based link (two generator processes per link direction).
EXPECTED = {
    "fig9": (2660, "5079a148ae85b1cbe9bf653e908325b0"
            "a5130a88a5d66d4a6f2944840e4789d6"),
    ("traffic", "fifo", 11): (28484, "c9637eb52252934631f852a805cbecda"
                             "e76cda04af07c68c939e1345b6700dcd"),
    ("traffic", "fifo", 23): (28484, "1aae26a8d642a319c9158c1a74100e91"
                             "30cf9a014a426e6fa28feda2d2199d91"),
    ("traffic", "priority", 11): (28484, "940c451f74e22ed9037091ff7152d098"
                                 "f674702dee4a857c2ebc2200b0d2c5da"),
    ("traffic", "priority", 23): (28484, "5fb4a19c314b9112cd9e9a114d69894f"
                                 "700ad5663a5c1dc63d54a1477fd31b9f"),
}


class _LoggedItems(deque):
    """An rx FIFO's item deque that logs every flit appended to it."""

    def __init__(self, log, sim, link_name):
        super().__init__()
        self._log = log
        self._sim = sim
        self._link = link_name

    def append(self, flit):
        self._log.append((self._sim.now, self._link,
                          f"{flit.message_id} {flit.seq}"))
        super().append(flit)


def _order_log(monkeypatch, run):
    """Run ``run()`` with rx arrivals and delivery stamps logged; return
    ``(entries, sha256 hex digest)``."""
    log = []
    link_init = Link.__init__

    def logged_init(self, sim, config, rx, *args, **kwargs):
        link_init(self, sim, config, rx, *args, **kwargs)
        assert not rx.items
        rx.items = _LoggedItems(log, sim, self.name)

    def logged_setattr(self, name, value):
        if name == "delivered_at" and value is not None:
            log.append((value, f"message {self.message_id}", "delivered"))
        object.__setattr__(self, name, value)

    monkeypatch.setattr(Link, "__init__", logged_init)
    monkeypatch.setattr(Message, "__setattr__", logged_setattr)
    # Message ids come from a process-global counter; a fresh namespace
    # makes the log independent of what ran earlier in the process.
    with message_id_namespace():
        run()
    monkeypatch.undo()
    # What a receiver observes is its own FIFO's sequence: the order of
    # same-instant entries into *different* FIFOs is the kernel's
    # interleaving of independent events.  A stable sort by (time,
    # stream) keeps each FIFO's own order, so a flit that arrives at
    # another instant or out of its FIFO's order still changes the log.
    log.sort(key=lambda entry: entry[:2])
    text = "\n".join(f"{when!r} {stream} {what}" for when, stream, what in log)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return len(log), digest


def _fig9():
    from repro.bench.microbench import topology_point
    from repro.network.topology import cluster_spec

    for nbytes in (8, 1024):
        topology_point(cluster_spec().to_dict(), nbytes, "latency")


def _traffic_point(arbiter, seed):
    from repro.bench.traffic import parse_classes, parse_mix, traffic_point_task
    from repro.network.qos import QosConfig
    from repro.network.topo import parse_topology

    qos = QosConfig(arbiter=arbiter, classes=parse_classes(
        "urgent:prio=0:weight=4,bulk:prio=1:weight=1"))
    mix = parse_mix("urgent=incast:0.2:odd,bulk=hotspot:0.8:even")
    config = {"topology": parse_topology("xbar_tree:levels=2,arity=4").to_dict(),
              "load": 0.8, "messages": 4, "message_bytes": 1024,
              "qos": qos.to_dict(),
              "mix": {name: ct.to_dict() for name, ct in mix.items()}}
    return lambda: traffic_point_task(config, seed)


def test_fig9_observable_order_matches_recorded_digest(monkeypatch):
    assert _order_log(monkeypatch, _fig9) == EXPECTED["fig9"]


@pytest.mark.parametrize("arbiter", ["fifo", "priority"])
@pytest.mark.parametrize("seed", [11, 23])
def test_traffic_observable_order_matches_recorded_digest(monkeypatch,
                                                          arbiter, seed):
    got = _order_log(monkeypatch, _traffic_point(arbiter, seed))
    assert got == EXPECTED[("traffic", arbiter, seed)]
