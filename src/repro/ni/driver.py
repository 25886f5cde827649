"""The PIO communication driver — the node CPU acting as the NIC.

PowerMANNA has no network controller: a node CPU copies messages between
user memory and the link interface's small FIFOs with programmed I/O.
This module models that software, with the constants that set Figures 9-12:

* per-message *send setup* (build the route header, check status),
* PIO copy bandwidths (uncached stores into the send FIFO are faster than
  uncached loads from the receive FIFO),
* the *batch* of at most 4 cache lines (= the 256-byte FIFO) the driver
  moves before it must re-test the other direction, and
* the direction-*switch* overhead of the bidirectional loop, which —
  together with the small FIFOs — produces the Figure-12 bandwidth dip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.faults import FAULTS
from repro.network.message import Flit, FlitKind, Message, build_wire_format
from repro.ni.interface import LinkInterface
from repro.obs import OBS
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.sim.stats import Counter


@dataclass(frozen=True)
class DriverConfig:
    """Software timing of the PIO driver.

    Attributes:
        send_setup_ns: per-message cost before the first byte moves
            (header construction, status-register check; user level — no
            system call).
        recv_dispatch_ns: per-message cost after the last byte (match,
            CRC status check, hand-off to the user buffer owner).
        copy_out_mb_s: PIO bandwidth memory -> send FIFO (write-combined
            uncached stores).
        copy_in_mb_s: PIO bandwidth receive FIFO -> memory (uncached
            loads; slower than stores).
        batch_bytes: bytes moved per direction before the driver re-tests
            the other direction; None derives it from the FIFO size (the
            paper's "at most 4 cache lines").
        switch_ns: cost of one direction switch in the bidirectional loop
            (status reads + branch logic).
        poll_ns: one idle poll of the receive status register.
    """

    send_setup_ns: float = 1150.0
    recv_dispatch_ns: float = 1100.0
    copy_out_mb_s: float = 120.0
    copy_in_mb_s: float = 90.0
    batch_bytes: Optional[int] = None
    switch_ns: float = 1000.0
    poll_ns: float = 100.0

    def __post_init__(self):
        if min(self.send_setup_ns, self.recv_dispatch_ns, self.switch_ns,
               self.poll_ns) < 0:
            raise ValueError("driver overheads must be nonnegative")
        if self.copy_out_mb_s <= 0 or self.copy_in_mb_s <= 0:
            raise ValueError("copy bandwidths must be positive")
        if self.batch_bytes is not None and self.batch_bytes < 8:
            raise ValueError("batch must cover at least one word")

    def copy_out_ns(self, nbytes: int) -> float:
        return nbytes * 1e3 / self.copy_out_mb_s

    def copy_in_ns(self, nbytes: int) -> float:
        return nbytes * 1e3 / self.copy_in_mb_s


class PioDriver:
    """Per-link-interface driver instance (one per NI, run by a node CPU)."""

    def __init__(self, sim: Simulator, ni: LinkInterface, config: DriverConfig,
                 registry: Dict[int, Message], name: str = "driver"):
        self.sim = sim
        self.ni = ni
        self.config = config
        self.registry = registry
        self.name = name
        self.stats = Counter(name)
        sim.counters.append((self.stats, "driver", {"driver": name}))
        self._batch = config.batch_bytes or ni.config.fifo_bytes
        # One CPU runs the driver: concurrent send (or receive) requests
        # serialise, and a message's flits never interleave on the wire.
        self._send_lock = Resource(sim, capacity=1, name=f"{name}.sendlock")
        self._recv_lock = Resource(sim, capacity=1, name=f"{name}.recvlock")
        # The receive drain's per-message state (see _start_drain).
        self._drained = None
        self._draining = False
        self._copy_done = 0.0
        self._payload = 0
        self._drain_span = 0
        self._on_rx_flit = self._rx_flit
        if OBS.enabled and OBS.timeline.enabled:
            OBS.timeline.probe(
                sim, "driver.send_backlog",
                lambda: float(self._send_lock.queue_length), driver=name)

    # -- unidirectional send -------------------------------------------------

    def send_message(self, message: Message):
        """Process: transmit one message (returns when fully staged).

        The driver is done when the last flit has entered the send FIFO;
        wire delivery continues asynchronously.  ``message.sent_at`` is
        stamped at the start of the send call, as a ping-pong benchmark
        would measure it.
        """
        yield self._send_lock.acquire()
        send_span = 0
        try:
            start = self.sim.now
            message.sent_at = start
            if OBS.enabled:
                # Root of the message's causal tree; the receiving driver
                # closes it at delivery (see _receive_locked).
                OBS.tracer.begin(
                    "message", self.name, start, category="message",
                    message=message.message_id, root=True,
                    src=message.source, dst=message.dest,
                    nbytes=message.payload_bytes)
                send_span = OBS.tracer.begin(
                    "driver.send", self.name, start, category="driver",
                    message=message.message_id)
            self.registry[message.message_id] = message
            if FAULTS.enabled:
                yield from self._maybe_hang()
            pooled_timeout = self.sim.pooled_timeout
            copy_out_ns = self.config.copy_out_ns
            send_fifo = self.ni.send_fifo
            batch = self._batch
            yield pooled_timeout(self.config.send_setup_ns)

            flits = build_wire_format(message)
            pending = 0
            for flit in flits:
                pending += flit.nbytes
                if pending >= batch:
                    yield pooled_timeout(copy_out_ns(pending))
                    pending = 0
                if not send_fifo.try_put(flit):
                    yield send_fifo.put_pooled(flit)
            if pending:
                yield pooled_timeout(copy_out_ns(pending))
            self.stats.incr("sent")
            self.stats.incr("sent_bytes", message.payload_bytes)
            if OBS.enabled:
                OBS.tracer.end(send_span, self.sim.now)
            return message
        finally:
            self._send_lock.release()

    def _maybe_hang(self):
        """Fault hook: the CPU running the driver stalls mid-operation."""
        stall = FAULTS.engine.stall_ns("node_hang", self.name, self.sim.now)
        if stall > 0:
            self.stats.incr("hangs")
            yield self.sim.pooled_timeout(stall)

    # -- unidirectional receive ------------------------------------------------

    def receive_message(self):
        """Process: block until one full message has been received.

        The PIO copy is pipelined with flit arrival: the driver's copy
        clock advances per flit and the message is delivered when both the
        last flit has arrived and its copy has finished.
        """
        yield self._recv_lock.acquire()
        try:
            yield from self._receive_locked()
        finally:
            self._recv_lock.release()
        return self._last_received

    def _receive_locked(self):
        flit = yield self._start_drain()
        payload = self._payload
        drain_span = self._drain_span
        tail_copy = max(0.0, self._copy_done - self.sim.now)
        if tail_copy:
            yield self.sim.pooled_timeout(tail_copy)
        if FAULTS.enabled:
            yield from self._maybe_hang()
        yield self.sim.pooled_timeout(self.config.recv_dispatch_ns)

        message = self.registry.get(flit.message_id)
        if message is None:
            raise KeyError(
                f"{self.name}: received unknown message id {flit.message_id}")
        message.crc_ok = True
        if payload != message.payload_bytes:
            if FAULTS.enabled:
                # A flit was dropped in flight: the payload is short, so
                # the CRC over the full message cannot match.  Deliver as
                # corrupt and let the reliable protocol retransmit.
                self.stats.incr("short_messages")
                self.ni.fail_crc(message)
                message.crc_ok = False
            else:
                raise AssertionError(
                    f"{self.name}: message {message.message_id} carried "
                    f"{payload} payload bytes, expected {message.payload_bytes}")
        elif not self.ni.check_crc(message):
            message.crc_ok = False
        message.delivered_at = self.sim.now
        self.stats.incr("received")
        self.stats.incr("received_bytes", payload)
        if OBS.enabled:
            OBS.tracer.end(drain_span, self.sim.now)
            OBS.tracer.end_message(message.message_id, self.sim.now)
        self._last_received = message
        return message

    def _start_drain(self):
        """Start draining one message from the receive FIFO.

        The drain consumes flits as they arrive (``try_get``, then a
        callable getter), with no process resume per flit.  The returned
        pooled event fires with the close flit; yield it at once.
        """
        drained = self.sim.pooled_event("drained")
        self._drained = drained
        self._copy_done = 0.0
        self._payload = 0
        self._draining = False
        self._drain_span = 0
        rx_fifo = self.ni.rx_fifo
        while True:
            ok, flit = rx_fifo.try_get()
            if not ok:
                rx_fifo.get_callback(self._on_rx_flit)
                break
            if self._drain(flit):
                break
        return drained

    def _rx_flit(self, flit: Flit) -> None:
        if not self._drain(flit):
            self.ni.rx_fifo.get_callback(self._on_rx_flit)

    def _drain(self, flit: Flit) -> bool:
        """Copy one received flit out; True at the message's close flit.

        The PIO copy is pipelined with arrival: each flit's copy starts
        when it arrives or when the previous copy ends, whichever is
        later.
        """
        now = self.sim._now
        if not self._draining:
            self._draining = True
            if OBS.enabled:
                self._drain_span = OBS.tracer.begin(
                    "driver.drain", self.name, now,
                    category="driver", message=flit.message_id)
        copy_done = self._copy_done
        self._copy_done = (copy_done if copy_done > now else now) + \
            self.config.copy_in_ns(flit.nbytes)
        if flit.kind == FlitKind.DATA:
            self._payload += flit.nbytes
        elif flit.kind == FlitKind.CLOSE:
            drained = self._drained
            self._drained = None
            drained.trigger(flit)
            return True
        return False

    # -- the bidirectional loop (Figure 12) ---------------------------------------

    def bidirectional_exchange(self, outgoing: Message):
        """Process: send ``outgoing`` while receiving one inbound message.

        One CPU thread serves both directions: it fills the send FIFO with
        at most one batch, then must test and drain the receive FIFO, then
        switch back — paying ``switch_ns`` per turn.  Returns the received
        message.
        """
        yield self._send_lock.acquire()
        yield self._recv_lock.acquire()
        try:
            inbound = yield from self._exchange_locked(outgoing)
            return inbound
        finally:
            self._recv_lock.release()
            self._send_lock.release()

    def _exchange_locked(self, outgoing: Message):
        cfg = self.config
        outgoing.sent_at = self.sim.now
        exchange_span = 0
        if OBS.enabled:
            OBS.tracer.begin(
                "message", self.name, self.sim.now, category="message",
                message=outgoing.message_id, root=True, src=outgoing.source,
                dst=outgoing.dest, nbytes=outgoing.payload_bytes,
                exchange=True)
            exchange_span = OBS.tracer.begin(
                "driver.exchange", self.name, self.sim.now,
                category="driver", message=outgoing.message_id)
        self.registry[outgoing.message_id] = outgoing
        yield self.sim.pooled_timeout(cfg.send_setup_ns)

        out_flits = build_wire_format(outgoing)
        out_index = 0
        inbound: Optional[Message] = None
        in_done = False
        in_payload = 0

        while out_index < len(out_flits) or not in_done:
            switched = False
            # Send phase: stage up to one batch without blocking on a full
            # FIFO (a full FIFO is exactly the signal to go service receive).
            if out_index < len(out_flits):
                staged = 0
                while out_index < len(out_flits) and staged < self._batch:
                    flit = out_flits[out_index]
                    if self.ni.send_fifo.free_bytes < flit.nbytes:
                        break
                    self.ni.send_fifo.try_put(flit)
                    staged += flit.nbytes
                    out_index += 1
                if staged:
                    yield self.sim.pooled_timeout(cfg.copy_out_ns(staged))
                    switched = True

            # Receive phase: drain up to one batch of whatever has arrived.
            drained = 0
            while drained < self._batch:
                ok, flit = self.ni.rx_fifo.try_get()
                if not ok:
                    break
                drained += flit.nbytes
                if flit.kind == FlitKind.DATA:
                    in_payload += flit.nbytes
                elif flit.kind == FlitKind.CLOSE:
                    inbound = self.registry.get(flit.message_id)
                    in_done = True
                    break
            if drained:
                yield self.sim.pooled_timeout(cfg.copy_in_ns(drained))
                switched = True

            # Direction-switch / poll cost.
            yield self.sim.pooled_timeout(cfg.switch_ns if switched else cfg.poll_ns)

        if inbound is None:
            raise AssertionError(f"{self.name}: exchange ended with no inbound message")
        if in_payload != inbound.payload_bytes:
            raise AssertionError(
                f"{self.name}: inbound {inbound.message_id} carried "
                f"{in_payload} B, expected {inbound.payload_bytes}")
        yield self.sim.pooled_timeout(cfg.recv_dispatch_ns)
        inbound.crc_ok = self.ni.check_crc(inbound)
        inbound.delivered_at = self.sim.now
        self.stats.incr("exchanges")
        if OBS.enabled:
            OBS.tracer.end(exchange_span, self.sim.now)
            OBS.tracer.end_message(inbound.message_id, self.sim.now)
        return inbound
