"""The PowerMANNA link: byte-parallel pipe with stop-signal flow control.

Physically each link direction is a 9-bit channel (8 data + 1 control) at
60 MHz — 60 Mbyte/s — plus a *stop* wire back from the receiver.  The model
is a process that serialises flits at the link rate and delivers them into
the receiver's FIFO; when that FIFO is full the process blocks, which is
exactly the stop signal asserting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.faults import FAULTS
from repro.network.message import Flit, FlitKind
from repro.obs import OBS
from repro.sim.clock import Clock
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.resources import FifoStore
from repro.sim.stats import Counter


class ByteFifo:
    """A FIFO whose capacity is accounted in *bytes* of flit payload.

    Hardware FIFOs (crossbar input buffers, NI send/receive FIFOs,
    transceiver buffers) are sized in bytes while the simulator moves
    multi-byte flits; this store blocks a put until the whole flit fits.
    """

    def __init__(self, sim: Simulator, capacity_bytes: int, name: str = "bytefifo"):
        if capacity_bytes <= 0:
            raise SimulationError(f"FIFO capacity must be positive, got {capacity_bytes}")
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._put_name = name + ".put"
        self._get_name = name + ".get"
        self.items: Deque[Flit] = deque()
        self.level_bytes = 0
        self._putters: Deque[tuple[Event, Flit]] = deque()
        self._getters: Deque[Event] = deque()
        self.total_bytes_in = 0
        self.total_bytes_out = 0
        self.high_water_bytes = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.level_bytes

    @property
    def is_empty(self) -> bool:
        return not self.items

    def put(self, flit: Flit) -> Event:
        return self._put(Event(self.sim, self._put_name), flit)

    def put_pooled(self, flit: Flit) -> Event:
        """Like :meth:`put` with a recycled event — only for call sites
        that ``yield`` the event immediately (see
        :meth:`~repro.sim.engine.Simulator.pooled_event`)."""
        return self._put(self.sim.pooled_event(self._put_name), flit)

    def _put(self, event: Event, flit: Flit) -> Event:
        nbytes = flit.nbytes
        if nbytes > self.capacity_bytes:
            raise SimulationError(
                f"flit of {nbytes} B can never fit FIFO {self.name!r} "
                f"of {self.capacity_bytes} B")
        if not self._putters and nbytes <= self.capacity_bytes - self.level_bytes:
            # Accepted immediately — same trigger order as _settle (put
            # event first, then the getter it satisfies, if any).
            self.items.append(flit)
            level = self.level_bytes + nbytes
            self.level_bytes = level
            self.total_bytes_in += nbytes
            if level > self.high_water_bytes:
                self.high_water_bytes = level
            # Inline event.trigger(flit): the event is fresh, so the
            # double-trigger check cannot fire.
            event._triggered = True
            event._value = flit
            self.sim._ready.append(event)
            getters = self._getters
            if getters:
                gev = getters.popleft()
                item = self.items.popleft()
                self.level_bytes -= item.nbytes
                self.total_bytes_out += item.nbytes
                gev.trigger(item)
                if getters and self.items:
                    self._settle()
            return event
        # Queued behind other putters, or too big right now.  No match is
        # possible (the head putter still does not fit, and a waiting
        # getter implies the FIFO is empty), so skip the settle loop.
        self._putters.append((event, flit))
        return event

    def get(self) -> Event:
        return self._get(Event(self.sim, self._get_name))

    def get_pooled(self) -> Event:
        """Like :meth:`get` with a recycled event — only for call sites
        that ``yield`` the event immediately."""
        return self._get(self.sim.pooled_event(self._get_name))

    def _get(self, event: Event) -> Event:
        items = self.items
        if items and not self._getters:
            flit = items.popleft()
            self.level_bytes -= flit.nbytes
            self.total_bytes_out += flit.nbytes
            event._triggered = True
            event._value = flit
            self.sim._ready.append(event)
            if self._putters:
                self._settle()
            return event
        self._getters.append(event)
        if items:
            self._settle()
        return event

    def cancel_get(self, event: Event) -> bool:
        """Withdraw a pending getter (used by watchdog teardowns), so an
        abandoned get event cannot silently swallow a later flit."""
        try:
            self._getters.remove(event)
            return True
        except ValueError:
            return False

    def try_put(self, flit: Flit) -> bool:
        """Non-blocking put; returns False when the flit does not fit."""
        if flit.nbytes > self.free_bytes:
            return False
        self.items.append(flit)
        self.level_bytes += flit.nbytes
        self.total_bytes_in += flit.nbytes
        self.high_water_bytes = max(self.high_water_bytes, self.level_bytes)
        self._settle()
        return True

    def try_get(self) -> tuple[bool, Optional[Flit]]:
        """Non-blocking get; returns (ok, flit)."""
        if not self.items:
            return False, None
        flit = self.items.popleft()
        self.level_bytes -= flit.nbytes
        self.total_bytes_out += flit.nbytes
        self._settle()
        return True, flit

    def _settle(self) -> None:
        items = self.items
        putters = self._putters
        getters = self._getters
        progressed = True
        while progressed:
            progressed = False
            if putters:
                event, flit = putters[0]
                nbytes = flit.nbytes
                if nbytes <= self.capacity_bytes - self.level_bytes:
                    putters.popleft()
                    items.append(flit)
                    level = self.level_bytes + nbytes
                    self.level_bytes = level
                    self.total_bytes_in += nbytes
                    if level > self.high_water_bytes:
                        self.high_water_bytes = level
                    event.trigger(flit)
                    progressed = True
            if getters and items:
                event = getters.popleft()
                flit = items.popleft()
                self.level_bytes -= flit.nbytes
                self.total_bytes_out += flit.nbytes
                event.trigger(flit)
                progressed = True


@dataclass(frozen=True)
class LinkConfig:
    """Link timing.

    Attributes:
        clock: the link clock (60 MHz on PowerMANNA — one byte per cycle).
        propagation_ns: wire flight time (near zero inside a cabinet).
    """

    clock: Clock = Clock(60.0)
    propagation_ns: float = 5.0

    @property
    def byte_ns(self) -> float:
        return self.clock.period_ns

    @property
    def bandwidth_mb_s(self) -> float:
        """Unidirectional bandwidth in Mbyte/s (1 byte per cycle)."""
        return self.clock.mhz

    def serialize_ns(self, nbytes: int) -> float:
        return nbytes * self.byte_ns


class Link:
    """One direction of a point-to-point link.

    ``tx`` is the sender-side staging FIFO; a pump process serialises each
    flit (``nbytes`` link cycles), then delivers it into the receiver FIFO
    ``rx`` — blocking while ``rx`` is full, i.e. honouring the stop signal.
    """

    def __init__(self, sim: Simulator, config: LinkConfig, rx: ByteFifo,
                 name: str = "link", tx_capacity_bytes: int = 16):
        self.sim = sim
        self.config = config
        self.name = name
        self.rx = rx
        self.tx = ByteFifo(sim, tx_capacity_bytes, name=f"{name}.tx")
        self.stats = Counter(name)
        self.busy_ns = 0.0
        # Flits in flight on the cable: (flit, arrival_time).  Propagation
        # pipelines — a long cable adds latency, never costs bandwidth —
        # but the cable only holds as many bytes as fit its flight time,
        # so a stalled receiver still backpressures the sender (the stop
        # signal) after at most that much slack.
        wire_slots = max(1, int(config.propagation_ns / config.byte_ns) + 1)
        self._in_flight = FifoStore(sim, capacity=wire_slots,
                                    name=f"{name}.wire")
        # message_id -> open "link.transmit" span (wormhole routing keeps
        # one message on the wire at a time, but the span starts in the
        # serializer process and ends in the deliverer process).
        self._spans: dict[int, int] = {}
        self._serializer = sim.process(self._serialize())
        self._deliverer = sim.process(self._deliver())
        if OBS.enabled and OBS.timeline.enabled:
            probe = OBS.timeline.probe
            probe(sim, "link.tx_bytes",
                  lambda: float(self.tx.level_bytes), link=name)
            probe(sim, "link.flits_in_flight",
                  lambda: float(self._in_flight.level), link=name)
            # Occupancy per interval: busy_ns is cumulative, so each
            # sample reports the busy fraction since the previous one.
            interval = OBS.timeline.sample_interval_ns
            last_busy = [0.0]

            def _util() -> float:
                busy = self.busy_ns
                delta = busy - last_busy[0]
                last_busy[0] = busy
                return min(1.0, delta / interval)

            probe(sim, "link.util", _util, link=name)

    def send(self, flit: Flit) -> Event:
        """Stage a flit for transmission; fires when accepted into tx."""
        return self.tx.put(flit)

    def _serialize(self):
        sim = self.sim
        tx_get = self.tx.get_pooled
        pooled_timeout = sim.pooled_timeout
        serialize_ns = self.config.serialize_ns
        propagation_ns = self.config.propagation_ns
        wire_put = self._in_flight.put_pooled
        while True:
            flit = yield tx_get()
            if OBS.enabled and flit.message_id not in self._spans:
                self._spans[flit.message_id] = OBS.tracer.begin(
                    "link.transmit", self.name, sim.now,
                    category="network", message=flit.message_id)
            start = sim.now
            yield pooled_timeout(serialize_ns(flit.nbytes))
            self.busy_ns += sim.now - start
            arrival = sim.now + propagation_ns
            yield wire_put((flit, arrival))

    def _deliver(self):
        sim = self.sim
        wire_get = self._in_flight.get_pooled
        pooled_timeout = sim.pooled_timeout
        rx_put = self.rx.put_pooled
        stats_incr = self.stats.incr
        data_kind = FlitKind.DATA
        close_kind = FlitKind.CLOSE
        while True:
            flit, arrival = yield wire_get()
            wait = arrival - sim.now
            if wait > 0:
                yield pooled_timeout(wait)
            if FAULTS.enabled:
                # A dropped DATA flit shortens the payload; the receiving
                # driver flags the message as corrupt (the CRC covers the
                # whole message, so a hole fails the check like a flip).
                if flit.kind == data_kind and FAULTS.engine.fires(
                        "flit_drop", self.name, sim.now):
                    stats_incr("dropped_flits")
                    if OBS.enabled:
                        OBS.metrics.incr("faults.dropped_flits",
                                         link=self.name)
                    continue
                # Bit-error bursts: one corruption draw per message per
                # link, taken as the message's tail crosses.
                if flit.kind == close_kind and FAULTS.engine.fires(
                        "link_corrupt", self.name, sim.now):
                    FAULTS.engine.mark_corrupt(flit.message_id)
                    stats_incr("corrupted_messages")
                    if OBS.enabled:
                        OBS.metrics.incr("faults.corrupted_messages",
                                         link=self.name)
            # Blocking here *is* the stop signal: the wire stalls until the
            # receiver FIFO has room for the flit.
            yield rx_put(flit)
            stats_incr("flits")
            stats_incr("bytes", flit.nbytes)
            if self._spans and flit.kind == close_kind:
                span = self._spans.pop(flit.message_id, 0)
                if OBS.enabled:
                    OBS.tracer.end(span, sim.now)
                    OBS.metrics.incr("link.messages", link=self.name)

    def utilization(self, elapsed_ns: Optional[float] = None) -> float:
        elapsed = self.sim.now if elapsed_ns is None else elapsed_ns
        return self.busy_ns / elapsed if elapsed > 0 else 0.0


class DuplexLink:
    """A bidirectional link: two independent directions (full duplex).

    The full-duplex protocol "improves not only the overall bandwidth but
    also simplifies the communication protocols by excluding deadlocks" —
    in the model, each direction has its own pump and FIFOs, so opposite
    traffic never shares a resource.
    """

    def __init__(self, sim: Simulator, config: LinkConfig,
                 rx_forward: ByteFifo, rx_backward: ByteFifo,
                 name: str = "duplex"):
        self.forward = Link(sim, config, rx_forward, name=f"{name}.fwd")
        self.backward = Link(sim, config, rx_backward, name=f"{name}.bwd")

    @property
    def full_duplex_bandwidth_mb_s(self) -> float:
        return 2 * self.forward.config.bandwidth_mb_s
