"""The PowerMANNA link: byte-parallel pipe with stop-signal flow control.

Physically each link direction is a 9-bit channel (8 data + 1 control) at
60 MHz — 60 Mbyte/s — plus a *stop* wire back from the receiver.  The
model is a fixed-delay pipe driven by event callbacks, not a process: a
flit's serialisation (its bytes at the link rate) and its flight down the
cable are one pooled timeout each, and the flit then lands in the
receiver's FIFO.  When that FIFO is full the flit waits at the receiver
and the cable behind it fills; once the cable is full the sender stalls,
which is exactly the stop signal asserting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Union

from repro.faults import FAULTS
from repro.network.message import Flit, FlitKind
from repro.obs import OBS
from repro.sim.clock import Clock
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.stats import Counter

#: What waits on a :class:`ByteFifo`: an event a process yields, or a
#: callable a component's state machine registers.
Waiter = Union[Event, Callable[[Flit], None]]


class ByteFifo:
    """A FIFO whose capacity is accounted in *bytes* of flit payload.

    Hardware FIFOs (crossbar input buffers, NI send/receive FIFOs,
    transceiver buffers) are sized in bytes while the simulator moves
    multi-byte flits; this store blocks a put until the whole flit fits.

    A waiter (a getter on an empty FIFO, or a put blocked behind a full
    one) is an :class:`Event`, which a process yields (:meth:`get`,
    :meth:`put`), or a plain callable, which a component's state machine
    registers (:meth:`get_callback`, :meth:`put_callback`).  The put or
    get that satisfies a callable waiter calls it synchronously with the
    flit, after the FIFO's bookkeeping for that match is complete; no
    kernel event is queued.  The callable may re-enter the FIFO: a link
    whose receiver end a get frees can ``try_put`` its next flit into
    the same FIFO from inside its put callback.  The settle loop re-reads
    the level and both queues after every wake, so a re-entrant put or
    get is matched as if it had come after the one that woke it.
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
        self._putters: Deque[tuple[Waiter, Flit]] = deque()
        self._getters: Deque[Waiter] = deque()
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
        self._check_fits(flit)
        if self.try_put(flit):
            # Accepted at once.  Inline event.trigger(flit): the event is
            # fresh, so the double-trigger check cannot fire.
            event._triggered = True
            event._value = flit
            self.sim._ready.append(event)
            return event
        # Queued behind other putters, or too big right now.  No match is
        # possible (the head putter still does not fit, and a waiting
        # getter implies the FIFO is empty), so skip the settle loop.
        self._putters.append((event, flit))
        return event

    def put_callback(self, flit: Flit, callback: Callable[[Flit], None]) -> None:
        """Block ``flit`` until it fits; the get that makes room accepts
        it and calls ``callback(flit)``.  Use after :meth:`try_put`
        returned False, for the same reason :meth:`put` skips the settle
        loop."""
        self._check_fits(flit)
        self._putters.append((callback, flit))

    def _check_fits(self, flit: Flit) -> None:
        if flit.nbytes > self.capacity_bytes:
            raise SimulationError(
                f"flit of {flit.nbytes} B can never fit FIFO {self.name!r} "
                f"of {self.capacity_bytes} B")

    def get(self) -> Event:
        event = Event(self.sim, self._get_name)
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
        self.get_callback(event)
        return event

    def get_callback(self, waiter: Waiter) -> None:
        """Queue a getter: the put that supplies its flit calls it with
        the flit (a callable) or triggers it (an event).  A buffered flit
        goes to the head getter at once, so a component calls this after
        :meth:`try_get` came back empty."""
        self._getters.append(waiter)
        if self.items:
            self._settle()

    def cancel_get(self, waiter: Waiter) -> bool:
        """Withdraw a pending getter (used by watchdog teardowns), so an
        abandoned getter cannot silently swallow a later flit."""
        try:
            self._getters.remove(waiter)
            return True
        except ValueError:
            return False

    def try_put(self, flit: Flit) -> bool:
        """Non-blocking put, with no event: accept ``flit`` now if it fits
        and no blocked put is queued ahead of it, handing a waiting getter
        the head flit; else return False.  :meth:`put` accepts through
        here before it queues."""
        nbytes = flit.nbytes
        if self._putters or nbytes > self.capacity_bytes - self.level_bytes:
            return False
        items = self.items
        items.append(flit)
        level = self.level_bytes + nbytes
        self.level_bytes = level
        self.total_bytes_in += nbytes
        if level > self.high_water_bytes:
            self.high_water_bytes = level
        getters = self._getters
        if getters:
            getter = getters.popleft()
            item = items.popleft()
            self.level_bytes -= item.nbytes
            self.total_bytes_out += item.nbytes
            if isinstance(getter, Event):
                getter.trigger(item)
            else:
                getter(item)
            if getters and items:
                self._settle()
        return True

    def try_get(self) -> tuple[bool, Optional[Flit]]:
        """Non-blocking get; returns (ok, flit)."""
        if not self.items:
            return False, None
        flit = self.items.popleft()
        self.level_bytes -= flit.nbytes
        self.total_bytes_out += flit.nbytes
        # Waiting getters imply an empty FIFO, so only a putter can be
        # matched now.
        if self._putters:
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
                putter, flit = putters[0]
                nbytes = flit.nbytes
                if nbytes <= self.capacity_bytes - self.level_bytes:
                    putters.popleft()
                    items.append(flit)
                    level = self.level_bytes + nbytes
                    self.level_bytes = level
                    self.total_bytes_in += nbytes
                    if level > self.high_water_bytes:
                        self.high_water_bytes = level
                    if isinstance(putter, Event):
                        putter.trigger(flit)
                    else:
                        putter(flit)
                    progressed = True
            if getters and items:
                getter = getters.popleft()
                flit = items.popleft()
                self.level_bytes -= flit.nbytes
                self.total_bytes_out += flit.nbytes
                if isinstance(getter, Event):
                    getter.trigger(flit)
                else:
                    getter(flit)
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
    """One direction of a point-to-point link, as a callback state machine.

    ``tx`` is the sender-side staging FIFO.  The serializer takes a flit
    from it (``try_get``, or a callable getter when it is empty), holds
    the line for ``nbytes`` link cycles (one pooled timeout), and puts the
    flit on the cable with its arrival time.  The receiver end takes
    flits off the cable in order, waits out each one's flight (a second
    pooled timeout) and accepts it into ``rx``.  An uncontended flit-hop
    is those two kernel events; no process runs.

    The stop signal: when ``rx`` is full the arriving flit waits at the
    receiver as a callable putter, and the cable behind it fills.  The cable
    holds ``wire_slots`` flits (as many as fit its flight time), so the
    sender may run ``wire_slots`` flits plus the one held at the receiver
    ahead of a stalled ``rx``; the next flit to finish serialising waits
    for a slot, and the serializer stalls with it.
    """

    def __init__(self, sim: Simulator, config: LinkConfig, rx: ByteFifo,
                 name: str = "link", tx_capacity_bytes: int = 16):
        self.sim = sim
        self.config = config
        self.name = name
        self.rx = rx
        self.tx = ByteFifo(sim, tx_capacity_bytes, name=f"{name}.tx")
        self.stats = Counter(name)
        sim.counters.append((self.stats, "link", {"link": name}))
        self.busy_ns = 0.0
        self._byte_ns = config.byte_ns
        self._propagation_ns = config.propagation_ns
        # Propagation pipelines (a long cable adds latency, never costs
        # bandwidth), but the cable only holds as many flits as fit its
        # flight time, so a stalled receiver still backpressures the
        # sender after at most that much slack.
        self.wire_slots = max(1, int(config.propagation_ns / config.byte_ns) + 1)
        # (flit, arrival time) on the cable behind the receiver's flit.
        self._cable: Deque[tuple[Flit, float]] = deque()
        # The flit at the receiver end (in flight or held by the stop
        # signal), and a serialised flit waiting for a cable slot.
        self._head: Optional[Flit] = None
        self._stalled: Optional[tuple[Flit, float]] = None
        self._serial_start = 0.0
        # message_id -> open "link.transmit" span (wormhole routing keeps
        # one message on the wire at a time; the span opens when its first
        # flit starts serialising and closes as its close flit lands).
        self._spans: dict[int, int] = {}
        # Callbacks bound once: FIFO waiters and pooled-timeout callbacks.
        self._on_tx = self._serialize
        self._on_serialized = self._serialized
        self._on_arrival = self._arrival
        self._on_accepted = self._accepted
        self.tx.get_callback(self._on_tx)
        if OBS.enabled and OBS.timeline.enabled:
            probe = OBS.timeline.probe
            probe(sim, "link.tx_bytes",
                  lambda: float(self.tx.level_bytes), link=name)
            probe(sim, "link.flits_in_flight",
                  lambda: float(len(self._cable)), link=name)
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

    # -- serializer ---------------------------------------------------------

    def _serialize(self, flit: Flit) -> None:
        sim = self.sim
        if OBS.enabled and flit.message_id not in self._spans:
            self._spans[flit.message_id] = OBS.tracer.begin(
                "link.transmit", self.name, sim.now,
                category="network", message=flit.message_id)
        self._serial_start = sim.now
        sim.pooled_timeout(flit.nbytes * self._byte_ns,
                           flit).callbacks.append(self._on_serialized)

    def _serialized(self, event: Event) -> None:
        now = self.sim.now
        self.busy_ns += now - self._serial_start
        flit = event._value
        arrival = now + self._propagation_ns
        if self._head is None:
            self._take(flit, arrival)
        elif len(self._cable) < self.wire_slots:
            self._cable.append((flit, arrival))
        else:
            self._stalled = (flit, arrival)
            return
        self._next_tx()

    def _next_tx(self) -> None:
        ok, flit = self.tx.try_get()
        if ok:
            self._serialize(flit)
        else:
            self.tx.get_callback(self._on_tx)

    # -- receiver end -------------------------------------------------------

    def _take(self, flit: Flit, arrival: float) -> None:
        """Move ``flit`` to the receiver end; deliver it on arrival."""
        self._head = flit
        wait = arrival - self.sim.now
        if wait > 0:
            self.sim.pooled_timeout(wait).callbacks.append(self._on_arrival)
        else:
            self._arrival(None)

    def _arrival(self, _event: Optional[Event]) -> None:
        flit = self._head
        sim = self.sim
        if FAULTS.enabled:
            # A dropped DATA flit shortens the payload; the receiving
            # driver flags the message as corrupt (the CRC covers the
            # whole message, so a hole fails the check like a flip).
            if flit.kind == FlitKind.DATA and FAULTS.engine.fires(
                    "flit_drop", self.name, sim.now):
                self.stats.incr("dropped_flits")
                self._free()
                return
            # Bit-error bursts: one corruption draw per message per
            # link, taken as the message's tail crosses.
            if flit.kind == FlitKind.CLOSE and FAULTS.engine.fires(
                    "link_corrupt", self.name, sim.now):
                FAULTS.engine.mark_corrupt(flit.message_id)
                self.stats.incr("corrupted_messages")
        if self.rx.try_put(flit):
            self._accepted(flit)
        else:
            # The stop signal: hold the flit until rx has room.
            self.rx.put_callback(flit, self._on_accepted)

    def _accepted(self, flit: Flit) -> None:
        stats_incr = self.stats.incr
        stats_incr("flits")
        stats_incr("bytes", flit.nbytes)
        if flit.kind == FlitKind.CLOSE:
            stats_incr("messages")
            if self._spans:
                span = self._spans.pop(flit.message_id, 0)
                if OBS.enabled:
                    OBS.tracer.end(span, self.sim.now)
        self._free()

    def _free(self) -> None:
        """The receiver end is free: take the next flit off the cable,
        which frees a slot for a stalled serializer."""
        cable = self._cable
        if not cable:
            self._head = None
            return
        flit, arrival = cable.popleft()
        stalled = self._stalled
        if stalled is not None:
            self._stalled = None
            cable.append(stalled)
        self._take(flit, arrival)
        if stalled is not None:
            self._next_tx()

    def utilization(self, elapsed_ns: Optional[float] = None) -> float:
        elapsed = self.sim.now if elapsed_ns is None else elapsed_ns
        return self.busy_ns / elapsed if elapsed > 0 else 0.0


class DuplexLink:
    """A bidirectional link: two independent directions (full duplex).

    The full-duplex protocol "improves not only the overall bandwidth but
    also simplifies the communication protocols by excluding deadlocks" —
    in the model, each direction has its own serializer and FIFOs, so
    opposite traffic never shares a resource.
    """

    def __init__(self, sim: Simulator, config: LinkConfig,
                 rx_forward: ByteFifo, rx_backward: ByteFifo,
                 name: str = "duplex"):
        self.forward = Link(sim, config, rx_forward, name=f"{name}.fwd")
        self.backward = Link(sim, config, rx_backward, name=f"{name}.bwd")

    @property
    def full_duplex_bandwidth_mb_s(self) -> float:
        return 2 * self.forward.config.bandwidth_mb_s
