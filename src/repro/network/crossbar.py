"""The 16x16 PowerMANNA crossbar ASIC.

One chip integrates, per input channel, a FIFO buffer and the command/
address decoding logic, and per output channel an arbiter.  The routing
protocol is wormhole: the first byte after idle is a *route* command naming
the output channel; it is consumed by this crossbar.  All further flits are
forwarded on the established connection until a *close* command tears it
down (the close itself is forwarded so downstream crossbars also close).

Unlike the CM-5's 8x8 fat-tree switch, every input can route to every
output — the property the paper credits for the topology flexibility of
Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.faults import FAULTS
from repro.network.link import ByteFifo, Link
from repro.network.message import Flit, FlitKind
from repro.network.qos import ClassedArbiter, QosConfig
from repro.obs import OBS
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource
from repro.sim.stats import Counter


@dataclass(frozen=True)
class CrossbarConfig:
    """Crossbar geometry and timing.

    Attributes:
        ports: square radix (16 on PowerMANNA, 8 on the CM-5 switch).
        input_fifo_bytes: per-input buffering inside the ASIC.
        route_setup_ns: collision-free through-routing time — "if there are
            no collisions, this through-routing takes only 0.2 microseconds".
        forward_ns: per-flit pass-through latency once the wormhole is open.
        teardown_ns: watchdog on an open wormhole — when no flit arrives
            for this long the connection is torn down and the input
            resynchronises on the next route command.  Only armed under
            fault injection; without it, killing an upstream port mid-
            wormhole would leave the downstream connection (and its output
            arbiter) held forever, wedging all traffic behind it.
        qos: per-class arbitration at the output ports.  ``None`` (the
            default) keeps the hardware's plain FIFO arbiters and is
            byte-identical to the pre-QoS simulator.
    """

    ports: int = 16
    input_fifo_bytes: int = 64
    route_setup_ns: float = 200.0
    forward_ns: float = 16.7  # one 60 MHz cycle through the switch core
    teardown_ns: float = 500_000.0
    qos: Optional[QosConfig] = None

    def __post_init__(self):
        if self.ports < 2:
            raise ValueError(f"crossbar needs >= 2 ports, got {self.ports}")
        if self.input_fifo_bytes < 8:
            raise ValueError("input FIFO must hold at least one word")
        if self.route_setup_ns < 0 or self.forward_ns < 0:
            raise ValueError("timing parameters must be nonnegative")
        if self.teardown_ns <= 0:
            raise ValueError("the wormhole watchdog must be positive")


class RoutingError(RuntimeError):
    """Protocol violation observed by the crossbar (bad route byte, data
    with no open connection)."""


class Crossbar:
    """A single crossbar chip: input FIFOs, per-output arbiters, wormholes.

    Each input channel is an :class:`_InputChannel` callback state
    machine over its input FIFO; no process runs.  A flit forwarded on an
    open wormhole costs one kernel event, its ``forward_ns`` timeout.
    """

    def __init__(self, sim: Simulator, config: CrossbarConfig = CrossbarConfig(),
                 name: str = "xbar"):
        self.sim = sim
        self.config = config
        self.name = name
        self.inputs: List[ByteFifo] = [
            ByteFifo(sim, config.input_fifo_bytes, name=f"{name}.in{i}")
            for i in range(config.ports)
        ]
        self.output_links: List[Optional[Link]] = [None] * config.ports
        # With a QosConfig the bare FIFO Resource at each output is
        # replaced by the pluggable classed arbiter; without one the
        # legacy arbiters (and their exact event sequence) are kept.
        self._classed = config.qos is not None
        if self._classed:
            self._output_arbiters = [
                ClassedArbiter(sim, config.qos, name=f"{name}.out{i}")
                for i in range(config.ports)
            ]
        else:
            self._output_arbiters = [
                Resource(sim, capacity=1, name=f"{name}.out{i}")
                for i in range(config.ports)
            ]
        self._failed_outputs: Set[int] = set()
        self.stats = Counter(name)
        sim.counters.append((self.stats, "xbar", {"xbar": name}))
        self._channels = [_InputChannel(self, i) for i in range(config.ports)]
        if OBS.enabled and OBS.timeline.enabled:
            probe = OBS.timeline.probe
            for i in range(config.ports):
                probe(sim, "xbar.in_fifo_bytes",
                      lambda f=self.inputs[i]: float(f.level_bytes),
                      xbar=name, port=str(i))
                probe(sim, "xbar.out_queue",
                      lambda a=self._output_arbiters[i]: float(a.queue_length),
                      xbar=name, port=str(i))
            if self._classed:
                for i in range(config.ports):
                    for ci, tc in enumerate(config.qos.classes):
                        probe(sim, "xbar.class_queue",
                              lambda a=self._output_arbiters[i], c=ci:
                              float(a.class_queue_length(c)),
                              xbar=name, port=str(i), cls=tc.name)

    # -- wiring -----------------------------------------------------------

    def attach_output(self, port: int, link: Link) -> None:
        """Connect output channel ``port`` to an outgoing link."""
        self._check_port(port)
        if self.output_links[port] is not None:
            raise ValueError(f"{self.name} output {port} already wired")
        self.output_links[port] = link

    def fail_output(self, port: int) -> None:
        """Hard-fail an output channel (fault injection).

        Connections routed to a failed output are *black-holed*: the
        crossbar keeps consuming the wormhole's flits (so upstream traffic
        is not wedged behind them) but forwards nothing.  Recovery is the
        software's job — end-to-end retransmission plus rerouting once the
        route table learns of the failure.
        """
        self._check_port(port)
        self._failed_outputs.add(port)
        self.stats.incr("failed_outputs")

    def output_failed(self, port: int) -> bool:
        self._check_port(port)
        return port in self._failed_outputs

    def input_fifo(self, port: int) -> ByteFifo:
        """The FIFO an incoming link should deliver into."""
        self._check_port(port)
        return self.inputs[port]

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.config.ports:
            raise ValueError(
                f"{self.name} has ports 0..{self.config.ports - 1}, got {port}")

    # -- the per-input wormhole engine ----------------------------------------

    def _check_route(self, in_port: int, out_port: Optional[int],
                     flit: Flit) -> None:
        if out_port is None or not 0 <= out_port < self.config.ports:
            raise RoutingError(
                f"{self.name} input {in_port}: route byte {out_port!r} does "
                f"not name an output channel (message {flit.message_id})")
        if self.output_links[out_port] is None:
            raise RoutingError(
                f"{self.name} input {in_port}: route to unwired output "
                f"{out_port} (message {flit.message_id})")

    # -- statistics ------------------------------------------------------------

    def collision_rate(self) -> float:
        conns = self.stats["connections"]
        return self.stats["collisions"] / conns if conns else 0.0

    def output_utilization(self, port: int) -> float:
        self._check_port(port)
        return self._output_arbiters[port].utilization()


# The three things an input channel can be doing with its next flit.
_ROUTE, _FORWARD, _BLACKHOLE = range(3)


class _InputChannel:
    """One input channel's wormhole engine, as a callback state machine.

    The channel takes flits from its input FIFO with ``try_get``, or
    waits for the next one as a callable getter, and handles each by its
    state:

    * ``_ROUTE``: a route command opens a connection: the output's
      arbiter ``acquire`` event, then a ``route_setup_ns`` timeout, then
      ``_FORWARD``.  A route to a failed output starts ``_BLACKHOLE``
      instead, and any other flit is a protocol error, unless a torn-down
      wormhole is being resynchronised, when it is discarded.
    * ``_FORWARD``: each flit costs one pooled ``forward_ns`` timeout and
      is then put into the output link's ``tx`` (``try_put``, or a
      callable putter while ``tx`` is full).  The close flit releases
      the arbiter.  If the output fails mid-wormhole, the rest of the
      wormhole is black-holed.
    * ``_BLACKHOLE``: flits are consumed and dropped up to the close.

    Under fault injection a channel in ``_FORWARD`` or ``_BLACKHOLE``
    that has to wait for a flit arms the ``teardown_ns`` watchdog: if it
    fires first, the getter is withdrawn, the connection (if any) is
    released, and the channel resynchronises on the next route command.
    """

    __slots__ = ("xbar", "sim", "port", "fifo", "state", "resync",
                 "out_port", "arbiter", "sclass", "message_id", "collided",
                 "link_tx", "conn_bytes", "fwd_span", "arb_span", "watchdog",
                 "_on_flit", "_on_forwarded", "_on_sent")

    def __init__(self, xbar: "Crossbar", port: int):
        self.xbar = xbar
        self.sim = xbar.sim
        self.port = port
        self.fifo = xbar.inputs[port]
        self.state = _ROUTE
        self.resync = False
        self.out_port = 0
        # The output arbiter while a connection holds it.
        self.arbiter = None
        self.sclass = 0
        self.message_id = 0
        self.collided = False
        self.link_tx: Optional[ByteFifo] = None
        self.conn_bytes = 0
        self.arb_span = 0
        self.fwd_span = 0
        # The armed watchdog timer, or None.
        self.watchdog = None
        # The per-flit callbacks, bound once.
        self._on_flit = self._flit_arrived
        self._on_forwarded = self._forwarded
        self._on_sent = self._sent
        self.fifo.get_callback(self._on_flit)

    # -- taking flits ---------------------------------------------------------

    def _pump(self) -> None:
        """Handle buffered flits while the state consumes them at once;
        then wait for the next flit as a callable getter."""
        fifo = self.fifo
        while True:
            ok, flit = fifo.try_get()
            if not ok:
                break
            if not self._take(flit):
                return
        fifo.get_callback(self._on_flit)
        if FAULTS.enabled and self.state != _ROUTE:
            timer = self.sim.timeout(self.xbar.config.teardown_ns)
            timer.callbacks.append(self._watchdog_fired)
            self.watchdog = timer

    def _flit_arrived(self, flit: Flit) -> None:
        self.watchdog = None
        if self._take(flit):
            self._pump()

    def _take(self, flit: Flit) -> bool:
        """Handle one flit; True when the channel wants the next at once."""
        state = self.state
        if state == _FORWARD:
            if self.out_port in self.xbar._failed_outputs:
                # Port died mid-wormhole: drain the rest unsent.
                self._blackhole()
                return self._take(flit)
            self.sim.pooled_timeout(self.xbar.config.forward_ns,
                                    flit).callbacks.append(self._on_forwarded)
            return False
        if state == _BLACKHOLE:
            if flit.kind == FlitKind.CLOSE:
                self._end_blackhole()
            return True
        return self._route(flit)

    # -- opening a connection ---------------------------------------------------

    def _route(self, flit: Flit) -> bool:
        xbar = self.xbar
        if flit.kind != FlitKind.ROUTE:
            if self.resync:
                # Straggler flits of a torn-down wormhole: discard
                # until the next connection start.
                xbar.stats.incr("resync_discarded")
                return True
            raise RoutingError(
                f"{xbar.name} input {self.port}: expected a route command "
                f"at connection start, got {flit.kind} "
                f"(message {flit.message_id})")
        self.resync = False
        out_port = flit.route_port
        xbar._check_route(self.port, out_port, flit)
        if out_port in xbar._failed_outputs:
            # Dead output: swallow the whole wormhole so traffic queued
            # behind it on this input still progresses.
            self._blackhole()
            return True
        self.out_port = out_port
        self.message_id = flit.message_id
        arbiter = xbar._output_arbiters[out_port]
        self.arbiter = arbiter
        if OBS.enabled:
            self.arb_span = OBS.tracer.begin(
                "xbar.arbitrate", xbar.name, self.sim.now,
                category="network", message=flit.message_id,
                in_port=self.port, out_port=out_port)
        if xbar._classed:
            self.sclass = flit.sclass
            grant = arbiter.acquire(self.sclass)
        else:
            grant = arbiter.acquire()
        grant.callbacks.append(self._granted)
        return False

    def _granted(self, event: Event) -> None:
        self.collided = event._value > 0
        if self.collided:
            self.xbar.stats.incr("collisions")
        # Collision-free through-routing costs route_setup_ns; the route
        # byte is consumed here and never forwarded.
        self.sim.pooled_timeout(
            self.xbar.config.route_setup_ns).callbacks.append(self._setup_done)

    def _setup_done(self, _event: Event) -> None:
        xbar = self.xbar
        xbar.stats.incr("connections")
        if OBS.enabled:
            now = self.sim.now
            OBS.tracer.end(self.arb_span, now, collided=self.collided)
            self.fwd_span = OBS.tracer.begin(
                "xbar.forward", xbar.name, now,
                category="network", message=self.message_id,
                in_port=self.port, out_port=self.out_port)
        self.link_tx = xbar.output_links[self.out_port].tx
        self.conn_bytes = 0
        self.state = _FORWARD
        self._pump()

    # -- forwarding ---------------------------------------------------------------

    def _forwarded(self, event: Event) -> None:
        flit = event._value
        link_tx = self.link_tx
        if link_tx.try_put(flit):
            self._sent(flit)
        else:
            link_tx.put_callback(flit, self._on_sent)

    def _sent(self, flit: Flit) -> None:
        self.xbar.stats.incr("forwarded_bytes", flit.nbytes)
        self.conn_bytes += flit.nbytes
        if flit.kind == FlitKind.CLOSE:
            self._close()
        self._pump()

    def _close(self) -> None:
        """Release the output; the next flit must be a route command."""
        if self.xbar._classed:
            self.arbiter.release(self.sclass, self.conn_bytes)
        else:
            self.arbiter.release()
        self.arbiter = None
        if OBS.enabled:
            OBS.tracer.end(self.fwd_span, self.sim.now)
        self.state = _ROUTE

    # -- fault paths ----------------------------------------------------------------

    def _blackhole(self) -> None:
        """Consume the wormhole's flits up to CLOSE without forwarding."""
        self.xbar.stats.incr("blackholed")
        self.state = _BLACKHOLE

    def _end_blackhole(self) -> None:
        if self.arbiter is not None:
            self._close()
        self.state = _ROUTE

    def _watchdog_fired(self, timer: Event) -> None:
        if timer is not self.watchdog:
            return  # disarmed: a flit came first
        # A flit put later at this same instant still wins the race:
        # decide once the events already due now have run.
        decide = self.sim.pooled_event()
        decide.callbacks.append(self._teardown)
        decide.trigger(timer)

    def _teardown(self, event: Event) -> None:
        if event._value is not self.watchdog:
            return
        # The upstream of this wormhole died (a failed port blackholed
        # its tail): tear the connection down instead of holding the
        # output forever, and resynchronise on the next route command.
        self.watchdog = None
        self.fifo.cancel_get(self._on_flit)
        self.xbar.stats.incr("torn_down")
        self.resync = True
        if self.arbiter is not None:
            self._close()
        self.state = _ROUTE
        self._pump()
