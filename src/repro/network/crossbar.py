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
from repro.sim.engine import Simulator
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
    """A single crossbar chip: input FIFOs, per-output arbiters, wormholes."""

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
        for i in range(config.ports):
            sim.process(self._input_channel(i))
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

    def _input_channel(self, port: int):
        fifo = self.inputs[port]
        sim = self.sim
        fifo_get = fifo.get_pooled
        pooled_timeout = sim.pooled_timeout
        stats_incr = self.stats.incr
        route_setup_ns = self.config.route_setup_ns
        forward_ns = self.config.forward_ns
        close_kind = FlitKind.CLOSE
        failed = self._failed_outputs
        classed = self._classed
        resync = False
        while True:
            flit = yield fifo_get()
            if flit.kind != FlitKind.ROUTE:
                if resync:
                    # Straggler flits of a torn-down wormhole: discard
                    # until the next connection start.
                    self.stats.incr("resync_discarded")
                    continue
                raise RoutingError(
                    f"{self.name} input {port}: expected a route command at "
                    f"connection start, got {flit.kind} "
                    f"(message {flit.message_id})")
            resync = False
            out_port = flit.route_port
            self._check_route(port, out_port, flit)
            if out_port in failed:
                # Dead output: swallow the whole wormhole so traffic queued
                # behind it on this input still progresses.
                resync = yield from self._blackhole(port)
                continue
            arbiter = self._output_arbiters[out_port]
            sclass = flit.sclass
            arb_span = 0
            if OBS.enabled:
                arb_span = OBS.tracer.begin(
                    "xbar.arbitrate", self.name, self.sim.now,
                    category="network", message=flit.message_id,
                    in_port=port, out_port=out_port)
            if classed:
                waited = yield arbiter.acquire(sclass)
            else:
                waited = yield arbiter.acquire()
            if waited > 0:
                stats_incr("collisions")
            # Collision-free through-routing costs route_setup_ns; the route
            # byte is consumed here and never forwarded.
            yield pooled_timeout(route_setup_ns)
            stats_incr("connections")
            fwd_span = 0
            if OBS.enabled:
                OBS.tracer.end(arb_span, self.sim.now,
                               collided=waited > 0)
                fwd_span = OBS.tracer.begin(
                    "xbar.forward", self.name, self.sim.now,
                    category="network", message=flit.message_id,
                    in_port=port, out_port=out_port)
            link = self.output_links[out_port]
            link_send = link.tx.put_pooled
            conn_bytes = 0
            try:
                while True:
                    if FAULTS.enabled:
                        flit = yield from self._guarded_get(fifo)
                    else:
                        # The watchdog is only armed under fault injection;
                        # without it this is a plain get, inlined to skip
                        # the per-flit generator allocation.
                        flit = yield fifo_get()
                    if flit is None:
                        # Watchdog: the upstream of this wormhole died (a
                        # failed port blackholed its tail); tear down the
                        # connection instead of holding the output forever.
                        self.stats.incr("torn_down")
                        resync = True
                        break
                    if out_port in failed:
                        # Port died mid-wormhole: drain the rest unsent.
                        resync = yield from self._blackhole(port, first=flit)
                        break
                    yield pooled_timeout(forward_ns)
                    yield link_send(flit)
                    stats_incr("forwarded_bytes", flit.nbytes)
                    conn_bytes += flit.nbytes
                    if flit.kind == close_kind:
                        break
            finally:
                if classed:
                    arbiter.release(sclass, conn_bytes)
                else:
                    arbiter.release()
                if OBS.enabled:
                    OBS.tracer.end(fwd_span, self.sim.now)

    def _guarded_get(self, fifo: ByteFifo):
        """Next flit of an open wormhole, or None if the watchdog fires.

        The watchdog is only armed under fault injection, and only when
        the input is actually idle — a buffered flit resumes immediately
        with no timer event.
        """
        get_event = fifo.get()
        if not FAULTS.enabled or get_event.triggered:
            flit = yield get_event
            return flit
        timer = self.sim.timeout(self.config.teardown_ns)
        fired = yield self.sim.any_of([get_event, timer])
        if get_event in fired:
            return fired[get_event]
        if get_event.triggered:
            # The flit raced the watchdog at the same instant; take it.
            return get_event.value
        fifo.cancel_get(get_event)
        return None

    def _blackhole(self, in_port: int, first: Optional[Flit] = None):
        """Consume a wormhole's flits up to CLOSE without forwarding.

        Returns True when the watchdog ended the drain (the upstream died
        before sending CLOSE), in which case the caller must resync.
        """
        self.stats.incr("blackholed")
        flit = first
        while flit is None or flit.kind != FlitKind.CLOSE:
            flit = yield from self._guarded_get(self.inputs[in_port])
            if flit is None:
                self.stats.incr("torn_down")
                return True
        return False

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
