"""Asynchronous inter-cabinet transceivers.

The clock-synchronous link protocol only works over short distances (inside
a cabinet).  Between cabinets (up to 30 m) PowerMANNA inserts asynchronous
transceivers: the input side carries a 2-Kbyte FIFO so the stop signal can
tolerate the longer round-trip.  In the model a transceiver pair is a link
stage with extra propagation delay and a deep FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import FAULTS
from repro.network.link import ByteFifo, Link, LinkConfig
from repro.network.message import Flit, FlitKind
from repro.obs import OBS
from repro.sim.engine import Event, Simulator
from repro.sim.stats import Counter

SPEED_OF_LIGHT_NS_PER_M = 5.0  # signal propagation in copper, ~0.2 m/ns


@dataclass(frozen=True)
class TransceiverConfig:
    """Asynchronous link-stage parameters.

    Attributes:
        cable_m: cable length (paper: up to 30 m between cabinets).
        fifo_bytes: asynchronous input FIFO ("2-Kbyte entries").
        resync_ns: clock-domain crossing penalty per flit.
    """

    cable_m: float = 30.0
    fifo_bytes: int = 2048
    resync_ns: float = 35.0  # two 60 MHz cycles of synchroniser

    def __post_init__(self):
        if self.cable_m <= 0 or self.cable_m > 100:
            raise ValueError(f"cable length {self.cable_m} m out of range (0, 100]")
        if self.fifo_bytes < 64:
            raise ValueError("transceiver FIFO must be at least 64 bytes")

    @property
    def propagation_ns(self) -> float:
        return self.cable_m * SPEED_OF_LIGHT_NS_PER_M


class _Relay:
    """The transceiver's relay from its 2-KB FIFO into ``rx``, as a
    callback state machine.

    It takes each flit from the buffer (``try_get``, or a callable getter
    when the buffer is empty), holds it for its serialisation at link
    rate (one pooled timeout, after a pooled stall timeout when a
    ``xcvr_stall`` fault fires), and puts it into ``rx`` (``try_put``, or
    a callable putter while ``rx`` is full).  Backpressure from ``rx``
    therefore accumulates in the 2-KB buffer first, which is what lets
    the stop signal work over 30 m.
    """

    __slots__ = ("sim", "name", "buffer", "rx", "stats", "byte_ns",
                 "span", "_on_flit", "_on_stalled", "_on_serialized",
                 "_on_delivered")

    def __init__(self, sim: Simulator, name: str, buffer: ByteFifo,
                 rx: ByteFifo, byte_ns: float, stats: Counter):
        self.sim = sim
        self.name = name
        self.buffer = buffer
        self.rx = rx
        self.stats = stats
        self.byte_ns = byte_ns
        self.span = 0
        self._on_flit = self._relay
        self._on_stalled = self._stalled
        self._on_serialized = self._serialized
        self._on_delivered = self._delivered
        buffer.get_callback(self._on_flit)

    def _relay(self, flit: Flit) -> None:
        sim = self.sim
        if OBS.enabled and not self.span:
            self.span = OBS.tracer.begin(
                "xcvr.relay", self.name, sim.now, category="network",
                message=flit.message_id)
        if FAULTS.enabled:
            # Transceiver stall: the clock-domain crossing hiccups and
            # the relay pauses; upstream backpressure absorbs it in the
            # 2-KB FIFO exactly as the stop signal would.
            stall = FAULTS.engine.stall_ns("xcvr_stall", self.name, sim.now)
            if stall > 0:
                self.stats.incr("stalls")
                sim.pooled_timeout(stall, flit).callbacks.append(
                    self._on_stalled)
                return
        self._serialize(flit)

    def _stalled(self, event: Event) -> None:
        self._serialize(event._value)

    def _serialize(self, flit: Flit) -> None:
        self.sim.pooled_timeout(flit.nbytes * self.byte_ns,
                                flit).callbacks.append(self._on_serialized)

    def _serialized(self, event: Event) -> None:
        flit = event._value
        if self.rx.try_put(flit):
            self._delivered(flit)
        else:
            self.rx.put_callback(flit, self._on_delivered)

    def _delivered(self, flit: Flit) -> None:
        if flit.kind == FlitKind.CLOSE:
            self.stats.incr("messages")
            if OBS.enabled:
                OBS.tracer.end(self.span, self.sim.now)
            self.span = 0
        ok, flit = self.buffer.try_get()
        if ok:
            self._relay(flit)
        else:
            self.buffer.get_callback(self._on_flit)


def make_async_link(sim: Simulator, link_config: LinkConfig,
                    xcvr: TransceiverConfig, rx: ByteFifo,
                    name: str = "async") -> Link:
    """Build one direction of an inter-cabinet link.

    The stage is: sender -> (synchronous wire) -> transceiver FIFO ->
    (cable) -> receiver FIFO.  We compose it as a single :class:`Link`
    whose propagation includes the cable flight plus resynchronisation,
    delivering into an intermediate 2-KB FIFO that a :class:`_Relay`
    drains into ``rx`` at link rate.
    """
    cfg = LinkConfig(
        clock=link_config.clock,
        propagation_ns=link_config.propagation_ns + xcvr.propagation_ns
        + xcvr.resync_ns)
    buffer_fifo = ByteFifo(sim, xcvr.fifo_bytes, name=f"{name}.xcvr_fifo")
    link = Link(sim, cfg, buffer_fifo, name=name)
    stats = Counter(f"{name}.xcvr")
    sim.counters.append((stats, "xcvr", {"xcvr": name}))
    _Relay(sim, name, buffer_fifo, rx, cfg.byte_ns, stats)
    return link
