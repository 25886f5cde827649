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
from repro.network.message import FlitKind
from repro.obs import OBS
from repro.sim.engine import Simulator
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


def make_async_link(sim: Simulator, link_config: LinkConfig,
                    xcvr: TransceiverConfig, rx: ByteFifo,
                    name: str = "async") -> Link:
    """Build one direction of an inter-cabinet link.

    The stage is: sender -> (synchronous wire) -> transceiver FIFO ->
    (cable) -> receiver FIFO.  We compose it as a single :class:`Link`
    whose propagation includes the cable flight plus resynchronisation,
    delivering into an intermediate 2-KB FIFO that drains into ``rx``.
    """
    cfg = LinkConfig(
        clock=link_config.clock,
        propagation_ns=link_config.propagation_ns + xcvr.propagation_ns
        + xcvr.resync_ns)
    buffer_fifo = ByteFifo(sim, xcvr.fifo_bytes, name=f"{name}.xcvr_fifo")
    link = Link(sim, cfg, buffer_fifo, name=name)
    stats = Counter(f"{name}.xcvr")
    sim.counters.append((stats, "xcvr", {"xcvr": name}))

    def drain():
        # The transceiver forwards into the downstream FIFO at link rate;
        # backpressure from ``rx`` accumulates in the 2-KB buffer first,
        # which is what lets the stop signal work over 30 m.
        relay_span = 0
        while True:
            flit = yield buffer_fifo.get_pooled()
            if OBS.enabled and not relay_span:
                relay_span = OBS.tracer.begin(
                    "xcvr.relay", name, sim.now, category="network",
                    message=flit.message_id)
            if FAULTS.enabled:
                # Transceiver stall: the clock-domain crossing hiccups and
                # the relay pauses; upstream backpressure absorbs it in
                # the 2-KB FIFO exactly as the stop signal would.
                stall = FAULTS.engine.stall_ns("xcvr_stall", name, sim.now)
                if stall > 0:
                    stats.incr("stalls")
                    yield sim.pooled_timeout(stall)
            yield sim.pooled_timeout(cfg.serialize_ns(flit.nbytes))
            yield rx.put_pooled(flit)
            if flit.kind == FlitKind.CLOSE:
                stats.incr("messages")
                if OBS.enabled:
                    OBS.tracer.end(relay_span, sim.now)
                relay_span = 0

    sim.process(drain())
    return link
