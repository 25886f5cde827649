"""The link-interface ASIC.

Per link direction there is a FIFO of 32 64-bit words (256 bytes) decoupling
the node bus from the link, plus memory-mapped status registers the CPUs
poll.  Sending and receiving are fully independent (the link is full
duplex).  The chip also stamps/validates a CRC per message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults import FAULTS
from repro.network.link import ByteFifo, Link
from repro.network.message import Flit, FlitKind, Message, build_wire_format
from repro.ni.crc import message_checksum
from repro.obs import OBS
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.stats import Counter


@dataclass(frozen=True)
class LinkInterfaceConfig:
    """Link-interface geometry.

    Attributes:
        fifo_words: depth of each direction's FIFO in 64-bit words — 32 in
            the real chip; Figure 12's ablation varies this.
        word_bytes: FIFO word width.
        register_access_ns: one memory-mapped status-register read
            (uncached load across the node bus).
    """

    fifo_words: int = 32
    word_bytes: int = 8
    register_access_ns: float = 100.0

    def __post_init__(self):
        if self.fifo_words < 4:
            raise ValueError("the link interface needs at least 4 FIFO words")
        if self.word_bytes not in (4, 8):
            raise ValueError(f"word width must be 4 or 8 bytes, got {self.word_bytes}")
        if self.register_access_ns < 0:
            raise ValueError("register access time must be nonnegative")

    @property
    def fifo_bytes(self) -> int:
        return self.fifo_words * self.word_bytes


class CrcError(RuntimeError):
    """End-to-end CRC mismatch detected by the receiving link chip."""


class LinkInterface:
    """One of a node's two link interfaces.

    ``tx_link`` is the fabric attachment's node-to-crossbar link;
    ``rx_fifo`` is the FIFO the crossbar's down-link delivers into (it *is*
    the receive FIFO of this chip, so its capacity is set from the config).
    """

    def __init__(self, sim: Simulator, config: LinkInterfaceConfig,
                 tx_link: Link, rx_fifo: ByteFifo, name: str = "ni"):
        if rx_fifo.capacity_bytes != config.fifo_bytes:
            raise SimulationError(
                f"{name}: receive FIFO is {rx_fifo.capacity_bytes} B but the "
                f"config says {config.fifo_bytes} B — build the fabric with "
                "node_rx_fifo_bytes matching the link-interface config")
        self.sim = sim
        self.config = config
        self.name = name
        self.tx_link = tx_link
        self.rx_fifo = rx_fifo
        self.send_fifo = ByteFifo(sim, config.fifo_bytes, name=f"{name}.sendfifo")
        self.stats = Counter(name)
        sim.counters.append((self.stats, "ni", {"ni": name}))
        sim.process(self._drain_send_fifo())
        if OBS.enabled and OBS.timeline.enabled:
            probe = OBS.timeline.probe
            probe(sim, "ni.send_fifo_bytes",
                  lambda: float(self.send_fifo.level_bytes), ni=name)
            probe(sim, "ni.rx_fifo_bytes",
                  lambda: float(self.rx_fifo.level_bytes), ni=name)

    # -- send side ----------------------------------------------------------

    def stage_flit(self, flit: Flit) -> Event:
        """CPU stores one flit into the send FIFO (blocks while full)."""
        return self.send_fifo.put(flit)

    def send_space_bytes(self) -> int:
        """Status-register view of free send-FIFO space."""
        return self.send_fifo.free_bytes

    def _drain_send_fifo(self):
        sim = self.sim
        fifo_get = self.send_fifo.get_pooled
        link_send = self.tx_link.tx.put_pooled
        stats_incr = self.stats.incr
        data_kind = FlitKind.DATA
        close_kind = FlitKind.CLOSE
        inject_span = 0
        while True:
            flit = yield fifo_get()
            if OBS.enabled and not inject_span:
                inject_span = OBS.tracer.begin(
                    "ni.inject", self.name, sim.now, category="ni",
                    message=flit.message_id)
            if (FAULTS.enabled and flit.kind == data_kind
                    and FAULTS.engine.fires("ni_drop", self.name,
                                            sim.now)):
                # Send-FIFO overflow: a word is lost before it reaches the
                # wire.  The receiver sees a short payload and fails CRC.
                stats_incr("dropped_flits")
                continue
            yield link_send(flit)
            stats_incr("tx_bytes", flit.nbytes)
            if flit.kind == close_kind:
                stats_incr("tx_messages")
                if OBS.enabled:
                    OBS.tracer.end(inject_span, sim.now)
                inject_span = 0

    # -- receive side -----------------------------------------------------------

    def recv_available_bytes(self) -> int:
        """Status-register view of the receive FIFO fill level."""
        return self.rx_fifo.level_bytes

    def read_flit(self) -> Event:
        """CPU loads one flit from the receive FIFO."""
        return self.rx_fifo.get()

    def check_crc(self, message: Message) -> bool:
        """Validate the received message's CRC.

        Injected in-flight corruption (the fault engine marked the
        message) is reported by returning ``False`` — the hardware flags
        the error in a status register and software decides what to do.
        A stamped-CRC mismatch (tests forging ``message.tag['crc']``)
        still raises :class:`CrcError`, as a protocol violation would.
        """
        if FAULTS.enabled and FAULTS.engine.is_corrupt(message.message_id):
            self.fail_crc(message)
            return False
        expected = message_checksum(message.message_id, message.payload_bytes,
                                    message.source, message.dest)
        stamped = self._lookup_remote_crc(message)
        if stamped is not None and stamped != expected:
            self.fail_crc(message)
            raise CrcError(
                f"{self.name}: CRC mismatch on message {message.message_id}: "
                f"stamped {stamped:#010x}, computed {expected:#010x}")
        self.stats.incr("crc_checked")
        return True

    def fail_crc(self, message: Message) -> None:
        """``message`` failed its CRC, whatever caught it: count it, and
        consume the fault engine's corrupt mark on it if there is one."""
        if FAULTS.enabled:
            FAULTS.engine.consume_corrupt(message.message_id)
        self.stats.incr("crc_errors")

    def _lookup_remote_crc(self, message: Message) -> Optional[int]:
        # In hardware the CRC travels with the message; the simulator keeps
        # it in the message registry (see repro.msg.api).  When the message
        # carries an injected-fault CRC (tests), it appears in message.tag.
        if isinstance(message.tag, dict) and "crc" in message.tag:
            return message.tag["crc"]
        return message_checksum(message.message_id, message.payload_bytes,
                                message.source, message.dest)


def wire_flits(message: Message) -> list[Flit]:
    """The exact flit sequence the CPU stages for ``message``."""
    return build_wire_format(message)
