"""The link-interface ASIC.

Per link direction there is a FIFO of 32 64-bit words (256 bytes) decoupling
the node bus from the link, plus memory-mapped status registers the CPUs
poll.  Sending and receiving are fully independent (the link is full
duplex).  The chip also stamps/validates a CRC per message.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    The send side runs no process.  The chip moves each flit the CPU
    stages into ``send_fifo`` on into the link's ``tx`` as soon as ``tx``
    has room: a callable getter on the send FIFO, and a callable putter
    on ``tx`` while it is full, so a flit costs no kernel event here.
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
        # The send pump: a callback state machine that moves flits from
        # the send FIFO into the link's tx (see _pump).
        self._inject_span = 0
        self._on_staged = self._staged
        self._on_sent = self._sent_late
        self._pump()
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

    def _pump(self) -> None:
        """Move staged flits onto the link while its ``tx`` takes them;
        then wait as a callable getter on the send FIFO."""
        fifo = self.send_fifo
        while True:
            ok, flit = fifo.try_get()
            if not ok:
                fifo.get_callback(self._on_staged)
                return
            if not self._inject(flit):
                return

    def _staged(self, flit: Flit) -> None:
        if self._inject(flit):
            self._pump()

    def _inject(self, flit: Flit) -> bool:
        """Put one flit on the link; False while it waits for ``tx``."""
        if OBS.enabled and not self._inject_span:
            self._inject_span = OBS.tracer.begin(
                "ni.inject", self.name, self.sim.now, category="ni",
                message=flit.message_id)
        if (FAULTS.enabled and flit.kind == FlitKind.DATA
                and FAULTS.engine.fires("ni_drop", self.name, self.sim.now)):
            # Send-FIFO overflow: a word is lost before it reaches the
            # wire.  The receiver sees a short payload and fails CRC.
            self.stats.incr("dropped_flits")
            return True
        link_tx = self.tx_link.tx
        if link_tx.try_put(flit):
            self._sent(flit)
            return True
        link_tx.put_callback(flit, self._on_sent)
        return False

    def _sent_late(self, flit: Flit) -> None:
        """``tx`` took a flit it had no room for; resume the pump."""
        self._sent(flit)
        self._pump()

    def _sent(self, flit: Flit) -> None:
        self.stats.incr("tx_bytes", flit.nbytes)
        if flit.kind == FlitKind.CLOSE:
            self.stats.incr("tx_messages")
            if OBS.enabled:
                OBS.tracer.end(self._inject_span, self.sim.now)
            self._inject_span = 0

    # -- receive side -----------------------------------------------------------

    def recv_available_bytes(self) -> int:
        """Status-register view of the receive FIFO fill level."""
        return self.rx_fifo.level_bytes

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
        stamped = (message.tag.get("crc") if isinstance(message.tag, dict)
                   else None)
        if stamped is not None:
            expected = message_checksum(message.message_id,
                                        message.payload_bytes,
                                        message.source, message.dest)
            if stamped != expected:
                self.fail_crc(message)
                raise CrcError(
                    f"{self.name}: CRC mismatch on message "
                    f"{message.message_id}: stamped {stamped:#010x}, "
                    f"computed {expected:#010x}")
        self.stats.incr("crc_checked")
        return True

    def fail_crc(self, message: Message) -> None:
        """``message`` failed its CRC, whatever caught it: count it, and
        consume the fault engine's corrupt mark on it if there is one."""
        if FAULTS.enabled:
            FAULTS.engine.consume_corrupt(message.message_id)
        self.stats.incr("crc_errors")


def wire_flits(message: Message) -> list[Flit]:
    """The exact flit sequence the CPU stages for ``message``."""
    return build_wire_format(message)
