"""Reliable delivery over the CRC-checked links.

The link-interface chip "performs generation and checking of a CRC check
sum, ensuring that communication is not only efficient but also
reliable" — detection, that is; recovery is software's job.  This module
is that software: a sequence-numbered ack/retransmit protocol running
over the user-level driver, plus a fault injector that corrupts messages
at a configurable rate (the CRC flags them on receipt and the receiver
discards, exactly as the hardware would).

The protocol is stop-and-wait per (sender, receiver) pair with duplicate
suppression — simple, deadlock-free over the full-duplex links, and
enough to measure how goodput degrades with the link error rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.msg.api import CommWorld
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.process import Process
from repro.sim.resources import FifoStore
from repro.sim.stats import Counter


@dataclass(frozen=True)
class ReliableConfig:
    """Protocol parameters.

    Attributes:
        error_rate: probability a transmission is corrupted on the wire
            (detected by CRC at the receiver and discarded).
        ack_error_rate: probability an *acknowledgement* is corrupted;
            ``None`` mirrors ``error_rate``.  A lost ack forces a
            retransmission the receiver must suppress as a duplicate.
        ack_bytes: size of an acknowledgement message.
        retry_timeout_ns: sender timeout before retransmission.
        max_retries: give-up bound (raises DeliveryError beyond it).
        seed: fault-injection seed (deterministic runs).
    """

    error_rate: float = 0.0
    ack_error_rate: Optional[float] = None
    ack_bytes: int = 8
    retry_timeout_ns: float = 60_000.0
    max_retries: int = 25
    seed: int = 99

    def __post_init__(self):
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error rate must be in [0, 1)")
        if self.ack_error_rate is not None and not (
                0.0 <= self.ack_error_rate < 1.0):
            raise ValueError("ack error rate must be in [0, 1)")
        if self.retry_timeout_ns <= 0:
            raise ValueError("retry timeout must be positive")
        if self.max_retries < 1:
            raise ValueError("need at least one retry")

    @property
    def effective_ack_error_rate(self) -> float:
        return (self.error_rate if self.ack_error_rate is None
                else self.ack_error_rate)


class DeliveryError(RuntimeError):
    """Retransmission budget exhausted."""


@dataclass(frozen=True)
class Delivery:
    """What the application receives."""

    source: int
    nbytes: int
    sequence: int
    delivered_at: float


class ReliableChannel:
    """Ack/retransmit protocol over one CommWorld plane."""

    def __init__(self, world: CommWorld,
                 config: ReliableConfig = ReliableConfig()):
        self.world = world
        self.sim: Simulator = world.sim
        self.config = config
        self._rng = random.Random(config.seed)
        # A separate stream for acks, so turning ack corruption on does
        # not perturb the forward-path fault sequence of a given seed.
        self._ack_rng = random.Random(config.seed ^ 0x5DEECE66D)
        self.stats = Counter("reliable")
        self.sim.counters.append((self.stats, "reliable", {}))
        # Per node: application-facing delivery queue + ack wakeups.
        self._deliveries: Dict[int, FifoStore] = {}
        self._ack_events: Dict[Tuple[int, int, int], Event] = {}
        # Per (src, dst): next sequence to send / next expected.
        self._next_seq: Dict[Tuple[int, int], int] = {}
        self._expected: Dict[Tuple[int, int], int] = {}
        for node in world.fabric.node_ids():
            self._deliveries[node] = FifoStore(self.sim,
                                               name=f"rel{node}.deliveries")
            self.sim.process(self._pump(node))

    # -- application API -----------------------------------------------------

    def send(self, src: int, dst: int, nbytes: int) -> Process:
        """Process: deliver ``nbytes`` reliably; finishes when acked."""
        return self.sim.process(self._send(src, dst, nbytes))

    def recv(self, node: int) -> Event:
        """Event firing with the next :class:`Delivery` for ``node``."""
        return self._deliveries[node].get()

    # -- protocol internals --------------------------------------------------------

    def _send(self, src: int, dst: int, nbytes: int):
        key = (src, dst)
        sequence = self._next_seq.get(key, 0)
        self._next_seq[key] = sequence + 1
        driver = self.world.endpoint(src).driver

        for attempt in range(self.config.max_retries):
            corrupted = self._rng.random() < self.config.error_rate
            tag = {"rel": {"kind": "data", "seq": sequence, "src": src,
                           "corrupt": corrupted}}
            message = self.world.make_message(src, dst, nbytes, tag=tag)
            yield self.sim.process(driver.send_message(message))
            self.stats.incr("transmissions")
            if attempt:
                self.stats.incr("retransmissions")
            if corrupted:
                self.stats.incr("corrupted")

            ack_key = (src, dst, sequence)
            ack_event = Event(self.sim, name=f"ack{ack_key}")
            self._ack_events[ack_key] = ack_event
            # Adaptive timeout: base RTT allowance plus twice the wire
            # time of the payload (stop-and-wait must outwait its own
            # serialisation on the 60 MB/s link).
            wire_ns = nbytes * 1e3 / self.world.fabric.link_config.bandwidth_mb_s
            timeout = self.sim.timeout(self.config.retry_timeout_ns
                                       + 2.0 * wire_ns)
            fired = yield self.sim.any_of([ack_event, timeout])
            if ack_event in fired:
                self.stats.incr("acked")
                return sequence
            self._ack_events.pop(ack_key, None)
            self.stats.incr("timeouts")
        raise DeliveryError(
            f"{src}->{dst} seq {sequence}: no ack after "
            f"{self.config.max_retries} attempts")

    def _pump(self, node: int):
        driver = self.world.endpoint(node).driver
        while True:
            message = yield self.sim.process(driver.receive_message())
            meta = (message.tag or {}).get("rel") if isinstance(
                message.tag, dict) else None
            if meta is None:
                raise SimulationError(
                    f"node {node}: non-protocol message on a reliable plane")
            if meta["kind"] == "ack":
                if meta.get("corrupt") or not message.crc_ok:
                    # A corrupted ack is dropped by CRC like any other
                    # message; the sender retransmits and the receiver's
                    # duplicate suppression absorbs the replay.
                    self.stats.incr("acks_discarded")
                    continue
                event = self._ack_events.pop(
                    (meta["src"], meta["dst"], meta["seq"]), None)
                # A late/duplicate ack for an already-satisfied send is
                # dropped — the protocol tolerates it.
                if event is not None and not event.triggered:
                    event.trigger(meta["seq"])
                continue

            # Data message.
            if meta["corrupt"] or not message.crc_ok:
                # The CRC flags it; the receiver discards silently and the
                # sender's timeout drives the retransmission.
                self.stats.incr("discarded")
                continue
            src, sequence = meta["src"], meta["seq"]
            expected = self._expected.get((src, node), 0)
            if sequence == expected:
                self._expected[(src, node)] = expected + 1
                self._deliveries[node].try_put(Delivery(
                    source=src, nbytes=message.payload_bytes,
                    sequence=sequence,
                    delivered_at=message.delivered_at or self.sim.now))
                self.stats.incr("delivered")
            else:
                # Duplicate of an already-delivered message (our ack was
                # lost or late): re-ack, do not re-deliver.
                self.stats.incr("duplicates")
            ack_corrupt = (self._ack_rng.random()
                           < self.config.effective_ack_error_rate)
            ack_tag = {"rel": {"kind": "ack", "seq": sequence, "src": src,
                               "dst": node, "corrupt": ack_corrupt}}
            ack = self.world.make_message(node, src, self.config.ack_bytes,
                                          tag=ack_tag)
            self.stats.incr("acks_sent")
            if ack_corrupt:
                self.stats.incr("acks_corrupted")
            # Fire-and-forget: the sender's timeout covers a lost ack.
            self.sim.process(
                self.world.endpoint(node).driver.send_message(ack))

    # -- measurement -------------------------------------------------------------

    def goodput_mb_s(self, src: int, dst: int, nbytes: int,
                     count: int = 8) -> float:
        """Reliable streaming goodput (payload delivered over elapsed)."""
        start = self.sim.now
        received: list[float] = []

        def sender():
            for _ in range(count):
                yield self.send(src, dst, nbytes)

        def receiver():
            for _ in range(count):
                delivery = yield self.recv(dst)
                received.append(delivery.delivered_at)

        self.sim.process(sender())
        receiver_proc = self.sim.process(receiver())
        self.sim.run_until_complete(receiver_proc)
        elapsed = received[-1] - start
        return count * nbytes * 1e3 / elapsed if elapsed > 0 else 0.0
