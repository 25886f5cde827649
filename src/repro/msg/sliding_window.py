"""Sliding-window (go-back-N) reliable delivery.

The stop-and-wait protocol in :mod:`repro.msg.reliable` is correct but
idles the links for a full round trip per message, capping goodput far
below the link's bandwidth-delay product for small messages.  This module
pipelines: each (sender, receiver) flow keeps up to ``window`` sequence-
numbered messages in flight, the receiver acknowledges cumulatively, and a
timeout on the oldest unacked message retransmits the whole outstanding
window (go-back-N — the receiver discards out-of-order arrivals, so no
reassembly buffers are needed, matching the software-only PowerMANNA
stack).

Robustness upgrades over stop-and-wait:

* **Adaptive timeout** — Jacobson/Karels SRTT + RTTVAR estimation from
  ack round trips (Karn's rule: retransmitted messages contribute no
  samples), plus a wire-time allowance for the bytes currently in flight.
* **Exponential backoff with jitter** on consecutive timeouts, so a
  congested or faulted path is not hammered in lockstep.
* **Link-down detection** — after ``link_down_after`` consecutive
  timeouts of the same base sequence the flow declares the path suspect
  and calls :meth:`RouteTable.invalidate`, forcing the next retransmission
  to recompute its source route; combined with the fault controller
  marking failed edges, traffic reroutes through surviving crossbar paths
  and the flow completes instead of deadlocking.
* **Both directions draw faults** — data *and* acks are corrupted by the
  built-in injector (``error_rate``/``ack_error_rate``) and by the
  cross-layer :mod:`repro.faults` engine (CRC verdicts via
  ``message.crc_ok``).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.faults import FAULTS
from repro.msg.api import CommWorld
from repro.msg.reliable import Delivery, DeliveryError
from repro.network.routing import NoRouteError
from repro.obs import OBS
from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Process
from repro.sim.resources import FifoStore, Signal
from repro.sim.stats import Counter


@dataclass(frozen=True)
class SlidingWindowConfig:
    """Protocol parameters.

    Attributes:
        window: max unacked messages per (src, dst) flow.
        error_rate: probability a data transmission is corrupted on the
            wire (CRC-detected and discarded at the receiver).
        ack_error_rate: same for acks; ``None`` mirrors ``error_rate``.
        ack_bytes: size of an acknowledgement message.
        initial_rto_ns: retransmission timeout before any RTT sample.
        min_rto_ns / max_rto_ns: clamp on the adaptive timeout.
        rtt_alpha / rtt_beta: SRTT / RTTVAR gains (Jacobson's 1/8, 1/4).
        backoff: timeout multiplier per consecutive timeout.
        jitter: uniform random timeout stretch in [1, 1 + jitter].
        max_retries: consecutive-timeout bound per base sequence before
            the flow fails with :class:`DeliveryError`.
        link_down_after: consecutive timeouts before the flow suspects
            the path and invalidates the route cache (reroute trigger).
        seed: injector / jitter seed (deterministic runs).
    """

    window: int = 8
    error_rate: float = 0.0
    ack_error_rate: Optional[float] = None
    ack_bytes: int = 8
    initial_rto_ns: float = 40_000.0
    min_rto_ns: float = 8_000.0
    max_rto_ns: float = 4_000_000.0
    rtt_alpha: float = 0.125
    rtt_beta: float = 0.25
    backoff: float = 2.0
    jitter: float = 0.1
    max_retries: int = 30
    link_down_after: int = 3
    seed: int = 99

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must hold at least one message")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error rate must be in [0, 1)")
        if self.ack_error_rate is not None and not (
                0.0 <= self.ack_error_rate < 1.0):
            raise ValueError("ack error rate must be in [0, 1)")
        if self.initial_rto_ns <= 0 or self.min_rto_ns <= 0:
            raise ValueError("timeouts must be positive")
        if self.max_rto_ns < self.min_rto_ns:
            raise ValueError("max_rto_ns below min_rto_ns")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.jitter < 0.0:
            raise ValueError("jitter must be nonnegative")
        if self.max_retries < 1:
            raise ValueError("need at least one retry")
        if self.link_down_after < 1:
            raise ValueError("link_down_after must be >= 1")

    @property
    def effective_ack_error_rate(self) -> float:
        return (self.error_rate if self.ack_error_rate is None
                else self.ack_error_rate)


@dataclass
class _SendRequest:
    nbytes: int
    done: object  # Event firing with the sequence (or an exception)


@dataclass
class _InFlight:
    seq: int
    nbytes: int
    request: _SendRequest
    sent_at: float = 0.0
    retransmitted: bool = False


@dataclass
class _Flow:
    src: int
    dst: int
    wakeup: Signal
    ack_signal: Signal
    pending: Deque[_SendRequest] = field(default_factory=deque)
    inflight: Deque[_InFlight] = field(default_factory=deque)
    next_seq: int = 0
    base: int = 0
    retries: int = 0
    srtt_ns: Optional[float] = None
    rttvar_ns: float = 0.0
    rto_ns: float = 0.0
    last_route: Optional[Tuple[int, ...]] = None
    failed: bool = False
    #: The flow's reroutes, link-down verdicts and failures.
    stats: Counter = field(default_factory=lambda: Counter("slw.flow"))


class SlidingWindowChannel:
    """Go-back-N ack/retransmit protocol over one CommWorld plane."""

    def __init__(self, world: CommWorld,
                 config: SlidingWindowConfig = SlidingWindowConfig()):
        self.world = world
        self.sim: Simulator = world.sim
        self.config = config
        self._rng = random.Random(config.seed)
        self._ack_rng = random.Random(config.seed ^ 0x5DEECE66D)
        self.counts = Counter("sliding")
        self.sim.counters.append((self.counts, "sliding", {}))
        self._flows: Dict[Tuple[int, int], _Flow] = {}
        self._expected: Dict[Tuple[int, int], int] = {}
        self._deliveries: Dict[int, FifoStore] = {}
        self.node_stats: Dict[int, Counter] = {}
        for node in world.fabric.node_ids():
            self._deliveries[node] = FifoStore(self.sim,
                                               name=f"slw{node}.deliveries")
            self.node_stats[node] = Counter(f"slw{node}")
            self.sim.counters.append((self.node_stats[node], "sliding_node",
                                      {"node": node}))
            self.sim.process(self._pump(node))
        if OBS.enabled and OBS.timeline.enabled:
            probe = OBS.timeline.probe
            probe(self.sim, "sliding.inflight",
                  lambda: float(sum(len(f.inflight)
                                    for f in self._flows.values())))
            probe(self.sim, "sliding.rto_ns",
                  lambda: max((f.rto_ns for f in self._flows.values()),
                              default=0.0))

    @property
    def stats(self) -> Counter:
        """Channel-wide totals: :attr:`counts`, which no metric labels,
        plus the per-flow and per-receiving-node counters."""
        total = Counter("sliding")
        for counter in (self.counts, *self.node_stats.values(),
                        *(flow.stats for flow in self._flows.values())):
            for key, value in counter.as_dict().items():
                total.incr(key, value)
        return total

    # -- application API ----------------------------------------------------

    def send(self, src: int, dst: int, nbytes: int) -> Process:
        """Process: deliver ``nbytes`` reliably; finishes when acked.

        Raises :class:`DeliveryError` (in the returned process) when the
        flow exhausts its retries or loses every route to ``dst``.
        """
        return self.sim.process(self._await(self._submit(src, dst, nbytes),
                                            raise_errors=True))

    def send_outcome(self, src: int, dst: int, nbytes: int) -> Process:
        """Like :meth:`send`, but resolves to ``("ok", seq)`` or
        ``("failed", error)`` instead of raising — chaos harness use."""
        return self.sim.process(self._await(self._submit(src, dst, nbytes),
                                            raise_errors=False))

    def recv(self, node: int):
        """Event firing with the next :class:`Delivery` for ``node``."""
        return self._deliveries[node].get()

    # -- sender side --------------------------------------------------------

    def _submit(self, src: int, dst: int, nbytes: int) -> _SendRequest:
        if src == dst:
            raise ValueError(f"node {src} cannot send to itself")
        flow = self._flow(src, dst)
        request = _SendRequest(nbytes, self.sim.event(name="slw.send"))
        flow.pending.append(request)
        flow.wakeup.fire()
        return request

    def _await(self, request: _SendRequest, raise_errors: bool):
        result = yield request.done
        if isinstance(result, Exception):
            if raise_errors:
                raise result
            return ("failed", result)
        return result if raise_errors else ("ok", result)

    def _flow(self, src: int, dst: int) -> _Flow:
        key = (src, dst)
        flow = self._flows.get(key)
        if flow is None:
            flow = _Flow(src, dst,
                         wakeup=Signal(self.sim, name=f"slw{key}.wakeup"),
                         ack_signal=Signal(self.sim, name=f"slw{key}.ack"))
            flow.rto_ns = self.config.initial_rto_ns
            self._flows[key] = flow
            self.sim.counters.append((flow.stats, "sliding_flow",
                                      {"flow": f"{src}->{dst}"}))
            self.sim.process(self._flow_proc(flow))
        return flow

    def _flow_proc(self, flow: _Flow):
        cfg = self.config
        while True:
            # Top up the window from the pending queue.
            while flow.pending and len(flow.inflight) < cfg.window:
                request = flow.pending.popleft()
                entry = _InFlight(flow.next_seq, request.nbytes, request)
                flow.next_seq += 1
                flow.inflight.append(entry)
                if not self._transmit(flow, entry, retransmit=False):
                    break
            if flow.failed:
                flow.failed = False
                continue
            if not flow.inflight:
                yield flow.wakeup.wait()
                continue

            base_before = flow.base
            timer = self.sim.timeout(self._timeout_ns(flow))
            fired = yield self.sim.any_of([flow.ack_signal.wait(), timer,
                                           flow.wakeup.wait()])
            if flow.base > base_before or not flow.inflight:
                flow.retries = 0
                continue
            if timer not in fired:
                continue  # woken by a new request; refill the window

            # Timeout on the oldest unacked message.
            flow.retries += 1
            self.counts.incr("timeouts")
            if flow.retries > cfg.max_retries:
                self._fail_flow(flow, DeliveryError(
                    f"{flow.src}->{flow.dst} seq {flow.base}: no ack after "
                    f"{cfg.max_retries} consecutive timeouts"))
                continue
            if flow.retries == cfg.link_down_after:
                # The path looks dead: drop cached routes so the coming
                # retransmissions recompute against current failure state.
                self.world.routes.invalidate()
                flow.stats.incr("link_down")
            # Go-back-N: retransmit the whole outstanding window in order.
            for entry in list(flow.inflight):
                if not self._transmit(flow, entry, retransmit=True):
                    break
            if flow.failed:
                flow.failed = False

    def _transmit(self, flow: _Flow, entry: _InFlight,
                  retransmit: bool) -> bool:
        cfg = self.config
        corrupted = self._rng.random() < cfg.error_rate
        tag = {"slw": {"kind": "data", "seq": entry.seq, "src": flow.src,
                       "dst": flow.dst, "corrupt": corrupted}}
        try:
            message = self.world.make_message(flow.src, flow.dst,
                                              entry.nbytes, tag=tag)
        except NoRouteError as exc:
            self._fail_flow(flow, DeliveryError(
                f"{flow.src}->{flow.dst}: no surviving route ({exc})"))
            return False
        route = tuple(message.route)
        if flow.last_route is not None and route != flow.last_route:
            flow.stats.incr("reroutes")
            if OBS.enabled:
                span = OBS.tracer.begin(
                    "faults.reroute", f"n{flow.src}", self.sim.now,
                    category="faults", message=message.message_id,
                    seq=entry.seq)
                OBS.tracer.end(span, self.sim.now)
        flow.last_route = route
        entry.sent_at = self.sim.now
        entry.retransmitted = entry.retransmitted or retransmit
        self.counts.incr("transmissions")
        if retransmit:
            self.counts.incr("retransmissions")
            if OBS.enabled:
                span = OBS.tracer.begin(
                    "faults.retransmit", f"n{flow.src}", self.sim.now,
                    category="faults", message=message.message_id,
                    seq=entry.seq, attempt=flow.retries)
                OBS.tracer.end(span, self.sim.now)
        if corrupted:
            self.counts.incr("corrupted")
        driver = self.world.endpoint(flow.src).driver
        self.sim.process(driver.send_message(message))
        return True

    def _timeout_ns(self, flow: _Flow) -> float:
        cfg = self.config
        outstanding = sum(e.nbytes + cfg.ack_bytes for e in flow.inflight)
        wire_ns = (outstanding * 1e3
                   / self.world.fabric.link_config.bandwidth_mb_s)
        rto = max(cfg.min_rto_ns, min(cfg.max_rto_ns, flow.rto_ns))
        scaled = (rto + 2.0 * wire_ns) * (
            cfg.backoff ** min(flow.retries, 12))
        jittered = scaled * (1.0 + cfg.jitter * self._rng.random())
        # max_rto_ns is a hard ceiling on the armed timer: the backoff
        # multiplier, the in-flight drain allowance, and the jitter factor
        # all scale *within* it, never past it.
        return min(jittered, cfg.max_rto_ns)

    def _fail_flow(self, flow: _Flow, error: DeliveryError) -> None:
        flow.stats.incr("failed_flows")
        for entry in flow.inflight:
            self.counts.incr("undeliverable")
            entry.request.done.trigger(error)
        for request in flow.pending:
            self.counts.incr("undeliverable")
            request.done.trigger(error)
        flow.inflight.clear()
        flow.pending.clear()
        flow.retries = 0
        flow.failed = True

    def _apply_ack(self, flow: _Flow, upto: int) -> None:
        cfg = self.config
        progressed = False
        while flow.inflight and flow.inflight[0].seq <= upto:
            entry = flow.inflight.popleft()
            progressed = True
            self.counts.incr("acked")
            if not entry.retransmitted:
                # Karn's rule: only first-transmission acks sample the RTT.
                sample = self.sim.now - entry.sent_at
                if flow.srtt_ns is None:
                    flow.srtt_ns = sample
                    flow.rttvar_ns = sample / 2.0
                else:
                    flow.rttvar_ns = ((1.0 - cfg.rtt_beta) * flow.rttvar_ns
                                      + cfg.rtt_beta
                                      * abs(flow.srtt_ns - sample))
                    flow.srtt_ns = ((1.0 - cfg.rtt_alpha) * flow.srtt_ns
                                    + cfg.rtt_alpha * sample)
                flow.rto_ns = flow.srtt_ns + 4.0 * flow.rttvar_ns
            entry.request.done.trigger(entry.seq)
        if progressed:
            flow.base = upto + 1
            flow.retries = 0
            flow.ack_signal.fire()

    # -- receiver side ------------------------------------------------------

    def _pump(self, node: int):
        driver = self.world.endpoint(node).driver
        while True:
            message = yield self.sim.process(driver.receive_message())
            meta = (message.tag or {}).get("slw") if isinstance(
                message.tag, dict) else None
            if meta is None:
                raise SimulationError(
                    f"node {node}: non-protocol message on a sliding-window "
                    "plane")
            corrupt = bool(meta.get("corrupt")) or not message.crc_ok

            if meta["kind"] == "ack":
                if corrupt:
                    # The CRC flags the ack; the sender's timeout recovers.
                    self.counts.incr("acks_discarded")
                    continue
                flow = self._flows.get((meta["src"], meta["dst"]))
                if flow is not None:
                    self._apply_ack(flow, meta["upto"])
                continue

            # Data message.
            src, seq = meta["src"], meta["seq"]
            if FAULTS.enabled and FAULTS.engine.node_down(node):
                # Crashed node: the hardware drains, software is gone —
                # nothing is delivered and nothing is acknowledged.
                self.node_stats[node].incr("dropped_at_crashed_node")
                continue
            if corrupt:
                self.counts.incr("discarded")
                continue
            key = (src, node)
            expected = self._expected.get(key, 0)
            if seq == expected:
                self._expected[key] = expected + 1
                self._deliveries[node].try_put(Delivery(
                    source=src, nbytes=message.payload_bytes, sequence=seq,
                    delivered_at=message.delivered_at or self.sim.now))
                self.counts.incr("delivered")
            elif seq < expected:
                self.counts.incr("duplicates")
            else:
                # Go-back-N: a gap means an earlier message was lost; the
                # cumulative ack below tells the sender where to resume.
                self.counts.incr("out_of_order")
            upto = self._expected.get(key, 0) - 1
            if upto >= 0:
                self._send_ack(node, src, upto)

    def _send_ack(self, node: int, src: int, upto: int) -> None:
        cfg = self.config
        corrupted = self._ack_rng.random() < cfg.effective_ack_error_rate
        tag = {"slw": {"kind": "ack", "src": src, "dst": node, "upto": upto,
                       "corrupt": corrupted}}
        try:
            ack = self.world.make_message(node, src, cfg.ack_bytes, tag=tag)
        except NoRouteError:
            self.counts.incr("acks_unroutable")
            return
        self.counts.incr("acks_sent")
        if corrupted:
            self.counts.incr("acks_corrupted")
        self.sim.process(
            self.world.endpoint(node).driver.send_message(ack))

    # -- measurement --------------------------------------------------------

    def goodput_mb_s(self, src: int, dst: int, nbytes: int,
                     count: int = 8) -> float:
        """Reliable streaming goodput (payload delivered over elapsed)."""
        start = self.sim.now
        received: list[float] = []

        def sender():
            sends = [self.send(src, dst, nbytes) for _ in range(count)]
            for process in sends:
                yield process

        def receiver():
            for _ in range(count):
                delivery = yield self.recv(dst)
                received.append(delivery.delivered_at)

        self.sim.process(sender())
        receiver_proc = self.sim.process(receiver())
        self.sim.run_until_complete(receiver_proc)
        elapsed = received[-1] - start
        return count * nbytes * 1e3 / elapsed if elapsed > 0 else 0.0
