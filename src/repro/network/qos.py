"""Per-class quality of service on the crossbar fabric.

The paper's crossbar arbitrates each output channel strictly first-come
first-served; every open-loop traffic study of switched fabrics (QCDSP,
RTNN, the T9000 hypercube) shows that under contention the interesting
questions are *per class*: does urgent traffic keep its latency tail when
bulk traffic saturates an output?  This module adds:

* :class:`TrafficClass` / :class:`QosConfig` — the declarative service
  classes a fabric is built with (priority, weight, optional token-bucket
  rate limit per class);
* :class:`ClassedArbiter` — the pluggable replacement for the bare
  :class:`~repro.sim.resources.Resource` at a crossbar output port, with
  three policies: ``fifo`` (arrival order, the hardware's behaviour),
  ``priority`` (strict priority, lower number wins), ``wdrr``
  (weighted-deficit-round-robin over the classes, byte-charged);
* :class:`AdaptiveConfig` / :class:`AdaptiveRouter` — congestion-aware
  source routing layered on the :class:`~repro.network.routing.RouteTable`
  failure API: when an output's queue depth or wait-time slope crosses a
  threshold the edge is marked *congested* (a soft failure) and new
  messages route around it; if avoidance would disconnect a pair the
  router falls back to the congested shortest path.

A fabric built without a :class:`QosConfig` keeps the legacy ``Resource``
arbiters and is byte-identical to the pre-QoS simulator — the default
``fifo`` CLI policy rides that path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Hashable, List, Optional, Set, Tuple

from collections import deque

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.stats import Counter

ARBITER_POLICIES = ("fifo", "priority", "wdrr")


@dataclass(frozen=True)
class TrafficClass:
    """One service class of the fabric.

    Attributes:
        name: label used in tags, tables and metrics.
        priority: strict-priority rank (lower wins; only the ``priority``
            policy reads it).
        weight: WDRR share (only the ``wdrr`` policy reads it).
        rate_mb_s: optional token-bucket rate limit for the class at every
            output port (None = unlimited).
        burst_bytes: token-bucket depth when rate-limited.
    """

    name: str
    priority: int = 0
    weight: int = 1
    rate_mb_s: Optional[float] = None
    burst_bytes: int = 4096

    def __post_init__(self):
        if self.weight < 1:
            raise ValueError(f"class {self.name!r}: weight must be >= 1")
        if self.rate_mb_s is not None and self.rate_mb_s <= 0:
            raise ValueError(f"class {self.name!r}: rate must be positive")
        if self.burst_bytes < 1:
            raise ValueError(f"class {self.name!r}: burst must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "priority": self.priority,
                "weight": self.weight, "rate_mb_s": self.rate_mb_s,
                "burst_bytes": self.burst_bytes}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrafficClass":
        return cls(**data)


@dataclass(frozen=True)
class QosConfig:
    """Arbitration policy + the ordered tuple of service classes.

    Class index *is* the wire tag (``Flit.sclass``); ordering therefore
    matters and is part of the identity.
    """

    arbiter: str = "fifo"
    classes: Tuple[TrafficClass, ...] = (TrafficClass("best-effort"),)
    quantum_bytes: int = 1024

    def __post_init__(self):
        if self.arbiter not in ARBITER_POLICIES:
            raise ValueError(f"unknown arbiter policy {self.arbiter!r}; "
                             f"choose from {ARBITER_POLICIES}")
        if not self.classes:
            raise ValueError("QosConfig needs at least one class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        if self.quantum_bytes < 1:
            raise ValueError("quantum must be positive")

    def class_index(self, name: str) -> int:
        for index, tc in enumerate(self.classes):
            if tc.name == name:
                return index
        raise KeyError(f"no traffic class {name!r} "
                       f"(classes: {[c.name for c in self.classes]})")

    def to_dict(self) -> Dict[str, Any]:
        return {"arbiter": self.arbiter,
                "classes": [c.to_dict() for c in self.classes],
                "quantum_bytes": self.quantum_bytes}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QosConfig":
        return cls(arbiter=data.get("arbiter", "fifo"),
                   classes=tuple(TrafficClass.from_dict(c)
                                 for c in data.get("classes", [])),
                   quantum_bytes=data.get("quantum_bytes", 1024))


class _TokenBucket:
    """Post-charged token bucket: a grant is admissible while the bucket
    is non-negative; the wormhole's actual bytes are debited at close, so
    the bucket may go negative and the class then waits out the debt."""

    def __init__(self, rate_mb_s: float, burst_bytes: int):
        # MB/s == bytes/us == 1e-3 bytes/ns.
        self.rate_bytes_ns = rate_mb_s * 1e-3
        self.burst = float(burst_bytes)
        self.tokens = float(burst_bytes)
        self._last = 0.0

    def refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last)
                              * self.rate_bytes_ns)
            self._last = now

    def eligible(self, now: float) -> bool:
        self.refill(now)
        return self.tokens > 0.0

    def charge(self, nbytes: int, now: float) -> None:
        self.refill(now)
        self.tokens -= nbytes

    def eligible_at(self, now: float) -> float:
        """Earliest time the bucket returns to positive."""
        self.refill(now)
        if self.tokens > 0.0:
            return now
        return now + (-self.tokens) / self.rate_bytes_ns + 1e-9


class ClassedArbiter:
    """A capacity-1 output arbiter with per-class queueing.

    Drop-in for the statistics surface of
    :class:`~repro.sim.resources.Resource` (``queue_length``,
    ``total_acquisitions``, ``total_wait_time``, ``utilization``), plus
    per-class accounting.  ``acquire(sclass)`` returns an event whose
    value is the time spent queued; ``release(sclass, nbytes)`` closes the
    wormhole and charges ``nbytes`` to the class's token bucket and WDRR
    deficit.
    """

    def __init__(self, sim: Simulator, qos: QosConfig,
                 name: str = "arbiter"):
        self.sim = sim
        self.qos = qos
        self.name = name
        self._acquire_name = name + ".acquire"
        self.in_use = 0
        #: Per-class queues of ``(arrival_seq, event, requested_at)``;
        #: the sequence number gives the fifo policy its global order.
        self._waiters: List[Deque[Tuple[int, Event, float]]] = [
            deque() for _ in qos.classes]
        self._arrivals = 0
        self._buckets: List[Optional[_TokenBucket]] = [
            _TokenBucket(tc.rate_mb_s, tc.burst_bytes)
            if tc.rate_mb_s is not None else None
            for tc in qos.classes]
        self._deficit = [0.0] * len(qos.classes)
        self._rr = 0
        self._wake_pending = False
        # Resource-compatible statistics.
        self.total_acquisitions = 0
        self.total_wait_time = 0.0
        self.busy_time = 0.0
        self._last_change = 0.0
        # Per-class statistics: grants, waited ns, rate-limit stalls.
        self.class_grants = [0] * len(qos.classes)
        self.class_wait_ns = [0.0] * len(qos.classes)
        self.class_rate_stalls = [0] * len(qos.classes)

    # -- the Resource-compatible surface ------------------------------------

    @property
    def queue_length(self) -> int:
        return sum(len(q) for q in self._waiters)

    def class_queue_length(self, sclass: int) -> int:
        return len(self._waiters[sclass])

    def utilization(self, now: Optional[float] = None) -> float:
        now = self.sim.now if now is None else now
        if now <= 0:
            return 0.0
        busy = self.busy_time + self.in_use * (now - self._last_change)
        return busy / now

    def sync(self, now: Optional[float] = None) -> None:
        """Fold occupancy forward so ``busy_time`` is current."""
        self._account(now)

    def wait_pressure(self, now: Optional[float] = None) -> float:
        """Granted wait time plus the wait accrued by still-queued
        requests — the live congestion signal the adaptive router reads."""
        now = self.sim.now if now is None else now
        queued = sum(now - requested_at
                     for q in self._waiters
                     for _, _, requested_at in q)
        return self.total_wait_time + queued

    # -- acquisition ---------------------------------------------------------

    def acquire(self, sclass: int = 0) -> Event:
        if not 0 <= sclass < len(self.qos.classes):
            raise SimulationError(
                f"{self.name}: no service class {sclass} "
                f"(have {len(self.qos.classes)})")
        event = Event(self.sim, self._acquire_name)
        self._arrivals += 1
        self._waiters[sclass].append((self._arrivals, event, self.sim.now))
        self._kick()
        return event

    def release(self, sclass: int = 0, nbytes: int = 0) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle arbiter {self.name!r}")
        now = self.sim.now
        self._account(now)
        self.in_use = 0
        bucket = self._buckets[sclass]
        if bucket is not None and nbytes:
            bucket.charge(nbytes, now)
        if self.qos.arbiter == "wdrr" and nbytes:
            self._deficit[sclass] -= nbytes
        self._kick()

    # -- grant engine --------------------------------------------------------

    def _eligible(self, now: float) -> List[int]:
        out = []
        for index, q in enumerate(self._waiters):
            if not q:
                # An empty class banks no deficit (standard DRR).
                self._deficit[index] = 0.0
                continue
            bucket = self._buckets[index]
            if bucket is not None and not bucket.eligible(now):
                continue
            out.append(index)
        return out

    def _kick(self) -> None:
        if self.in_use:
            return
        now = self.sim.now
        eligible = self._eligible(now)
        if not eligible:
            self._arm_rate_timer(now)
            return
        policy = self.qos.arbiter
        if policy == "fifo":
            chosen = min(eligible,
                         key=lambda c: self._waiters[c][0][0])
        elif policy == "priority":
            chosen = min(eligible,
                         key=lambda c: (self.qos.classes[c].priority, c))
        else:
            chosen = self._pick_wdrr(eligible)
        _, event, requested_at = self._waiters[chosen].popleft()
        self._account(now)
        self.in_use = 1
        waited = now - requested_at
        self.total_acquisitions += 1
        self.total_wait_time += waited
        self.class_grants[chosen] += 1
        self.class_wait_ns[chosen] += waited
        event.trigger(waited)

    def _pick_wdrr(self, eligible: List[int]) -> int:
        n = len(self.qos.classes)
        quantum = self.qos.quantum_bytes
        for _ in range(2):
            for step in range(n):
                index = (self._rr + step) % n
                if index in eligible and self._deficit[index] > 0.0:
                    self._rr = index
                    return index
            # Nobody holds a positive deficit: one quantum round.
            for index in eligible:
                self._deficit[index] += \
                    self.qos.classes[index].weight * quantum
        return eligible[0]  # unreachable: the top-up made one positive

    def _arm_rate_timer(self, now: float) -> None:
        """All waiting classes are rate-blocked: wake at the earliest
        bucket refill and re-run the grant decision."""
        wake_at = None
        for index, q in enumerate(self._waiters):
            if not q:
                continue
            bucket = self._buckets[index]
            if bucket is None:
                continue
            self.class_rate_stalls[index] += 1
            at = bucket.eligible_at(now)
            if wake_at is None or at < wake_at:
                wake_at = at
        if wake_at is None or self._wake_pending:
            return
        self._wake_pending = True
        delay = max(0.0, wake_at - now)

        def waker():
            yield self.sim.timeout(delay)
            self._wake_pending = False
            self._kick()

        self.sim.process(waker())

    def _account(self, now: Optional[float] = None) -> None:
        now = self.sim.now if now is None else now
        self.busy_time += self.in_use * (now - self._last_change)
        self._last_change = now

    # -- reporting -----------------------------------------------------------

    def class_stats(self) -> Dict[str, Dict[str, float]]:
        return {tc.name: {"grants": self.class_grants[index],
                          "wait_ns": self.class_wait_ns[index],
                          "rate_stalls": self.class_rate_stalls[index]}
                for index, tc in enumerate(self.qos.classes)}


@dataclass(frozen=True)
class AdaptiveConfig:
    """When and how the router detours around congested output ports.

    Attributes:
        depth_threshold: an output whose arbiter queue holds at least this
            many waiting wormholes is congested.
        wait_slope: optional second signal — the output's wait-time growth
            rate (ns of queueing accrued per ns of simulated time) above
            which it is congested, measured between scans.
        check_interval_ns: minimum time between congestion scans; route
            requests between scans reuse the last verdict, which also
            bounds how often the route memo is invalidated.
    """

    depth_threshold: int = 4
    wait_slope: Optional[float] = None
    check_interval_ns: float = 2000.0

    def __post_init__(self):
        if self.depth_threshold < 1:
            raise ValueError("depth threshold must be >= 1")
        if self.wait_slope is not None and self.wait_slope <= 0:
            raise ValueError("wait slope must be positive")
        if self.check_interval_ns < 0:
            raise ValueError("check interval must be nonnegative")

    def to_dict(self) -> Dict[str, Any]:
        return {"depth_threshold": self.depth_threshold,
                "wait_slope": self.wait_slope,
                "check_interval_ns": self.check_interval_ns}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AdaptiveConfig":
        return cls(**data)


class AdaptiveRouter:
    """Congestion-aware source routing over a fabric's RouteTable.

    Exposes the same ``route_bytes(src, dst)`` surface as
    :class:`~repro.network.routing.RouteTable`, so a
    :class:`~repro.msg.api.CommWorld` can swap it in transparently.  On
    every route request (rate-limited by ``check_interval_ns``) it scans
    the crossbars' output arbiters, marks edges over threshold as
    *congested* through :meth:`RouteTable.set_congested_edges` — which
    invalidates the path memo exactly when the congested set changes —
    and lets the table's shortest-path search avoid them.  When avoidance
    disconnects a pair, the congestion marks are dropped and the message
    takes the congested shortest path instead of stalling.

    Whether avoidance can ever move a route is decided once, at
    construction: a port edge has a detour only if it lies on a cycle of
    the wiring graph.  On a fabric with none (one crossbar, a tree) every
    pair has one path, so the router never scans or marks, and each
    request is a plain table lookup.
    """

    def __init__(self, routes, fabric, config: AdaptiveConfig):
        self.routes = routes
        self.fabric = fabric
        self.config = config
        # reroutes: route requests that got a pair a path other than
        # its last one; fallbacks: pairs forced back onto a congested
        # path.
        self.stats = Counter("qos")
        fabric.sim.counters.append((self.stats, "qos", {}))
        self._paths: Dict[Tuple[Hashable, Hashable], List[int]] = {}
        self.scans = 0
        self._last_scan = -float("inf")
        self._last_wait: Dict[Tuple[str, int], Tuple[float, float]] = {}
        # (xbar name, out port) -> the directed wiring edge it drives.
        self._port_edges: Dict[Tuple[str, int],
                               Tuple[Hashable, Hashable]] = {}
        from repro.network.topology import xbar_key

        for name in fabric.crossbars:
            key = xbar_key(name)
            for _, there, attrs in fabric.graph.out_edges(key, data=True):
                port = attrs.get("out_port")
                if port is not None:
                    self._port_edges[(name, port)] = (key, there)
        self.has_detours = _has_cycle(fabric.graph)

    def route_bytes(self, src: Hashable, dst: Hashable) -> List[int]:
        from repro.network.routing import NoRouteError

        if self.has_detours:
            now = self.fabric.sim.now
            if now - self._last_scan >= self.config.check_interval_ns:
                self._apply_scan(now)
        try:
            path = self.routes.route_bytes(src, dst)
        except NoRouteError:
            if not self.routes.congested_edges:
                raise
            # Avoidance left this pair unreachable: better a congested
            # path than no path.
            self.stats.incr("fallbacks")
            self.routes.set_congested_edges(set())
            path = self.routes.route_bytes(src, dst)
        last = self._paths.get((src, dst))
        if last is not None and last != path:
            self.stats.incr("reroutes")
        self._paths[(src, dst)] = path
        return path

    def _apply_scan(self, now: float) -> None:
        congested = self._scan(now)
        self._last_scan = now
        self.routes.set_congested_edges(congested)

    def _scan(self, now: float) -> Set[Tuple[Hashable, Hashable]]:
        self.scans += 1
        congested: Set[Tuple[Hashable, Hashable]] = set()
        depth_threshold = self.config.depth_threshold
        slope_threshold = self.config.wait_slope
        for (name, port), edge in self._port_edges.items():
            arbiter = self.fabric.crossbars[name]._output_arbiters[port]
            hot = arbiter.queue_length >= depth_threshold
            if not hot and slope_threshold is not None:
                wait = (arbiter.wait_pressure(now)
                        if hasattr(arbiter, "wait_pressure")
                        else arbiter.total_wait_time)
                prev = self._last_wait.get((name, port))
                self._last_wait[(name, port)] = (wait, now)
                if prev is not None and now > prev[1]:
                    slope = (wait - prev[0]) / (now - prev[1])
                    hot = slope >= slope_threshold
            if hot:
                congested.add(edge)
        return congested


def _has_cycle(graph) -> bool:
    """Whether the wiring graph, read as undirected, has a cycle.

    An output-port edge has a detour exactly when it lies on such a
    cycle, and every cycle runs through a crossbar and so through one of
    its output-port edges.  Union-find over the undirected edges: an edge
    whose ends are already joined closes a cycle.
    """
    parent: Dict[Hashable, Hashable] = {}

    def root(v: Hashable) -> Hashable:
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    seen: Set[frozenset] = set()
    for u in graph.nodes:
        for v in graph.successors(u):
            edge = frozenset((u, v))
            if edge in seen:
                continue  # the other direction of a duplex link
            seen.add(edge)
            ru, rv = root(u), root(v)
            if ru == rv:
                return True
            parent[ru] = rv
    return False
