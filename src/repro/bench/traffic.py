"""Offered-load experiments on the crossbar network.

The paper's communication numbers are two-node microbenchmarks; a machine
with 128 nodes lives or dies by how the interconnect behaves under *load*.
This harness drives classic traffic patterns through a CommWorld:

* **permutation** — every node sends to a fixed distinct partner;
  crossbars see no output conflicts, so aggregate throughput should scale
  with node count (the "favorable blocking behavior" the paper claims for
  crossbar networks over meshes);
* **random** — destinations drawn uniformly; transient output conflicts
  appear but the 16x16 crossbar absorbs them;
* **hotspot** — everyone sends to node 0; the single output port and the
  one receive FIFO bound aggregate throughput at one link's rate, however
  many senders pile on.

Beyond the fixed patterns, the offered-load harness (:func:`run_load`)
drives seeded open- or closed-loop traffic mixes — uniform background,
hotspot, synchronized incast, bursty on/off — per service class, and
reports offered load vs goodput and the latency p50/p99 per class.  Its
point task (:func:`traffic_point_task`) runs under
:func:`~repro.parallel.sweep.run_sweep`, so load sweeps parallelise with
``--jobs N == --jobs 1`` byte-identity and hit the result cache.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.msg.api import CommWorld
from repro.network.qos import QosConfig
from repro.sim.resources import Signal


@dataclass(frozen=True)
class TrafficResult:
    """One pattern's outcome.

    Attributes:
        pattern: pattern name.
        nodes: participating node count.
        messages: total messages delivered.
        message_bytes: payload size used.
        elapsed_ns: first send to last delivery.
        aggregate_mb_s: total delivered payload over elapsed time.
        collisions: output-port conflicts observed in the crossbars.
    """

    pattern: str
    nodes: int
    messages: int
    message_bytes: int
    elapsed_ns: float
    aggregate_mb_s: float
    collisions: int

    @property
    def per_node_mb_s(self) -> float:
        return self.aggregate_mb_s / self.nodes if self.nodes else 0.0


def _destinations(pattern: str, nodes: Sequence[int], rounds: int,
                  seed: int) -> List[List[int]]:
    """Per-round destination of every node."""
    rng = random.Random(seed)
    plan: List[List[int]] = []
    n = len(nodes)
    for round_index in range(rounds):
        if pattern == "permutation":
            shift = (round_index % (n - 1)) + 1
            plan.append([nodes[(i + shift) % n] for i in range(n)])
        elif pattern == "random":
            row = []
            for i in range(n):
                choices = [d for d in nodes if d != nodes[i]]
                row.append(rng.choice(choices))
            plan.append(row)
        elif pattern == "hotspot":
            target = nodes[0]
            plan.append([target if nodes[i] != target else nodes[1]
                         for i in range(n)])
        else:
            raise ValueError(f"unknown pattern {pattern!r}")
    return plan


def _delivery_timestamp(message, now: float) -> float:
    """When ``message`` arrived, falling back to ``now`` only when the
    driver never stamped it.

    The check must be ``is None``: a delivery at simulated time ``0.0``
    is a legitimate timestamp, and the truthiness idiom
    (``delivered_at or now``) silently replaces it, inflating elapsed
    time.
    """
    return message.delivered_at if message.delivered_at is not None else now


def _crossbar_collisions(world: CommWorld) -> int:
    return sum(xbar.stats["collisions"]
               for xbar in world.fabric.crossbars.values())


def run_pattern(world: CommWorld, pattern: str, message_bytes: int = 1024,
                rounds: int = 4, seed: int = 7,
                nodes: Optional[Sequence[int]] = None) -> TrafficResult:
    """Drive one pattern to completion and measure aggregate throughput."""
    sim = world.sim
    nodes = list(nodes if nodes is not None else world.fabric.node_ids())
    if len(nodes) < 2:
        raise ValueError("traffic needs at least two nodes")
    plan = _destinations(pattern, nodes, rounds, seed)

    expected: Dict[int, int] = {node: 0 for node in nodes}
    for row in plan:
        for dst in row:
            expected[dst] += 1

    start = sim.now
    # Snapshot so a shared world running several patterns reports each
    # pattern's collisions independently rather than a running total.
    collisions_before = _crossbar_collisions(world)
    deliveries: List[float] = []

    def receiver(node: int, count: int):
        for _ in range(count):
            message = yield world.recv(node)
            deliveries.append(_delivery_timestamp(message, sim.now))

    receiver_procs = [sim.process(receiver(node, count))
                      for node, count in expected.items() if count]

    def sender(node_index: int):
        node = nodes[node_index]
        for row in plan:
            yield sim.process(
                world.endpoint(node).driver.send_message(
                    world.make_message(node, row[node_index],
                                       message_bytes)))

    for index in range(len(nodes)):
        sim.process(sender(index))
    sim.run()
    unfinished = [p for p in receiver_procs if not p.finished]
    if unfinished:
        raise AssertionError(
            f"{pattern}: {len(unfinished)} receivers never finished")

    elapsed = max(deliveries) - start if deliveries else 0.0
    total = len(deliveries)
    total_bytes = total * message_bytes
    aggregate = total_bytes * 1e3 / elapsed if elapsed > 0 else 0.0
    collisions = _crossbar_collisions(world) - collisions_before
    return TrafficResult(pattern=pattern, nodes=len(nodes), messages=total,
                         message_bytes=message_bytes, elapsed_ns=elapsed,
                         aggregate_mb_s=aggregate, collisions=collisions)


def pattern_comparison(make_world, message_bytes: int = 1024,
                       rounds: int = 4) -> Dict[str, TrafficResult]:
    """Run all three patterns, each on a fresh world from ``make_world``."""
    results = {}
    for pattern in ("permutation", "random", "hotspot"):
        world = make_world()
        results[pattern] = run_pattern(world, pattern,
                                       message_bytes=message_bytes,
                                       rounds=rounds)
    return results


# -- offered-load / QoS harness ------------------------------------------------

LOAD_PATTERNS = ("uniform", "hotspot", "incast", "permutation", "bursty")

#: What a traffic load point imports — the sweep-cache fingerprint set.
TRAFFIC_SWEEP_MODULES = ("repro.sim", "repro.network", "repro.ni",
                         "repro.msg", "repro.faults", "repro.obs",
                         "repro.bench.traffic")


@dataclass(frozen=True)
class ClassTraffic:
    """How one service class loads the fabric.

    Attributes:
        pattern: destination/arrival shape — ``uniform`` (Poisson
            arrivals, uniform destinations), ``hotspot`` (Poisson to node
            0, the target stays a pure sink), ``incast`` (synchronized
            waves from every other node into node 0), ``permutation``
            (deterministic arrivals to a rotating conflict-free partner),
            ``bursty`` (on/off: line-rate bursts of ``burst_len``
            messages to uniform destinations).
        fraction: this class's share of the offered load.
        burst_len: messages per burst (``bursty`` only).
        senders: which nodes inject this class — ``all``, ``even`` or
            ``odd`` (by node-list index).  Disjoint sender sets isolate
            the output arbiter: a wormhole can never head-of-line block
            behind its own node's other-class traffic, so any p99
            difference between policies is pure arbitration.
    """

    pattern: str = "uniform"
    fraction: float = 1.0
    burst_len: int = 8
    senders: str = "all"

    def __post_init__(self):
        if self.pattern not in LOAD_PATTERNS:
            raise ValueError(f"unknown load pattern {self.pattern!r}; "
                             f"choose from {LOAD_PATTERNS}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], "
                             f"got {self.fraction}")
        if self.burst_len < 1:
            raise ValueError("burst_len must be >= 1")
        if self.senders not in ("all", "even", "odd"):
            raise ValueError(f"senders must be all/even/odd, "
                             f"got {self.senders!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {"pattern": self.pattern, "fraction": self.fraction,
                "burst_len": self.burst_len, "senders": self.senders}

    def sender_nodes(self, nodes: Sequence[int]) -> List[int]:
        if self.senders == "even":
            return [node for i, node in enumerate(nodes) if i % 2 == 0]
        if self.senders == "odd":
            return [node for i, node in enumerate(nodes) if i % 2 == 1]
        return list(nodes)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClassTraffic":
        return cls(**data)


def parse_classes(text: str):
    """``urgent:prio=0:weight=4,bulk:prio=1:rate=30:burst=4096`` into the
    :class:`~repro.network.qos.TrafficClass` tuple a QosConfig wants."""
    from repro.network.qos import TrafficClass

    classes = []
    for part in text.split(","):
        fields = part.strip().split(":")
        name = fields[0]
        if not name:
            raise ValueError(f"empty class name in {text!r}")
        kwargs: Dict[str, Any] = {}
        for spec in fields[1:]:
            key, _, value = spec.partition("=")
            if key in ("prio", "priority"):
                kwargs["priority"] = int(value)
            elif key == "weight":
                kwargs["weight"] = int(value)
            elif key == "rate":
                kwargs["rate_mb_s"] = float(value)
            elif key == "burst":
                kwargs["burst_bytes"] = int(value)
            else:
                raise ValueError(f"unknown class field {key!r} "
                                 f"(use prio/weight/rate/burst)")
        classes.append(TrafficClass(name, **kwargs))
    return tuple(classes)


def parse_mix(text: str) -> Dict[str, ClassTraffic]:
    """``urgent=incast:0.2:odd,bulk=hotspot:0.8:even`` — per class
    ``pattern[:fraction[:senders[:burst_len]]]``."""
    mix: Dict[str, ClassTraffic] = {}
    for part in text.split(","):
        name, sep, rest = part.strip().partition("=")
        if not sep or not name:
            raise ValueError(f"mix entry {part!r} is not name=pattern[...]")
        fields = rest.split(":")
        kwargs: Dict[str, Any] = {"pattern": fields[0]}
        if len(fields) > 1 and fields[1]:
            kwargs["fraction"] = float(fields[1])
        if len(fields) > 2 and fields[2]:
            kwargs["senders"] = fields[2]
        if len(fields) > 3 and fields[3]:
            kwargs["burst_len"] = int(fields[3])
        mix[name] = ClassTraffic(**kwargs)
    return mix


def parse_loads(text: str) -> List[float]:
    """``0.2,0.5,0.8`` (list) or ``0.2:0.8:0.2`` (start:stop:step,
    stop-inclusive)."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if step <= 0:
            raise ValueError("load sweep step must be positive")
        loads, value = [], start
        while value <= stop + 1e-9:
            loads.append(round(value, 9))
            value += step
        return loads
    return [float(x) for x in text.split(",")]


def default_mix(qos: QosConfig) -> Dict[str, ClassTraffic]:
    """Uniform traffic split evenly across the classes."""
    share = 1.0 / len(qos.classes)
    return {tc.name: ClassTraffic(pattern="uniform", fraction=share)
            for tc in qos.classes}


def build_injection_plan(nodes: Sequence[int], qos: QosConfig,
                         mix: Dict[str, ClassTraffic], load: float,
                         message_bytes: int, messages: int, seed: int,
                         link_mb_s: float = 60.0,
                         ) -> List[Tuple[float, int, int, int]]:
    """The full open-loop injection schedule: ``(t, src, dst, sclass)``.

    Precomputed before simulation so receiver counts are known up front
    and a run is a pure function of ``(plan, world)`` — the property the
    sweep cache and the ``--jobs N`` byte-identity contract rest on.

    ``load`` is the per-node offered fraction of one link's line rate
    (``link_mb_s``); each class injects ``load * fraction`` of that from
    every participating sender, with ``max(1, round(messages *
    fraction))`` messages per sender.
    """
    if not 0.0 < load <= 4.0:
        raise ValueError(f"load must be in (0, 4], got {load}")
    if len(nodes) < 2:
        raise ValueError("load traffic needs at least two nodes")
    rng = random.Random(seed)
    n = len(nodes)
    line_rate = link_mb_s * 1e-3  # bytes/ns per node
    plan: List[Tuple[float, int, int, int]] = []
    for sclass, tc in enumerate(qos.classes):
        ct = mix.get(tc.name)
        if ct is None:
            raise KeyError(f"mix is missing class {tc.name!r}")
        count = max(1, round(messages * ct.fraction))
        interval = message_bytes / (load * ct.fraction * line_rate)
        senders = ct.sender_nodes(nodes)
        if ct.pattern == "permutation":
            m = len(senders)
            if m < 2:
                raise ValueError("permutation needs >= 2 senders")
            for k in range(count):
                shift = (k % (m - 1)) + 1
                t = k * interval
                for i, src in enumerate(senders):
                    plan.append((t, src, senders[(i + shift) % m], sclass))
        elif ct.pattern == "incast":
            target = nodes[0]
            for k in range(count):
                t = k * interval
                for src in senders:
                    if src != target:
                        plan.append((t, src, target, sclass))
        elif ct.pattern == "hotspot":
            target = nodes[0]
            for src in senders:
                if src == target:
                    continue
                t = 0.0
                for _ in range(count):
                    t += rng.expovariate(1.0 / interval)
                    plan.append((t, src, target, sclass))
        elif ct.pattern == "bursty":
            gap = ct.burst_len * interval
            wire_gap = message_bytes / line_rate  # line-rate spacing
            for src in senders:
                others = [d for d in nodes if d != src]
                t = 0.0
                sent = 0
                while sent < count:
                    t += rng.expovariate(1.0 / gap)
                    for b in range(min(ct.burst_len, count - sent)):
                        plan.append((t + b * wire_gap, src,
                                     rng.choice(others), sclass))
                    sent += min(ct.burst_len, count - sent)
        else:  # uniform
            for src in senders:
                others = [d for d in nodes if d != src]
                t = 0.0
                for _ in range(count):
                    t += rng.expovariate(1.0 / interval)
                    plan.append((t, src, rng.choice(others), sclass))
    plan.sort(key=lambda entry: (entry[0], entry[1], entry[3]))
    return plan


def _percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an already-sorted sample set."""
    if not sorted_samples:
        return 0.0
    rank = max(1, -(-int(q * 100) * len(sorted_samples) // 100))
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


@dataclass(frozen=True)
class ClassLoadResult:
    """One service class's share of a load point."""

    name: str
    messages: int
    offered_mb_s: float
    goodput_mb_s: float
    latency_p50_ns: float
    latency_p99_ns: float
    latency_mean_ns: float
    rate_stalls: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "messages": self.messages,
                "offered_mb_s": self.offered_mb_s,
                "goodput_mb_s": self.goodput_mb_s,
                "latency_p50_ns": self.latency_p50_ns,
                "latency_p99_ns": self.latency_p99_ns,
                "latency_mean_ns": self.latency_mean_ns,
                "rate_stalls": self.rate_stalls}


@dataclass(frozen=True)
class LoadResult:
    """One (arbiter, load) point of the offered-load surface."""

    arbiter: str
    load: float
    nodes: int
    message_bytes: int
    messages: int
    elapsed_ns: float
    collisions: int
    reroutes: int
    fallbacks: int
    classes: Tuple[ClassLoadResult, ...]

    @property
    def goodput_mb_s(self) -> float:
        return sum(c.goodput_mb_s for c in self.classes)

    def to_dict(self) -> Dict[str, Any]:
        return {"arbiter": self.arbiter, "load": self.load,
                "nodes": self.nodes, "message_bytes": self.message_bytes,
                "messages": self.messages, "elapsed_ns": self.elapsed_ns,
                "collisions": self.collisions, "reroutes": self.reroutes,
                "fallbacks": self.fallbacks,
                "goodput_mb_s": self.goodput_mb_s,
                "classes": [c.to_dict() for c in self.classes]}


def run_load(world: CommWorld, qos: Optional[QosConfig] = None,
             mix: Optional[Dict[str, ClassTraffic]] = None,
             load: float = 0.5, messages: int = 32,
             message_bytes: int = 1024, seed: int = 7,
             closed_loop: bool = False, window: int = 4,
             link_mb_s: float = 60.0) -> LoadResult:
    """Drive one offered-load point to completion and measure per class.

    Open loop (default): every message is injected at its planned time
    (or as soon as the node's driver frees up — source queueing counts
    against latency, which is what makes the goodput-vs-offered knee
    visible).  Closed loop: planned times only order the work; each node
    self-clocks with at most ``window`` undelivered messages in flight.

    ``qos`` describes the classes for plan/bookkeeping purposes even when
    the world was built without classed arbiters (legacy fifo path).
    """
    sim = world.sim
    qos = qos or QosConfig()
    mix = mix or default_mix(qos)
    if window < 1:
        raise ValueError("window must be >= 1")
    nodes = world.node_ids()
    plan = build_injection_plan(nodes, qos, mix, load, message_bytes,
                                messages, seed, link_mb_s=link_mb_s)

    by_src: Dict[int, List[Tuple[float, int, int]]] = {}
    expected: Dict[int, int] = {}
    for t, src, dst, sclass in plan:
        by_src.setdefault(src, []).append((t, dst, sclass))
        expected[dst] = expected.get(dst, 0) + 1

    start = sim.now
    collisions_before = _crossbar_collisions(world)
    n_classes = len(qos.classes)
    latencies: List[List[float]] = [[] for _ in range(n_classes)]
    delivered_bytes = [0] * n_classes
    delivered_counts = {node: 0 for node in nodes}
    last_delivery = start
    credit = {node: Signal(sim, name=f"credit.n{node}") for node in nodes}

    def receiver(node: int, count: int):
        nonlocal last_delivery
        for _ in range(count):
            message = yield world.recv(node)
            sclass, injected_at = message.tag
            arrived = _delivery_timestamp(message, sim.now)
            latencies[sclass].append(arrived - injected_at)
            delivered_bytes[sclass] += message.payload_bytes
            last_delivery = max(last_delivery, arrived)
            delivered_counts[message.source] += 1
            credit[message.source].fire()

    receiver_procs = [sim.process(receiver(node, count))
                      for node, count in sorted(expected.items()) if count]

    def open_sender(node: int, entries):
        driver = world.endpoint(node).driver
        for t, dst, sclass in entries:
            if sim.now < t:
                yield sim.timeout(t - sim.now)
            message = world.make_message(node, dst, message_bytes,
                                         tag=(sclass, t), sclass=sclass)
            yield sim.process(driver.send_message(message))

    def closed_sender(node: int, entries):
        driver = world.endpoint(node).driver
        sent = 0
        for _, dst, sclass in entries:
            while sent - delivered_counts[node] >= window:
                yield credit[node].wait()
            message = world.make_message(node, dst, message_bytes,
                                         tag=(sclass, sim.now),
                                         sclass=sclass)
            yield sim.process(driver.send_message(message))
            sent += 1

    sender = closed_sender if closed_loop else open_sender
    for node in sorted(by_src):
        sim.process(sender(node, by_src[node]))
    sim.run()
    unfinished = [p for p in receiver_procs if not p.finished]
    if unfinished:
        raise AssertionError(
            f"load run: {len(unfinished)} receivers never finished")

    elapsed = last_delivery - start
    horizon = max((entry[0] for entry in plan), default=0.0)
    rate_stalls = [0] * n_classes
    for xbar in world.fabric.crossbars.values():
        if getattr(xbar, "_classed", False):
            for arbiter in xbar._output_arbiters:
                for index in range(n_classes):
                    rate_stalls[index] += arbiter.class_rate_stalls[index]
    class_results = []
    for index, tc in enumerate(qos.classes):
        samples = sorted(latencies[index])
        goodput = (delivered_bytes[index] * 1e3 / elapsed
                   if elapsed > 0 else 0.0)
        planned = sum(1 for entry in plan if entry[3] == index)
        offered = (planned * message_bytes * 1e3 / horizon
                   if horizon > 0 and not closed_loop else goodput)
        class_results.append(ClassLoadResult(
            name=tc.name, messages=len(samples),
            offered_mb_s=offered, goodput_mb_s=goodput,
            latency_p50_ns=_percentile(samples, 0.50),
            latency_p99_ns=_percentile(samples, 0.99),
            latency_mean_ns=(sum(samples) / len(samples)
                             if samples else 0.0),
            rate_stalls=rate_stalls[index]))
    # Only an AdaptiveRouter reroutes; a plain RouteTable counts nothing.
    routing = getattr(world.router, "stats", None)
    return LoadResult(
        arbiter=(qos.arbiter if world.fabric.crossbars and
                 next(iter(world.fabric.crossbars.values()))._classed
                 else "fifo"),
        load=load, nodes=len(nodes), message_bytes=message_bytes,
        messages=len(plan), elapsed_ns=elapsed,
        collisions=_crossbar_collisions(world) - collisions_before,
        reroutes=routing["reroutes"] if routing else 0,
        fallbacks=routing["fallbacks"] if routing else 0,
        classes=tuple(class_results))


def traffic_point_task(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One load point as a sweep task (module-level: pools pickle it).

    ``config`` is plain data (canonical dicts) so the sweep cache
    fingerprint is stable: ``topology`` (TopologySpec dict), ``load``,
    ``messages``, ``message_bytes``, optional ``qos`` (QosConfig dict,
    None = legacy fifo arbiters), ``mix`` ({class: ClassTraffic dict}),
    ``adaptive`` (AdaptiveConfig dict), ``fault_plan``, ``closed_loop``,
    ``window``, ``fifo_words``.
    """
    from repro.msg.api import build_topology_world
    from repro.network.crossbar import CrossbarConfig
    from repro.network.qos import AdaptiveConfig
    from repro.network.topo import TopologySpec

    plan_dict = config.get("fault_plan")
    if plan_dict is not None:
        from repro.faults import FaultPlan, inject

        fault_ctx = inject(FaultPlan.from_dict(plan_dict).with_seed(seed))
    else:
        fault_ctx = contextlib.nullcontext()
    with fault_ctx:
        spec = TopologySpec.from_dict(config["topology"])
        if spec.fidelity != "flit":
            raise ValueError("load traffic needs a flit-fidelity topology")
        qos_dict = config.get("qos")
        qos = QosConfig.from_dict(qos_dict) if qos_dict else None
        crossbar_config = (CrossbarConfig(qos=qos) if qos is not None
                           else CrossbarConfig())
        _, world = build_topology_world(
            spec, fifo_words=config.get("fifo_words", 32),
            crossbar_config=crossbar_config)
        adaptive_dict = config.get("adaptive")
        if adaptive_dict is not None:
            world.enable_adaptive(AdaptiveConfig.from_dict(adaptive_dict))
        mix = {name: ClassTraffic.from_dict(d)
               for name, d in (config.get("mix") or {}).items()} or None
        result = run_load(
            world, qos=qos, mix=mix, load=config["load"],
            messages=config.get("messages", 32),
            message_bytes=config.get("message_bytes", 1024),
            seed=seed, closed_loop=config.get("closed_loop", False),
            window=config.get("window", 4),
            link_mb_s=config.get("link_mb_s", 60.0))
    return result.to_dict()


def load_sweep(spec, loads: Sequence[float],
               qos: Optional[QosConfig] = None,
               mix: Optional[Dict[str, ClassTraffic]] = None,
               messages: int = 32, message_bytes: int = 1024,
               seed: int = 7, closed_loop: bool = False, window: int = 4,
               adaptive=None, fault_plan=None, fifo_words: int = 32,
               jobs: int = 1, cache=None, supervise=None,
               ) -> List[Dict[str, Any]]:
    """The offered-load surface: one :func:`run_load` point per load.

    Runs under :func:`~repro.parallel.sweep.run_sweep`, so points fan out
    over ``jobs`` workers, consult ``cache``, and are byte-identical to a
    serial run.
    """
    from repro.parallel.sweep import run_sweep, sweep_values

    spec_dict = spec.to_dict()
    qos_dict = qos.to_dict() if qos is not None else None
    mix_dict = ({name: ct.to_dict() for name, ct in mix.items()}
                if mix is not None else None)
    adaptive_dict = adaptive.to_dict() if adaptive is not None else None
    plan_dict = fault_plan.to_dict() if fault_plan is not None else None
    points = []
    for load in loads:
        config = {"topology": spec_dict, "load": load,
                  "messages": messages, "message_bytes": message_bytes,
                  "qos": qos_dict, "mix": mix_dict,
                  "adaptive": adaptive_dict, "fault_plan": plan_dict,
                  "closed_loop": closed_loop, "window": window,
                  "fifo_words": fifo_words}
        points.append((("load", load), config))
    outcomes = run_sweep("traffic:load", points, traffic_point_task,
                         jobs=jobs, cache=cache,
                         modules=TRAFFIC_SWEEP_MODULES,
                         seed_base=seed, supervise=supervise)
    return sweep_values(outcomes)
