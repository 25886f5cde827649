"""The chaos experiment harness: plan + seed -> reproducible fault run.

One :func:`run_chaos` call builds a topology, arms the fault engine with
the plan, schedules the hard faults through a :class:`FaultController`,
drives a deterministic traffic pattern over a reliable protocol (sliding
window by default, stop-and-wait for comparison) and reports goodput,
latency and recovery behaviour.  Same plan + same seed => bit-identical
report and metrics — the property ``tests/faults/test_chaos_smoke.py``
asserts.

The module imports the topology and protocol layers, so it must *not* be
imported from ``repro.faults.__init__`` (the injection hooks live below
those layers); use ``from repro.faults.chaos import run_chaos``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults import FaultEngine, FaultPlan, inject
from repro.faults.controller import FaultController
from repro.msg.api import CommWorld, build_topology_world
from repro.msg.reliable import (
    DeliveryError,
    ReliableChannel,
    ReliableConfig,
)
from repro.msg.sliding_window import SlidingWindowChannel, SlidingWindowConfig
from repro.network.routing import NoRouteError
from repro.network.topo import parse_topology
from repro.network.topology import grid_spec, manna_spec
from repro.sim.engine import Simulator

#: The scaled-down Figure-5b systems chaos runs name directly.
CHAOS_ALIASES = {"manna": manna_spec(4, 4), "grid": grid_spec(2, 2, 4)}
TOPOLOGIES = ("cluster",) + tuple(CHAOS_ALIASES)
PROTOCOLS = ("sliding", "stopwait")


@dataclass
class ChaosReport:
    """What one chaos run produced (all fields deterministic)."""

    topology: str
    protocol: str
    seed: int
    flows: List[Tuple[int, int]]
    messages_per_flow: int
    nbytes: int
    delivered: int
    undelivered: int
    duration_ns: float
    goodput_mb_s: float
    channel_stats: Dict[str, float]
    fault_stats: Dict[str, float]
    applied: List[tuple] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return len(self.flows) * self.messages_per_flow

    def to_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "protocol": self.protocol,
            "seed": self.seed,
            "flows": [list(pair) for pair in self.flows],
            "messages_per_flow": self.messages_per_flow,
            "nbytes": self.nbytes,
            "delivered": self.delivered,
            "undelivered": self.undelivered,
            "duration_ns": self.duration_ns,
            "goodput_mb_s": self.goodput_mb_s,
            "channel_stats": dict(self.channel_stats),
            "fault_stats": dict(self.fault_stats),
            "applied": [list(entry) for entry in self.applied],
            "failures": list(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_chaos_world(topology: str = "cluster") -> Tuple[Simulator,
                                                          CommWorld]:
    """A fresh simulator + CommWorld on a chaos topology.

    ``manna`` and ``grid`` name scaled-down Figure-5b systems (16 nodes)
    so a chaos run stays fast while still exercising multi-crossbar
    routes with path diversity to reroute over.  Anything else is handed
    to :func:`repro.network.topo.parse_topology` (``cluster``,
    ``hypercube:dimensions=4``, inline JSON, a spec file), restricted to
    flit fidelity — fault injection needs the real discrete-event
    components to break.
    """
    spec = CHAOS_ALIASES.get(topology)
    if spec is None:
        try:
            spec = parse_topology(topology)
        except ValueError as exc:
            raise ValueError(
                f"unknown chaos topology {topology!r}: {exc}; choose from "
                f"{TOPOLOGIES} or pass a topology spec") from None
    if spec.fidelity != "flit":
        raise ValueError(
            f"chaos needs flit fidelity (got {spec.fidelity!r}): fault "
            f"injection breaks simulated components, which the flow "
            f"tier does not build")
    return build_topology_world(spec)


def default_flows(world: CommWorld, flows: int) -> List[Tuple[int, int]]:
    """Deterministic cross-system flow pattern: the most distant
    *reachable* pairs first.

    Starting from the node-distance n/2 and shrinking forces flows
    through the spine (or row/column) crossbars where the interesting
    failures live, while skipping pairs the plane cannot connect at all
    (on the grid topology plane 0 only joins same-row clusters — the
    paper's argument against that reading of Figure 5b).
    """
    from repro.network.topology import node_key

    nodes = world.fabric.node_ids()
    pairs: List[Tuple[int, int]] = []
    for offset in range(max(1, len(nodes) // 2), 0, -1):
        for i in range(len(nodes)):
            src = nodes[i]
            dst = nodes[(i + offset) % len(nodes)]
            if src == dst:
                continue
            try:
                world.routes.path(node_key(src, world.plane),
                                  node_key(dst, world.plane))
            except NoRouteError:
                continue
            pairs.append((src, dst))
            if len(pairs) == flows:
                return pairs
    if not pairs:
        raise NoRouteError("no reachable node pairs on this plane")
    while len(pairs) < flows:  # tiny systems: reuse pairs round-robin
        pairs.append(pairs[len(pairs) % len(pairs)])
    return pairs


def run_chaos(plan: FaultPlan,
              topology: str = "cluster",
              protocol: str = "sliding",
              flows: int = 4,
              messages: int = 8,
              nbytes: int = 1024,
              window: int = 8,
              error_rate: float = 0.0,
              ack_error_rate: Optional[float] = None) -> ChaosReport:
    """Run one chaos experiment to completion and report.

    ``error_rate`` is the protocol-level injector (corruption drawn at the
    sender, as the goodput benchmarks use); ``ack_error_rate`` optionally
    decouples the reverse path (``None`` mirrors ``error_rate``), which
    combined with a scheduled plan fault exercises Karn's rule during a
    reroute; the *plan* drives the cross-layer hooks (links, crossbars,
    transceivers, NIs, drivers).  All are active at once so the injection
    paths compose.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    sim, world = build_chaos_world(topology)
    pairs = default_flows(world, flows)
    engine = FaultEngine(plan)
    outcomes: List[tuple] = []

    with inject(engine):
        controller = FaultController(sim, engine, world.fabric,
                                     [world.routes])
        if protocol == "sliding":
            channel = SlidingWindowChannel(world, SlidingWindowConfig(
                window=window, error_rate=error_rate,
                ack_error_rate=ack_error_rate, seed=plan.seed))
        else:
            channel = ReliableChannel(world, ReliableConfig(
                error_rate=error_rate, ack_error_rate=ack_error_rate,
                seed=plan.seed))

        def outcome_proc(src: int, dst: int):
            # Inline the protocol generator so its DeliveryError (or a
            # routing dead end) is caught here instead of crashing the
            # simulation loop.
            try:
                if protocol == "sliding":
                    result = yield channel.send_outcome(src, dst, nbytes)
                else:
                    seq = yield from channel._send(src, dst, nbytes)
                    result = ("ok", seq)
            except (DeliveryError, NoRouteError) as exc:
                result = ("failed", exc)
            return (src, dst, result)

        def harness():
            procs = []
            for _ in range(messages):
                for src, dst in pairs:
                    procs.append(sim.process(outcome_proc(src, dst)))
            for proc in procs:
                outcomes.append((yield proc))

        sim.run_until_complete(sim.process(harness()))

    delivered = sum(1 for _, _, (status, _) in outcomes if status == "ok")
    failures = [f"{src}->{dst}: {value}"
                for src, dst, (status, value) in outcomes
                if status != "ok"]
    duration = sim.now
    goodput = (delivered * nbytes * 1e3 / duration) if duration > 0 else 0.0
    return ChaosReport(
        topology=topology,
        protocol=protocol,
        seed=plan.seed,
        flows=pairs,
        messages_per_flow=messages,
        nbytes=nbytes,
        delivered=delivered,
        undelivered=len(outcomes) - delivered,
        duration_ns=duration,
        goodput_mb_s=goodput,
        channel_stats=channel.stats.as_dict(),
        fault_stats=engine.stats.as_dict(),
        applied=list(controller.applied),
        failures=failures,
    )


def format_report(report: ChaosReport) -> str:
    """Human-readable chaos summary for the CLI."""
    lines = [
        f"chaos run: {report.topology} topology, {report.protocol} protocol,"
        f" seed {report.seed}",
        f"  traffic   : {len(report.flows)} flows x "
        f"{report.messages_per_flow} x {report.nbytes} B",
        f"  delivered : {report.delivered}/{report.total_messages}"
        f" ({report.undelivered} undelivered)",
        f"  duration  : {report.duration_ns / 1e6:.3f} ms",
        f"  goodput   : {report.goodput_mb_s:.2f} MB/s",
    ]
    stats = report.channel_stats
    for key in ("retransmissions", "timeouts", "reroutes", "link_down",
                "discarded", "duplicates"):
        if stats.get(key):
            lines.append(f"  {key:<10}: {stats[key]:g}")
    if report.fault_stats:
        injected = ", ".join(f"{k}={v:g}" for k, v in
                             sorted(report.fault_stats.items()))
        lines.append(f"  faults    : {injected}")
        total = sum(report.fault_stats.values())
        lines.append(f"  fault events: {total:g} total")
    if report.applied:
        for entry in report.applied:
            lines.append(f"  applied   : {entry}")
    if report.failures:
        for failure in report.failures[:8]:
            lines.append(f"  FAILED    : {failure}")
        if len(report.failures) > 8:
            lines.append(f"  ... {len(report.failures) - 8} more failures")
    return "\n".join(lines)
