"""The EARTH runtime: one EU + SU pair per PowerMANNA node.

Mechanics per node:

* the **EU process** pops ready fibers, charges their simulated work time,
  runs the body, and hands the resulting operations to the outbox;
* the **outbox process** drives the PIO link driver, one short message per
  remote operation (local operations are applied immediately by the EU);
* the **SU process** receives network messages and applies their semantic:
  deposit a value, count down a sync slot, enqueue a spawned fiber, or
  serve a remote load by sending the reply.

Values move for real (frames and node memories are Python dicts), so EARTH
programs in the examples compute real answers while the discrete-event
clock prices every hop through the crossbar network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.earth.fibers import Fiber, SyncSlot
from repro.earth.operations import (
    DataSync,
    LocalSignal,
    Operation,
    RemoteLoad,
    RemoteStore,
    Spawn,
    _LoadReply,
)
from repro.msg.api import CommWorld, build_cluster_world
from repro.ni.driver import DriverConfig
from repro.obs import OBS
from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import FifoStore
from repro.sim.stats import Counter, Histogram


@dataclass(frozen=True)
class EarthConfig:
    """Runtime costs.

    EARTH messages are tiny and pre-matched (a slot address travels with
    the data), so the per-operation software cost is far below an MPI
    send; ``op_setup_ns`` reflects the EARTH-MANNA measurements of ref
    [18] scaled to the PowerMANNA link interface.
    """

    fiber_dispatch_ns: float = 150.0   # pop + frame pointer setup
    op_issue_ns: float = 120.0         # EU -> outbox hand-off per operation
    su_handle_ns: float = 250.0        # SU work per inbound message
    driver: DriverConfig = DriverConfig(
        send_setup_ns=350.0,           # no matching, no header build: a
        recv_dispatch_ns=300.0,        # slot-addressed active message
        copy_out_mb_s=120.0,
        copy_in_mb_s=90.0,
    )

    def __post_init__(self):
        if min(self.fiber_dispatch_ns, self.op_issue_ns,
               self.su_handle_ns) < 0:
            raise ValueError("runtime costs must be nonnegative")


class EarthNode:
    """EU + SU + outbox over one node's link interface."""

    def __init__(self, machine: "EarthMachine", node_id: int):
        self.machine = machine
        self.node_id = node_id
        self.sim = machine.sim
        self.config = machine.config
        self.memory: Dict[int, Any] = {}
        self.ready = FifoStore(self.sim, name=f"earth{node_id}.ready")
        self.outbox = FifoStore(self.sim, name=f"earth{node_id}.outbox")
        self.stats = Counter(f"earth{node_id}")
        self.sim.counters.append((self.stats, "earth", {"node": node_id}))
        self.fiber_latency = Histogram(f"earth{node_id}.fiber_ns")
        self.sim.counters.append((self.fiber_latency, "earth_fiber",
                                  {"node": node_id}))
        self.sim.process(self._execution_unit())
        self.sim.process(self._outbox_pump())
        self.sim.process(self._synchronization_unit())

    # -- program-facing API -----------------------------------------------------

    def enqueue(self, fiber: Fiber) -> None:
        """Make a fiber ready on this node (local spawn)."""
        if not self.ready.try_put(fiber):
            raise SimulationError("unbounded ready queue refused a fiber")
        self.stats.incr("fibers_enqueued")

    def signal(self, slot: SyncSlot) -> None:
        """Count down a local sync slot; enqueue its fiber when released."""
        fiber = slot.signal()
        self.stats.incr("sync_signals")
        if fiber is not None:
            self.enqueue(fiber)

    # -- the three engine processes -----------------------------------------------

    def _execution_unit(self):
        config = self.config
        while True:
            fiber = yield self.ready.get()
            started = self.sim.now
            fiber_span = 0
            if OBS.enabled:
                fiber_span = OBS.tracer.begin(
                    "earth.fiber", f"earth{self.node_id}", started,
                    category="earth",
                    fiber=fiber.label or fiber.body.__name__)
            yield self.sim.timeout(config.fiber_dispatch_ns + fiber.work_ns)
            operations = fiber.run(self)
            for op in operations:
                yield self.sim.timeout(config.op_issue_ns)
                self._issue(op)
            self.stats.incr("fibers_run")
            self.fiber_latency.add(self.sim.now - started)
            if OBS.enabled:
                OBS.tracer.end(fiber_span, self.sim.now)

    def _issue(self, op: Operation) -> None:
        if isinstance(op, LocalSignal):
            self.signal(op.slot)
            return
        if isinstance(op, RemoteLoad) and op.origin < 0:
            op.origin = self.node_id
        target = getattr(op, "node", None)
        if target == self.node_id:
            # Local fast path: no network, apply directly.
            self._apply(op)
            return
        if not self.outbox.try_put(op):
            raise SimulationError("unbounded outbox refused an operation")
        self.stats.incr("remote_ops")

    def _outbox_pump(self):
        world = self.machine.world
        while True:
            op = yield self.outbox.get()
            message = world.make_message(self.node_id, op.node,
                                         op.wire_bytes, tag={"earth": op})
            driver = world.endpoint(self.node_id).driver
            yield self.sim.process(driver.send_message(message))

    def _synchronization_unit(self):
        world = self.machine.world
        driver = world.endpoint(self.node_id).driver
        while True:
            message = yield self.sim.process(driver.receive_message())
            yield self.sim.timeout(self.config.su_handle_ns)
            op = message.tag["earth"] if isinstance(message.tag, dict) else None
            if op is None:
                raise SimulationError(
                    f"node {self.node_id}: non-EARTH message "
                    f"{message.message_id} on the EARTH plane")
            self._apply(op)
            self.stats.incr("messages_handled")

    # -- operation semantics ----------------------------------------------------------

    def _apply(self, op: Operation) -> None:
        if isinstance(op, Spawn):
            self.enqueue(op.fiber)
        elif isinstance(op, RemoteStore):
            self.memory[op.addr] = op.value
            self.stats.incr("stores_served")
            if op.slot is not None:
                self.signal(op.slot)
        elif isinstance(op, RemoteLoad):
            value = self.memory.get(op.addr)
            self.stats.incr("loads_served")
            origin = op.origin if op.origin >= 0 else self.node_id
            reply = _LoadReply(node=origin, frame=op.frame, key=op.key,
                               value=value, slot=op.slot)
            if origin == self.node_id:
                self._apply(reply)
            elif not self.outbox.try_put(reply):
                raise SimulationError("outbox refused a load reply")
        elif isinstance(op, (DataSync, _LoadReply)):
            op.frame[op.key] = op.value
            self.signal(op.slot)
        else:
            raise SimulationError(f"unknown EARTH operation {op!r}")

class EarthMachine:
    """An EARTH instance over a PowerMANNA cluster plane."""

    def __init__(self, n_nodes: int = 8,
                 config: EarthConfig = EarthConfig(),
                 world: Optional[CommWorld] = None,
                 sim: Optional[Simulator] = None,
                 topology=None):
        self.config = config
        if world is None and topology is not None:
            # Fibers execute on simulated nodes, so EARTH needs the flit
            # tier's real endpoints — reject flow specs up front.
            from repro.msg.api import build_topology_world

            if topology.fidelity != "flit":
                raise ValueError(
                    f"EARTH needs flit fidelity (got {topology.fidelity!r})")
            sim, world = build_topology_world(topology,
                                              driver_config=config.driver)
        elif world is None:
            sim, world = build_cluster_world(n_nodes=n_nodes,
                                             driver_config=config.driver)
        elif sim is None:
            raise ValueError("pass sim together with an existing world")
        self.sim = sim
        self.world = world
        self.nodes: List[EarthNode] = [
            EarthNode(self, node) for node in world.fabric.node_ids()]

    def node(self, node_id: int) -> EarthNode:
        return self.nodes[node_id]

    def spawn(self, node_id: int, fiber: Fiber) -> None:
        """Inject a root fiber from 'outside' (program start)."""
        self.node(node_id).enqueue(fiber)

    def run(self, until: Optional[float] = None) -> float:
        """Run to quiescence (or ``until``); returns the final time."""
        return self.sim.run(until=until)

    def total(self, key: str) -> int:
        return sum(node.stats[key] for node in self.nodes)
