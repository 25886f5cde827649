"""The user-level point-to-point communication API.

A :class:`CommWorld` owns one network plane of a fabric: per node it builds
the link interface and PIO driver, computes source routes, and exposes
send/receive/exchange as simulation processes.  Because communication is
pure user level (the CPU's MMU is involved in every copy), there are no
system calls to model — the driver constants are the whole software stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.network.link import LinkConfig
from repro.network.crossbar import CrossbarConfig
from repro.network.message import Message
from repro.network.routing import RouteTable
from repro.network.topology import Fabric, far_pair, node_key
from repro.ni.driver import DriverConfig, PioDriver
from repro.ni.interface import LinkInterface, LinkInterfaceConfig
from repro.obs import OBS
from repro.sim.engine import Simulator
from repro.sim.process import Process


@dataclass
class Endpoint:
    """One node's presence on the plane: link interface + driver."""

    node_id: int
    ni: LinkInterface
    driver: PioDriver


class CommWorld:
    """All endpoints of one network plane plus route computation."""

    fidelity = "flit"

    def __init__(self, sim: Simulator, fabric: Fabric, plane: int = 0,
                 ni_config: LinkInterfaceConfig = LinkInterfaceConfig(),
                 driver_config: DriverConfig = DriverConfig()):
        self.sim = sim
        self.fabric = fabric
        self.plane = plane
        self.ni_config = ni_config
        self.driver_config = driver_config
        self.registry: Dict[int, Message] = {}
        self.routes = RouteTable(fabric.graph)
        #: Route provider consulted by :meth:`make_message`; normally the
        #: RouteTable itself, swapped for an
        #: :class:`~repro.network.qos.AdaptiveRouter` by
        #: :meth:`enable_adaptive`.
        self.router = self.routes
        self.endpoints: Dict[int, Endpoint] = {}
        for node in fabric.node_ids():
            attachment = fabric.attachment(node, plane)
            ni = LinkInterface(sim, ni_config, attachment.tx_link,
                               attachment.rx_fifo, name=f"n{node}.ni{plane}")
            driver = PioDriver(sim, ni, driver_config, self.registry,
                               name=f"n{node}.drv{plane}")
            self.endpoints[node] = Endpoint(node, ni, driver)

    # -- message construction ---------------------------------------------------

    def make_message(self, src: int, dst: int, nbytes: int,
                     tag: Optional[object] = None,
                     sclass: int = 0) -> Message:
        if src == dst:
            raise ValueError(f"node {src} cannot send to itself over the network")
        route = self.router.route_bytes(node_key(src, self.plane),
                                        node_key(dst, self.plane))
        return Message(source=src, dest=dst, payload_bytes=nbytes,
                       route=tuple(route), tag=tag, sclass=sclass)

    def enable_adaptive(self, config=None):
        """Swap congestion-aware routing in front of the route table.

        Future :meth:`make_message` calls route around output ports the
        :class:`~repro.network.qos.AdaptiveRouter` judges congested.
        Returns the router (its ``stats`` counts ``reroutes``/``fallbacks``).
        """
        from repro.network.qos import AdaptiveConfig, AdaptiveRouter

        router = AdaptiveRouter(self.routes, self.fabric,
                                config or AdaptiveConfig())
        self.router = router
        return router

    def endpoint(self, node: int) -> Endpoint:
        try:
            return self.endpoints[node]
        except KeyError:
            raise KeyError(f"node {node} is not part of this world") from None

    def node_ids(self) -> List[int]:
        return sorted(self.endpoints)

    def far_pair(self) -> Tuple[int, int]:
        """See :func:`repro.network.topology.far_pair`."""
        return far_pair(self.fabric.graph, self.node_ids(), self.plane)

    # -- process factories --------------------------------------------------------

    def send(self, src: int, dst: int, nbytes: int,
             tag: Optional[object] = None, sclass: int = 0) -> Process:
        message = self.make_message(src, dst, nbytes, tag=tag, sclass=sclass)
        return self.sim.process(self.endpoint(src).driver.send_message(message))

    def recv(self, node: int) -> Process:
        return self.sim.process(self.endpoint(node).driver.receive_message())

    def exchange(self, node: int, peer: int, nbytes: int) -> Process:
        """Bidirectional: ``node`` sends to ``peer`` while receiving from it."""
        message = self.make_message(node, peer, nbytes)
        return self.sim.process(
            self.endpoint(node).driver.bidirectional_exchange(message))

    # -- measurement helpers (run the simulation to completion) ----------------------

    def ping_pong(self, a: int, b: int, nbytes: int, reps: int = 4,
                  warmup: int = 1) -> List[float]:
        """Round-trip times (ns) for ``reps`` measured ping-pongs."""
        times: List[float] = []

        def bench():
            for rep in range(warmup + reps):
                start = self.sim.now
                recv_b = self.recv(b)
                yield self.send(a, b, nbytes)
                yield recv_b
                recv_a = self.recv(a)
                yield self.send(b, a, nbytes)
                yield recv_a
                if rep >= warmup:
                    times.append(self.sim.now - start)

        with OBS.label_scope(bench="ping_pong", nbytes=nbytes):
            proc = self.sim.process(bench())
            self.sim.run_until_complete(proc)
        return times

    def one_way_latency_ns(self, a: int, b: int, nbytes: int,
                           reps: int = 4) -> float:
        """Half the mean ping-pong time — the paper's latency metric."""
        times = self.ping_pong(a, b, nbytes, reps=reps)
        return sum(times) / len(times) / 2.0

    def send_gap_ns(self, a: int, b: int, nbytes: int, count: int = 16) -> float:
        """Mean inter-send time at saturation (the LogP g parameter).

        ``count`` messages are pushed back-to-back; the receiver drains
        continuously.  The gap is the steady-state per-message time at the
        *sender*, i.e. message-sending time at the network saturation point
        (Figure 10).
        """
        if count < 2:
            raise ValueError("need at least 2 messages to measure a gap")
        finished: List[float] = []

        def sender():
            for _ in range(count):
                message = self.make_message(a, b, nbytes)
                yield self.sim.process(
                    self.endpoint(a).driver.send_message(message))
                finished.append(self.sim.now)

        def receiver():
            for _ in range(count):
                yield self.recv(b)

        with OBS.label_scope(bench="send_gap", nbytes=nbytes):
            sender_proc = self.sim.process(sender())
            receiver_proc = self.sim.process(receiver())
            self.sim.run_until_complete(receiver_proc)
        if not sender_proc.finished:
            raise AssertionError("sender did not finish")
        # Skip the first message (cold route) for the steady-state gap.
        return (finished[-1] - finished[0]) / (count - 1)

    def unidirectional_mb_s(self, a: int, b: int, nbytes: int,
                            count: int = 8) -> float:
        """Streaming bandwidth for back-to-back ``nbytes`` messages."""
        start = self.sim.now
        received: List[float] = []

        def sender():
            for _ in range(count):
                message = self.make_message(a, b, nbytes)
                yield self.sim.process(
                    self.endpoint(a).driver.send_message(message))

        def receiver():
            for _ in range(count):
                yield self.recv(b)
                received.append(self.sim.now)

        with OBS.label_scope(bench="unidirectional", nbytes=nbytes):
            self.sim.process(sender())
            receiver_proc = self.sim.process(receiver())
            self.sim.run_until_complete(receiver_proc)
        elapsed = received[-1] - start
        return count * nbytes * 1e3 / elapsed if elapsed > 0 else 0.0

    def bidirectional_mb_s(self, a: int, b: int, nbytes: int,
                           rounds: int = 4) -> float:
        """Aggregate bandwidth when both nodes send and receive at once."""
        start = self.sim.now

        def side(me: int, peer: int):
            for _ in range(rounds):
                message = self.make_message(me, peer, nbytes)
                yield self.sim.process(
                    self.endpoint(me).driver.bidirectional_exchange(message))

        with OBS.label_scope(bench="bidirectional", nbytes=nbytes):
            proc_a = self.sim.process(side(a, b))
            proc_b = self.sim.process(side(b, a))
            self.sim.run_until_complete(proc_a)
            if not proc_b.finished:
                self.sim.run_until_complete(proc_b)
        elapsed = self.sim.now - start
        total_bytes = 2 * rounds * nbytes
        return total_bytes * 1e3 / elapsed if elapsed > 0 else 0.0


def build_cluster_world(n_nodes: int = 8,
                        fifo_words: int = 32,
                        link_config: LinkConfig = LinkConfig(),
                        crossbar_config: CrossbarConfig = CrossbarConfig(),
                        driver_config: DriverConfig = DriverConfig(),
                        plane: int = 0,
                        ) -> Tuple[Simulator, CommWorld]:
    """A fresh simulator plus an 8-node-cluster CommWorld.

    Keeps the fabric's node receive FIFOs consistent with the link-interface
    configuration (the ablation knob for Figure 12).
    """
    from repro.network.topology import cluster_spec

    return build_topology_world(cluster_spec(n_nodes=n_nodes),
                                fifo_words=fifo_words,
                                link_config=link_config,
                                crossbar_config=crossbar_config,
                                driver_config=driver_config, plane=plane)


def build_topology_world(spec,
                         fifo_words: int = 32,
                         link_config: LinkConfig = LinkConfig(),
                         crossbar_config: CrossbarConfig = CrossbarConfig(),
                         driver_config: DriverConfig = DriverConfig(),
                         plane: int = 0):
    """A measurement world for any :class:`TopologySpec`, at its fidelity.

    Returns ``(sim, world)``.  At flit fidelity the world is a
    :class:`CommWorld` over a fully simulated fabric (the node receive
    FIFOs track ``fifo_words`` like :func:`build_cluster_world`); at flow
    fidelity it is a :class:`~repro.network.topo.flow.FlowWorld` and
    ``sim`` is ``None`` — both expose the same measurement surface.
    """
    from repro.network.topo import FlowWorld, build_fabric

    if spec.fidelity == "flow":
        world = FlowWorld(spec, link_config=link_config,
                          crossbar_config=crossbar_config,
                          driver_config=driver_config,
                          fifo_words=fifo_words, plane=plane)
        return None, world
    sim = Simulator()
    ni_config = LinkInterfaceConfig(fifo_words=fifo_words)
    fabric = build_fabric(sim, spec, link_config=link_config,
                          crossbar_config=crossbar_config,
                          node_rx_fifo_bytes=ni_config.fifo_bytes)
    world = CommWorld(sim, fabric, plane=plane, ni_config=ni_config,
                      driver_config=driver_config)
    return sim, world
