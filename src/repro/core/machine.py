"""The top-level PowerMANNA system façade.

A :class:`PowerMannaSystem` is what the examples and benchmarks hold in
their hands: N dual-MPC620 nodes (compute models) embedded in the
duplicated crossbar network (a discrete-event fabric with one CommWorld per
plane).  The two time scales of DESIGN.md section 5 meet here: node
benchmarks replay traces on the :class:`~repro.node.node.NodeModel`s,
communication benchmarks run on the event-driven fabric.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.specs import POWERMANNA, MachineSpec
from repro.msg.api import CommWorld
from repro.msg.logp import LogPParameters, measure_logp
from repro.network.topology import cluster_spec, manna_spec
from repro.ni.driver import DriverConfig
from repro.ni.interface import LinkInterfaceConfig
from repro.node.node import NodeModel
from repro.sim.engine import Simulator


class PowerMannaSystem:
    """N nodes + duplicated network + per-plane user-level comm worlds.

    ``spec`` is any flit-fidelity :class:`TopologySpec` (default: the
    Figure-5a cluster).  The fabric's node receive FIFOs track
    ``fifo_words`` (the Figure-12 knob) and one CommWorld is stood up per
    network plane the blueprint wires.
    """

    def __init__(self, spec=None,
                 machine: MachineSpec = POWERMANNA,
                 fifo_words: int = 32,
                 driver_config: DriverConfig = DriverConfig(),
                 node_scale: int = 1):
        from repro.network.topo import blueprint, build_fabric

        spec = spec if spec is not None else cluster_spec()
        self.machine = machine
        self.sim = Simulator()
        self.ni_config = LinkInterfaceConfig(fifo_words=fifo_words)
        self.fabric = build_fabric(
            self.sim, spec, node_rx_fifo_bytes=self.ni_config.fifo_bytes)
        planes = blueprint(spec, self.fabric.crossbar_config.ports).planes()
        self.worlds: List[CommWorld] = [
            CommWorld(self.sim, self.fabric, plane=plane,
                      ni_config=self.ni_config, driver_config=driver_config)
            for plane in range(planes)
        ]
        self._node_models: Dict[int, NodeModel] = {}
        self.node_scale = node_scale

    # -- construction helpers --------------------------------------------------

    @classmethod
    def cluster(cls, fifo_words: int = 32,
                driver_config: DriverConfig = DriverConfig(),
                node_scale: int = 1) -> "PowerMannaSystem":
        """The Figure-5a eight-node desk-side system."""
        return cls(cluster_spec(), fifo_words=fifo_words,
                   driver_config=driver_config, node_scale=node_scale)

    @classmethod
    def system_256(cls, driver_config: DriverConfig = DriverConfig(),
                   ) -> "PowerMannaSystem":
        """The Figure-5b 256-processor (128-node) configuration."""
        return cls(manna_spec(), driver_config=driver_config)

    # -- accessors --------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.fabric.node_ids())

    @property
    def num_processors(self) -> int:
        return self.num_nodes * self.machine.num_cpus

    def node(self, node_id: int) -> NodeModel:
        """The compute model of one node (built lazily, cached)."""
        if node_id not in self.fabric.node_ids():
            raise KeyError(f"no node {node_id} in this system")
        model = self._node_models.get(node_id)
        if model is None:
            model = self.machine.node(scale=self.node_scale,
                                      name=f"node{node_id}")
            self._node_models[node_id] = model
        return model

    def world(self, plane: int = 0) -> CommWorld:
        return self.worlds[plane]

    # -- headline measurements --------------------------------------------------

    def logp(self, a: int = 0, b: int = 1, nbytes: int = 8,
             plane: int = 0) -> LogPParameters:
        return measure_logp(self.world(plane), a, b, nbytes)

    def describe(self) -> str:
        return (f"PowerMANNA: {self.num_nodes} nodes "
                f"({self.num_processors} x {self.machine.cpu.name}), "
                f"{len(self.worlds)} network planes, "
                f"{self.ni_config.fifo_words}-word NI FIFOs")
