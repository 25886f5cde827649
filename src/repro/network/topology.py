"""Fabric assembly and the Figure-5 topology specs.

A :class:`Fabric` owns crossbars, the links between them, and node
attachment points, and maintains the wiring graph used for source-route
computation; :func:`node_key` and :func:`xbar_key` name that graph's
vertices, and :func:`far_pair` picks the pair a comm figure measures on
it.  The Figure-5 machines are plain
:class:`~repro.network.topo.spec.TopologySpec` values, realised like any
other spec by :func:`repro.network.topo.build_fabric`:

* :func:`cluster_spec` — Figure 5a: eight nodes, two crossbars (one per
  network plane), eight free asynchronous dual-links per plane.
* :func:`manna_spec` — Figure 5b: sixteen 8-node clusters (256
  processors) joined by two permutation networks.  Each plane's
  permutation network is a spine of 16x16 crossbars with one link from
  every cluster to every spine crossbar, which yields the paper's property
  that "a logical connection between any two nodes involves at most only
  three crossbars".
* :func:`grid_spec` — the row/column reading of Figure 5b, kept as an
  exploration topology (its worst-case path is longer; the network
  properties bench contrasts the two).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.crossbar import Crossbar, CrossbarConfig
from repro.network.link import ByteFifo, Link, LinkConfig
from repro.network.routing import WiringGraph, shortest_path_lengths
from repro.network.transceiver import TransceiverConfig, make_async_link
from repro.sim.engine import Simulator

NodeKey = Tuple[str, int, int]   # ("node", node_id, iface)
XbarKey = Tuple[str, str]        # ("xbar", name)


def node_key(node_id: int, iface: int) -> NodeKey:
    return ("node", node_id, iface)


def xbar_key(name: str) -> XbarKey:
    return ("xbar", name)


def far_pair(graph: WiringGraph, node_ids: Sequence[int],
             plane: int) -> Tuple[int, int]:
    """The measurement pair on one plane: the lowest node id and the
    nearest of its most distant peers (hop count over the wiring graph).

    Deterministic, and on a single-crossbar topology it degenerates to
    ``(0, 1)``, the pair of Figures 9-12.  Both fidelity tiers measure
    this pair.
    """
    src = node_ids[0]
    lengths = shortest_path_lengths(graph, node_key(src, plane))
    best, best_len = None, -1
    for node in node_ids[1:]:
        length = lengths.get(node_key(node, plane))
        if length is not None and length > best_len:
            best, best_len = node, length
    if best is None:
        raise ValueError(f"node {src} reaches no peer on plane {plane}")
    return src, best


@dataclass
class NodeAttachment:
    """A node's connection to one network plane.

    Attributes:
        node_id / iface: which node link interface this is.
        tx_link: the node-to-crossbar link (the NI sends flits here).
        rx_fifo: the FIFO the crossbar's output link delivers into — the
            receive side of the node's link interface.
    """

    node_id: int
    iface: int
    tx_link: Link
    rx_fifo: ByteFifo


class Fabric:
    """Crossbars + links + node attachment points + wiring graph."""

    def __init__(self, sim: Simulator,
                 link_config: LinkConfig = LinkConfig(),
                 crossbar_config: CrossbarConfig = CrossbarConfig(),
                 node_rx_fifo_bytes: int = 256):
        self.sim = sim
        self.link_config = link_config
        self.crossbar_config = crossbar_config
        self.node_rx_fifo_bytes = node_rx_fifo_bytes
        self.crossbars: Dict[str, Crossbar] = {}
        self.attachments: Dict[Tuple[int, int], NodeAttachment] = {}
        self.graph = WiringGraph()
        self._port_claims: Dict[str, Dict[int, str]] = {}

    # -- construction -------------------------------------------------------

    def add_crossbar(self, name: str) -> Crossbar:
        if name in self.crossbars:
            raise ValueError(f"crossbar {name!r} already exists")
        xbar = Crossbar(self.sim, self.crossbar_config, name=name)
        self.crossbars[name] = xbar
        self._port_claims[name] = {}
        self.graph.add_node(xbar_key(name))
        return xbar

    def _claims(self, xbar_name: str) -> Dict[int, str]:
        try:
            return self._port_claims[xbar_name]
        except KeyError:
            known = ", ".join(sorted(self.crossbars)) or "none"
            raise KeyError(
                f"no crossbar {xbar_name!r} in this fabric "
                f"(crossbars: {known})") from None

    def _claim_port(self, xbar_name: str, port: int,
                    purpose: str = "wired") -> None:
        claims = self._claims(xbar_name)
        holder = claims.get(port)
        if holder is not None:
            raise ValueError(
                f"crossbar {xbar_name!r} port {port} already wired "
                f"({holder}); free ports: {self.free_ports(xbar_name)}")
        self.crossbars[xbar_name]._check_port(port)
        claims[port] = purpose

    def free_ports(self, xbar_name: str) -> List[int]:
        used = self._claims(xbar_name)
        return [p for p in range(self.crossbar_config.ports) if p not in used]

    def port_claims(self, xbar_name: str) -> Dict[int, str]:
        """What occupies each wired port of one crossbar (port -> label)."""
        return dict(self._claims(xbar_name))

    def attach_node(self, node_id: int, iface: int, xbar_name: str,
                    port: int) -> NodeAttachment:
        """Wire one node link interface to a crossbar port (both ways)."""
        if (node_id, iface) in self.attachments:
            raise ValueError(f"node {node_id} iface {iface} already attached")
        self._claim_port(xbar_name, port, f"node {node_id} iface {iface}")
        xbar = self.crossbars[xbar_name]

        tx_link = Link(self.sim, self.link_config, xbar.input_fifo(port),
                       name=f"n{node_id}.{iface}->{xbar_name}.{port}")
        rx_fifo = ByteFifo(self.sim, self.node_rx_fifo_bytes,
                           name=f"{xbar_name}.{port}->n{node_id}.{iface}")
        down_link = Link(self.sim, self.link_config, rx_fifo,
                         name=f"{xbar_name}.{port}->n{node_id}.{iface}.link")
        xbar.attach_output(port, down_link)

        nkey, xkey = node_key(node_id, iface), xbar_key(xbar_name)
        self.graph.add_edge(nkey, xkey, in_port=port)
        self.graph.add_edge(xkey, nkey, out_port=port)
        attachment = NodeAttachment(node_id, iface, tx_link, rx_fifo)
        self.attachments[(node_id, iface)] = attachment
        return attachment

    def connect_crossbars(self, name_a: str, port_a: int, name_b: str,
                          port_b: int,
                          asynchronous: bool = False,
                          xcvr: Optional[TransceiverConfig] = None) -> None:
        """A bidirectional (dual) link between two crossbars.

        ``asynchronous=True`` inserts the inter-cabinet transceiver stage
        with its 2-KB FIFOs on both directions.
        """
        self._claim_port(name_a, port_a,
                         f"dual link to {name_b} port {port_b}")
        self._claim_port(name_b, port_b,
                         f"dual link to {name_a} port {port_a}")
        a, b = self.crossbars[name_a], self.crossbars[name_b]

        def make(src_name: str, src_port: int, dst: Crossbar,
                 dst_port: int) -> Link:
            label = f"{src_name}.{src_port}->{dst.name}.{dst_port}"
            if asynchronous:
                cfg = xcvr or TransceiverConfig()
                return make_async_link(self.sim, self.link_config, cfg,
                                       dst.input_fifo(dst_port), name=label)
            return Link(self.sim, self.link_config, dst.input_fifo(dst_port),
                        name=label)

        a.attach_output(port_a, make(name_a, port_a, b, port_b))
        b.attach_output(port_b, make(name_b, port_b, a, port_a))
        ka, kb = xbar_key(name_a), xbar_key(name_b)
        self.graph.add_edge(ka, kb, out_port=port_a)
        self.graph.add_edge(kb, ka, out_port=port_b)

    # -- queries -----------------------------------------------------------

    def node_ids(self) -> List[int]:
        return sorted({nid for nid, _ in self.attachments})

    def attachment(self, node_id: int, iface: int = 0) -> NodeAttachment:
        try:
            return self.attachments[(node_id, iface)]
        except KeyError:
            raise KeyError(
                f"node {node_id} iface {iface} is not attached") from None


# ---------------------------------------------------------------------------
# The Figure-5 machines as TopologySpecs.  Realise them with
# repro.network.topo.build_fabric (or build_topology_world for a world).
# ---------------------------------------------------------------------------


def cluster_spec(n_nodes: int = 8, planes: int = 2):
    """Figure 5a: ``n_nodes`` nodes on ``planes`` duplicated crossbars.

    Node *i*'s interface *p* attaches to port *i* of plane-*p*'s crossbar,
    leaving ``ports - n_nodes`` free ports per plane for inter-cluster
    (asynchronous) dual links.
    """
    from repro.network.topo import TopologySpec

    return TopologySpec("cluster", {"n_nodes": n_nodes, "planes": planes})


def manna_spec(clusters: int = 16, nodes_per_cluster: int = 8):
    """Figure 5b: any-to-any traffic crosses at most three crossbars
    (source cluster, one spine, destination cluster)."""
    from repro.network.topo import TopologySpec

    return TopologySpec("manna", {"clusters": clusters,
                                  "nodes_per_cluster": nodes_per_cluster})


def grid_spec(rows: int = 4, cols: int = 4, nodes_per_cluster: int = 8):
    """The row/column reading of Figure 5b: plane 0 joins each row's
    clusters, plane 1 each column's; other pairs must relay."""
    from repro.network.topo import TopologySpec

    return TopologySpec("grid", {"rows": rows, "cols": cols,
                                 "nodes_per_cluster": nodes_per_cluster})
