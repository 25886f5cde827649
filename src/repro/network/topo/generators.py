"""Blueprint generators and the two fabric realizers.

A generator turns a :class:`~repro.network.topo.spec.TopologySpec` into a
:class:`Blueprint` — an ordered op list of crossbars, node attachments
and crossbar-crossbar dual links.  The op *order* is part of the
contract: :func:`build_fabric` replays it verbatim, so one spec always
reconstructs a bit-identical simulation (process creation order
determines event ordering in the DES kernel).

Two realizers consume a blueprint:

* :func:`build_fabric` — the flit-fidelity tier: a full
  :class:`~repro.network.topology.Fabric` (crossbar ASICs, link pipes,
  transceivers — every component a simulation process).
* :func:`build_graph` — the flow-fidelity tier: only the wiring digraph,
  with the same vertex keys and port attributes the Fabric would carry
  plus an ``asynchronous`` flag on inter-crossbar edges, cheap enough to
  stand up a 4k-node machine in milliseconds.

Generator family:

========== ===================================================== =========
kind       shape                                                 paper tie
========== ===================================================== =========
cluster    Figure 5a: N nodes on P duplicated crossbars          Fig. 5a
manna      Figure 5b: clusters joined by permutation spines      Fig. 5b
grid       row/column reading of Figure 5b                       Fig. 5b
xbar_tree  multi-tier crossbar tree (clusters of clusters)       sec. 2
hypercube  2^d routers in a binary hypercube (RTNN, QCDSP line)  PAPERS.md
torus      2-D/3-D wraparound mesh of router crossbars           PAPERS.md
fat_tree   k-ary 3-level fat tree (k pods, k^3/4 hosts)          PAPERS.md
========== ===================================================== =========
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.network.link import LinkConfig
from repro.network.crossbar import CrossbarConfig
from repro.network.routing import WiringGraph
from repro.network.topo.spec import TopologySpec, register_generator
from repro.sim.engine import Simulator

# Op tags.  A blueprint op is one of:
#   ("xbar", name)
#   ("node", node_id, iface, xbar_name, port)
#   ("xlink", name_a, port_a, name_b, port_b, asynchronous)
OP_XBAR = "xbar"
OP_NODE = "node"
OP_XLINK = "xlink"


@dataclass(frozen=True)
class Blueprint:
    """An ordered, fidelity-neutral wiring program for one fabric."""

    kind: str
    ops: Tuple[tuple, ...]

    def crossbar_names(self) -> List[str]:
        return [op[1] for op in self.ops if op[0] == OP_XBAR]

    def node_count(self) -> int:
        return len({op[1] for op in self.ops if op[0] == OP_NODE})

    def planes(self) -> int:
        ifaces = {op[2] for op in self.ops if op[0] == OP_NODE}
        return (max(ifaces) + 1) if ifaces else 0


class _PortAllocator:
    """Deterministic next-free-port bookkeeping for the new generators."""

    def __init__(self, ports: int):
        self.ports = ports
        self._next: Dict[str, int] = {}

    def take(self, xbar: str) -> int:
        port = self._next.get(xbar, 0)
        if port >= self.ports:
            raise ValueError(
                f"crossbar {xbar!r} needs more than {self.ports} ports; "
                f"use a larger crossbar or a smaller topology")
        self._next[xbar] = port + 1
        return port


def blueprint(spec: TopologySpec, ports: int) -> Blueprint:
    """The wiring program of ``spec`` on ``ports``-port crossbars."""
    from repro.network.topo.spec import GENERATORS

    generator = GENERATORS[spec.kind][0]
    return Blueprint(spec.kind, tuple(generator(spec.resolved_params(),
                                                ports)))


# ---------------------------------------------------------------------------
# The Figure-5 generators — their op order is what every recorded figure
# was measured on (byte-identity of those figures depends on it).
# ---------------------------------------------------------------------------


@register_generator("cluster", {"n_nodes": 8, "planes": 2})
def _gen_cluster(params: dict, ports: int) -> List[tuple]:
    n_nodes, planes = params["n_nodes"], params["planes"]
    if n_nodes > ports:
        raise ValueError(
            f"{n_nodes} nodes do not fit a {ports}-port crossbar")
    if planes < 1:
        raise ValueError("need at least one network plane")
    ops: List[tuple] = []
    for plane in range(planes):
        ops.append((OP_XBAR, f"plane{plane}"))
        for node in range(n_nodes):
            ops.append((OP_NODE, node, plane, f"plane{plane}", node))
    return ops


@register_generator("manna", {"clusters": 16, "nodes_per_cluster": 8})
def _gen_manna(params: dict, ports: int) -> List[tuple]:
    clusters = params["clusters"]
    npc = params["nodes_per_cluster"]
    spine_count = ports - npc  # free ports per cluster xbar
    if clusters > ports:
        raise ValueError(
            f"{clusters} clusters need {clusters} spine ports; the crossbar "
            f"has {ports}")
    ops: List[tuple] = []
    for plane in range(2):
        spine_names = [f"spine{plane}.{s}" for s in range(spine_count)]
        for name in spine_names:
            ops.append((OP_XBAR, name))
        for cluster in range(clusters):
            cname = f"c{cluster}.plane{plane}"
            ops.append((OP_XBAR, cname))
            for local in range(npc):
                node_id = cluster * npc + local
                ops.append((OP_NODE, node_id, plane, cname, local))
            for s, sname in enumerate(spine_names):
                ops.append((OP_XLINK, cname, npc + s, sname, cluster, True))
    return ops


@register_generator("grid", {"rows": 4, "cols": 4, "nodes_per_cluster": 8})
def _gen_grid(params: dict, ports: int) -> List[tuple]:
    rows, cols, npc = params["rows"], params["cols"], params["nodes_per_cluster"]
    free = ports - npc
    links_per_cluster = min(free, max(1, ports // max(rows, cols)))
    ops: List[tuple] = []

    def cluster_index(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            cluster = cluster_index(r, c)
            for plane in range(2):
                cname = f"c{cluster}.plane{plane}"
                ops.append((OP_XBAR, cname))
                for local in range(npc):
                    node_id = cluster * npc + local
                    ops.append((OP_NODE, node_id, plane, cname, local))

    for r in range(rows):
        rname = f"row{r}"
        ops.append((OP_XBAR, rname))
        row_port = itertools.count()
        for c in range(cols):
            cname = f"c{cluster_index(r, c)}.plane0"
            for k in range(links_per_cluster):
                ops.append((OP_XLINK, cname, npc + k, rname,
                            next(row_port), True))
    for c in range(cols):
        colname = f"col{c}"
        ops.append((OP_XBAR, colname))
        col_port = itertools.count()
        for r in range(rows):
            cname = f"c{cluster_index(r, c)}.plane1"
            for k in range(links_per_cluster):
                ops.append((OP_XLINK, cname, npc + k, colname,
                            next(col_port), True))
    return ops


# ---------------------------------------------------------------------------
# The scaling family: tree / hypercube / torus / fat tree.
# ---------------------------------------------------------------------------


@register_generator("xbar_tree", {"levels": 2, "arity": 4,
                                  "nodes_per_leaf": 8, "uplinks": 1,
                                  "asynchronous": True})
def _gen_xbar_tree(params: dict, ports: int) -> List[tuple]:
    """A multi-tier crossbar tree: nodes on leaf crossbars, ``arity``
    children per switch, ``uplinks`` parallel dual links child-to-parent.

    Worst-case path climbs to the root and back down: ``2*levels - 1``
    crossbars (``levels=2, arity=16`` reproduces a 16-cluster machine in
    the Figure-5b spirit with a single-crossbar spine).
    """
    levels, arity = params["levels"], params["arity"]
    npl, uplinks = params["nodes_per_leaf"], params["uplinks"]
    asynchronous = params["asynchronous"]
    if levels < 1:
        raise ValueError("xbar_tree needs at least one level")
    if arity < 2 and levels > 1:
        raise ValueError("xbar_tree arity must be >= 2")
    if npl + (uplinks if levels > 1 else 0) > ports:
        raise ValueError(
            f"{npl} nodes + {uplinks} uplink(s) do not fit a {ports}-port "
            f"leaf crossbar")
    if levels > 1 and arity * uplinks + uplinks > ports:
        raise ValueError(
            f"{arity} children x {uplinks} uplink(s) do not fit a "
            f"{ports}-port switch")
    ops: List[tuple] = []
    alloc = _PortAllocator(ports)

    def switch_name(level: int, index: int) -> str:
        return f"t{level}.{index}"

    # Leaves first (nodes attach in node-id order), then tiers upward.
    leaves = arity ** (levels - 1)
    for leaf in range(leaves):
        name = switch_name(levels - 1, leaf)
        ops.append((OP_XBAR, name))
        for local in range(npl):
            ops.append((OP_NODE, leaf * npl + local, 0, name,
                        alloc.take(name)))
    for level in range(levels - 2, -1, -1):
        for index in range(arity ** level):
            parent = switch_name(level, index)
            ops.append((OP_XBAR, parent))
            for child in range(arity):
                child_name = switch_name(level + 1, index * arity + child)
                for _ in range(uplinks):
                    ops.append((OP_XLINK, child_name,
                                alloc.take(child_name), parent,
                                alloc.take(parent), asynchronous))
    return ops


@register_generator("hypercube", {"dimensions": 4, "nodes_per_router": 1,
                                  "asynchronous": False})
def _gen_hypercube(params: dict, ports: int) -> List[tuple]:
    """2^d router crossbars, routers joined along every dimension.

    Diameter is ``d`` router-router hops, so a route crosses at most
    ``d + 1`` crossbars.  ``dimensions=8, nodes_per_router=4`` is a
    1024-node machine on 16-port crossbars (8 links + 4 nodes).
    """
    d = params["dimensions"]
    npr = params["nodes_per_router"]
    asynchronous = params["asynchronous"]
    if d < 1:
        raise ValueError("hypercube needs at least one dimension")
    if npr < 1:
        raise ValueError("hypercube needs at least one node per router")
    if npr + d > ports:
        raise ValueError(
            f"{npr} nodes + {d} dimension links do not fit a {ports}-port "
            f"crossbar")
    ops: List[tuple] = []
    alloc = _PortAllocator(ports)
    routers = 1 << d
    for router in range(routers):
        name = f"h{router}"
        ops.append((OP_XBAR, name))
        for local in range(npr):
            ops.append((OP_NODE, router * npr + local, 0, name,
                        alloc.take(name)))
    for router in range(routers):
        for bit in range(d):
            peer = router ^ (1 << bit)
            if peer < router:
                continue  # one dual link per edge
            a, b = f"h{router}", f"h{peer}"
            ops.append((OP_XLINK, a, alloc.take(a), b, alloc.take(b),
                        asynchronous))
    return ops


@register_generator("torus", {"dims": [4, 4], "nodes_per_router": 1,
                              "asynchronous": False})
def _gen_torus(params: dict, ports: int) -> List[tuple]:
    """A 2-D or 3-D wraparound mesh of router crossbars.

    Diameter is ``sum(dim // 2)`` router hops, so at most
    ``1 + sum(dim // 2)`` crossbars on a route.
    """
    dims = list(params["dims"])
    npr = params["nodes_per_router"]
    asynchronous = params["asynchronous"]
    if len(dims) not in (2, 3):
        raise ValueError(f"torus dims must be 2-D or 3-D, got {dims}")
    if any(d < 2 for d in dims):
        raise ValueError(f"every torus dimension must be >= 2, got {dims}")
    degree = sum(1 if d == 2 else 2 for d in dims)
    if npr + degree > ports:
        raise ValueError(
            f"{npr} nodes + {degree} torus links do not fit a {ports}-port "
            f"crossbar")
    ops: List[tuple] = []
    alloc = _PortAllocator(ports)
    coords = list(itertools.product(*[range(d) for d in dims]))
    index = {coord: i for i, coord in enumerate(coords)}

    def name(coord) -> str:
        return "r" + ".".join(str(c) for c in coord)

    for i, coord in enumerate(coords):
        ops.append((OP_XBAR, name(coord)))
        for local in range(npr):
            ops.append((OP_NODE, i * npr + local, 0, name(coord),
                        alloc.take(name(coord))))
    for coord in coords:
        for axis, size in enumerate(dims):
            neighbor = list(coord)
            neighbor[axis] = (coord[axis] + 1) % size
            neighbor = tuple(neighbor)
            if size == 2 and coord[axis] == 1:
                continue  # +1 wraps onto the same pair: one link suffices
            if index[neighbor] == index[coord]:
                continue
            a, b = name(coord), name(neighbor)
            ops.append((OP_XLINK, a, alloc.take(a), b, alloc.take(b),
                        asynchronous))
    return ops


@register_generator("fat_tree", {"k": 4, "nodes_per_edge": None,
                                 "asynchronous": True})
def _gen_fat_tree(params: dict, ports: int) -> List[tuple]:
    """A k-ary 3-level fat tree: k pods of k/2 edge + k/2 aggregation
    switches, (k/2)^2 core switches, ``nodes_per_edge`` (default k/2)
    hosts per edge switch — k^3/4 hosts at full population.

    Any route crosses at most 5 crossbars (edge, agg, core, agg, edge);
    ``k=16`` is a 1024-node machine on exactly 16-port crossbars.
    """
    k = params["k"]
    if k < 2 or k % 2:
        raise ValueError(f"fat tree k must be even and >= 2, got {k}")
    half = k // 2
    npe = params["nodes_per_edge"]
    npe = half if npe is None else npe
    if npe < 1 or npe > half:
        raise ValueError(
            f"nodes_per_edge must be in [1, {half}] for k={k}, got {npe}")
    if k > ports:
        raise ValueError(
            f"fat tree k={k} needs {k}-port crossbars; the crossbar has "
            f"{ports}")
    asynchronous = params["asynchronous"]
    ops: List[tuple] = []
    alloc = _PortAllocator(ports)

    core_names = [f"core{i}" for i in range(half * half)]
    # Pods first (hosts attach in node-id order), cores declared before
    # the agg uplinks that reference them.
    for name in core_names:
        ops.append((OP_XBAR, name))
    node_id = 0
    for pod in range(k):
        edge_names = [f"p{pod}.e{e}" for e in range(half)]
        agg_names = [f"p{pod}.a{a}" for a in range(half)]
        for e, ename in enumerate(edge_names):
            ops.append((OP_XBAR, ename))
            for _ in range(npe):
                ops.append((OP_NODE, node_id, 0, ename, alloc.take(ename)))
                node_id += 1
        for a, aname in enumerate(agg_names):
            ops.append((OP_XBAR, aname))
            for ename in edge_names:
                ops.append((OP_XLINK, ename, alloc.take(ename), aname,
                            alloc.take(aname), asynchronous))
            for c in range(half):
                cname = core_names[a * half + c]
                ops.append((OP_XLINK, aname, alloc.take(aname), cname,
                            alloc.take(cname), asynchronous))
    return ops


# ---------------------------------------------------------------------------
# Realizers.
# ---------------------------------------------------------------------------


def build_fabric(sim: Simulator, spec: TopologySpec,
                 link_config: LinkConfig = LinkConfig(),
                 crossbar_config: CrossbarConfig = CrossbarConfig(),
                 node_rx_fifo_bytes: int = 256):
    """Realise ``spec`` as a full flit-level Fabric on ``sim``.

    Ops replay in blueprint order, so one spec always constructs the
    same simulation: same crossbars, ports and process creation order.
    """
    from repro.network.topology import Fabric

    if spec.fidelity != "flit":
        raise ValueError(
            f"build_fabric realises flit-fidelity specs; {spec.label()} "
            f"asks for {spec.fidelity!r} (use FlowWorld for the flow tier)")
    plan = blueprint(spec, crossbar_config.ports)
    fabric = Fabric(sim, link_config, crossbar_config,
                    node_rx_fifo_bytes=node_rx_fifo_bytes)
    for op in plan.ops:
        if op[0] == OP_XBAR:
            fabric.add_crossbar(op[1])
        elif op[0] == OP_NODE:
            _, node_id, iface, xbar, port = op
            fabric.attach_node(node_id, iface, xbar, port)
        else:
            _, name_a, port_a, name_b, port_b, asynchronous = op
            fabric.connect_crossbars(name_a, port_a, name_b, port_b,
                                     asynchronous=asynchronous)
    return fabric


def build_graph(spec: TopologySpec, ports: int = 16) -> WiringGraph:
    """Realise ``spec`` as a wiring digraph only — the flow tier's input.

    Vertex keys and ``in_port``/``out_port`` attributes match what a
    Fabric would build (so :class:`~repro.network.routing.RouteTable`
    computes identical paths, hop counts and route bytes); crossbar-
    crossbar edges additionally carry ``asynchronous`` so the flow model
    can price transceiver hops.
    """
    from repro.network.topology import node_key, xbar_key

    plan = blueprint(spec, ports)
    graph = WiringGraph()
    for op in plan.ops:
        if op[0] == OP_XBAR:
            graph.add_node(xbar_key(op[1]))
        elif op[0] == OP_NODE:
            _, node_id, iface, xbar, port = op
            nkey, xkey = node_key(node_id, iface), xbar_key(xbar)
            graph.add_edge(nkey, xkey, in_port=port)
            graph.add_edge(xkey, nkey, out_port=port)
        else:
            _, name_a, port_a, name_b, port_b, asynchronous = op
            ka, kb = xbar_key(name_a), xbar_key(name_b)
            graph.add_edge(ka, kb, out_port=port_a,
                           asynchronous=asynchronous)
            graph.add_edge(kb, ka, out_port=port_b,
                           asynchronous=asynchronous)
    return graph


# ---------------------------------------------------------------------------
# Documented per-topology diameter bounds (crossbars on a route), used by
# the property tests and the docs.  ``None`` means "depends on wiring
# degree" (grid relaying is the paper's argument against that reading).
# ---------------------------------------------------------------------------


def diameter_bound_crossbars(spec: TopologySpec) -> Optional[int]:
    """Worst-case crossbars on any route, from the topology's geometry.

    * cluster  — 1 (single crossbar per plane)
    * manna    — 3 (cluster, spine, cluster: the paper's property)
    * xbar_tree — ``2*levels - 1`` (up to the root and back down)
    * hypercube — ``dimensions + 1``
    * torus    — ``1 + sum(dim // 2)``
    * fat_tree — 5 (edge, agg, core, agg, edge)
    * grid     — no constant bound (same row/column: 3; otherwise a
      software relay is required), hence ``None``.
    """
    params = spec.resolved_params()
    if spec.kind == "cluster":
        return 1
    if spec.kind == "manna":
        return 3
    if spec.kind == "xbar_tree":
        return 2 * params["levels"] - 1
    if spec.kind == "hypercube":
        return params["dimensions"] + 1
    if spec.kind == "torus":
        return 1 + sum(d // 2 for d in params["dims"])
    if spec.kind == "fat_tree":
        return 5
    return None
