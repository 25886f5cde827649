"""The BFS route finder against networkx as an oracle.

``RouteTable`` searches a :class:`~repro.network.routing.WiringGraph`
with its own breadth-first routines.  Among equally short paths they must
pick the one networkx's unweighted searches pick, or routes, figure tables
and event orders would move.  Each test rebuilds the same wiring as an
``nx.DiGraph`` by replaying the spec's blueprint ops, then compares paths,
route bytes, no-route errors, the crossbar diameter and the far pair under
random failed-edge, failed-vertex and congested-edge sets, for every
generator family.
"""

import functools
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import NoRouteError, RouteTable
from repro.network.topo import TopologySpec, build_graph, generator_kinds
from repro.network.topo.generators import OP_NODE, OP_XBAR, blueprint
from repro.network.topology import far_pair, node_key, xbar_key


def nx_build_graph(spec, ports=16):
    """The wiring digraph as networkx builds it, from the same ops."""
    plan = blueprint(spec, ports)
    graph = nx.DiGraph()
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


@functools.lru_cache(maxsize=None)
def graphs(kind):
    spec = TopologySpec(kind)
    return build_graph(spec), nx_build_graph(spec)


def is_xbar(key):
    return key[0] == "xbar"


class Oracle:
    """The route searches as networkx answers them, under one failure
    state (the same filters ``RouteTable`` applies)."""

    def __init__(self, graph, failed_edges, failed_vertices, congested):
        self.graph = graph
        self.failed_edges = failed_edges
        self.failed_vertices = failed_vertices
        self.congested = congested

    def alive(self, u, v):
        return ((u, v) not in self.failed_edges
                and (u, v) not in self.congested)

    def path(self, src, dst):
        def allowed(vertex):
            if vertex in self.failed_vertices:
                return False
            return is_xbar(vertex) or vertex in (src, dst)

        view = nx.subgraph_view(self.graph, filter_node=allowed,
                                filter_edge=self.alive)
        try:
            return nx.shortest_path(view, src, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    def route_bytes(self, path):
        return [self.graph.edges[here, there]["out_port"]
                for here, there in zip(path, path[1:]) if is_xbar(here)]

    def diameter(self, endpoints):
        worst = 0
        crossbars = {v for v in self.graph.nodes if is_xbar(v)}
        endpoint_set = set(endpoints)
        for src in endpoints:
            allowed = (crossbars | endpoint_set) - self.failed_vertices
            view = nx.subgraph_view(
                self.graph, filter_node=lambda v: v in allowed or v == src,
                filter_edge=self.alive)
            paths = nx.single_source_shortest_path(view, src)
            for dst in endpoints:
                if dst == src:
                    continue
                path = paths.get(dst)
                if path is None:
                    return f"no route from {src} to {dst}"
                worst = max(worst, sum(1 for hop in path if is_xbar(hop)))
        return worst


def nx_far_pair(graph, node_ids, plane):
    src = node_ids[0]
    lengths = nx.single_source_shortest_path_length(
        graph, node_key(src, plane))
    best, best_len = None, -1
    for node in node_ids[1:]:
        length = lengths.get(node_key(node, plane))
        if length is not None and length > best_len:
            best, best_len = node, length
    return src, best


def failure_state(graph, rng, p_edge, p_vertex, p_congested):
    edges = list(graph.edges)
    failed_edges = {e for e in edges if rng.random() < p_edge}
    failed_vertices = {v for v in graph.nodes if rng.random() < p_vertex}
    congested = {e for e in edges if rng.random() < p_congested}
    return failed_edges, failed_vertices, congested


def route_table(graph, failed_edges, failed_vertices, congested):
    table = RouteTable(graph)
    for edge in sorted(failed_edges, key=repr):
        table.mark_edge_failed(*edge)
    for vertex in sorted(failed_vertices, key=repr):
        table.mark_vertex_failed(vertex)
    table.set_congested_edges(congested)
    return table


FRACTIONS = st.sampled_from([0.0, 0.0, 0.02, 0.1, 0.3, 0.6])


@given(kind=st.sampled_from(generator_kinds()),
       seed=st.integers(0, 2 ** 32 - 1),
       p_edge=FRACTIONS, p_vertex=FRACTIONS, p_congested=FRACTIONS)
@settings(max_examples=120, deadline=None)
def test_routes_match_networkx(kind, seed, p_edge, p_vertex, p_congested):
    graph, nx_graph = graphs(kind)
    rng = random.Random(seed)
    state = failure_state(graph, rng, p_edge, p_vertex, p_congested)
    table = route_table(graph, *state)
    oracle = Oracle(nx_graph, *state)
    vertices = list(graph.nodes)
    endpoints = [v for v in vertices if v[0] == "node"]
    pairs = [tuple(rng.sample(endpoints, 2)) for _ in range(12)]
    pairs += [(rng.choice(endpoints), rng.choice(vertices)),
              (rng.choice(vertices), rng.choice(endpoints)),
              (endpoints[0], endpoints[0]),
              (endpoints[0], node_key(10 ** 6, 0))]
    for src, dst in pairs:
        expected = oracle.path(src, dst)
        if expected is None:
            for search in (table.path, table.route_bytes):
                try:
                    search(src, dst)
                except NoRouteError as exc:
                    assert str(exc).startswith(f"no route from {src} to {dst}")
                else:
                    raise AssertionError(f"{kind}: {src} -> {dst} routed")
            continue
        assert table.path(src, dst) == expected, (kind, src, dst)
        assert table.route_bytes(src, dst) == oracle.route_bytes(expected)


@given(kind=st.sampled_from(generator_kinds()),
       seed=st.integers(0, 2 ** 32 - 1),
       p_edge=FRACTIONS, p_vertex=FRACTIONS, p_congested=FRACTIONS,
       count=st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_diameter_matches_networkx(kind, seed, p_edge, p_vertex,
                                   p_congested, count):
    graph, nx_graph = graphs(kind)
    rng = random.Random(seed)
    state = failure_state(graph, rng, p_edge, p_vertex, p_congested)
    table = route_table(graph, *state)
    endpoints = rng.sample([v for v in graph.nodes if v[0] == "node"], count)
    expected = Oracle(nx_graph, *state).diameter(endpoints)
    try:
        got = table.network_diameter_crossbars(endpoints)
    except NoRouteError as exc:
        got = str(exc)
    assert got == expected


def test_far_pair_matches_networkx():
    for kind in generator_kinds():
        graph, nx_graph = graphs(kind)
        for plane in sorted({v[2] for v in graph.nodes if v[0] == "node"}):
            node_ids = sorted(v[1] for v in graph.nodes
                              if v[0] == "node" and v[2] == plane)
            assert (far_pair(graph, node_ids, plane)
                    == nx_far_pair(nx_graph, node_ids, plane)), kind


def test_graphs_agree_vertex_and_edge_order():
    for kind in generator_kinds():
        graph, nx_graph = graphs(kind)
        assert list(graph.nodes) == list(nx_graph.nodes)
        assert list(graph.edges) == list(nx_graph.edges)
        for vertex in graph.nodes:
            assert list(graph.pred[vertex]) == list(nx_graph.pred[vertex])
            for succ in graph.successors(vertex):
                assert graph.edges[vertex, succ] == nx_graph.edges[vertex,
                                                                   succ]
