"""Generators: realizer agreement, new-family structure, port claims."""

import pytest

from repro.network.routing import RouteTable
from repro.network.topo import (
    TopologySpec,
    blueprint,
    build_fabric,
    build_graph,
    diameter_bound_crossbars,
    generator_kinds,
)
from repro.network.topology import cluster_spec, manna_spec, node_key
from repro.sim.engine import Simulator


class TestRealizerAgreement:
    """The flit realizer and the graph realizer wire the same machine."""

    @pytest.mark.parametrize("kind", generator_kinds())
    def test_fabric_matches_build_graph(self, kind):
        spec = TopologySpec(kind)
        fabric = build_fabric(Simulator(), spec)
        graph = build_graph(spec)
        assert set(graph.nodes) == set(fabric.graph.nodes)
        assert set(graph.edges) == set(fabric.graph.edges)
        for edge in fabric.graph.edges:
            spec_attrs = dict(graph.edges[edge])
            spec_attrs.pop("asynchronous", None)
            assert spec_attrs == dict(fabric.graph.edges[edge])

    def test_cluster_validation_message_preserved(self):
        with pytest.raises(ValueError, match="do not fit a 16-port"):
            build_fabric(Simulator(), cluster_spec(n_nodes=17))

    def test_manna_at_most_three_crossbars(self):
        fabric = build_fabric(Simulator(), manna_spec())
        routes = RouteTable(fabric.graph)
        # Far pair: different clusters, both planes available.
        assert routes.crossbars_on_path(node_key(0, 0),
                                        node_key(127, 0)) <= 3


NEW_FAMILY = [
    (TopologySpec("xbar_tree"), 4 * 8),
    (TopologySpec("xbar_tree", {"levels": 3, "arity": 2,
                                "nodes_per_leaf": 4}), 16),
    (TopologySpec("hypercube"), 16),
    (TopologySpec("hypercube", {"dimensions": 5, "nodes_per_router": 2}),
     64),
    (TopologySpec("torus", {"dims": [4, 4], "nodes_per_router": 2}), 32),
    (TopologySpec("torus", {"dims": [2, 3, 4]}), 24),
    (TopologySpec("fat_tree"), 16),
    (TopologySpec("fat_tree", {"k": 6, "nodes_per_edge": 2}), 36),
]


class TestNewGenerators:
    @pytest.mark.parametrize("spec,expected_nodes", NEW_FAMILY)
    def test_node_count_and_full_reachability(self, spec, expected_nodes):
        graph = build_graph(spec)
        nodes = sorted(k[1] for k in graph.nodes if k[0] == "node")
        assert nodes == list(range(expected_nodes))
        routes = RouteTable(graph)
        keys = [node_key(n, 0) for n in (nodes[0], nodes[len(nodes) // 2],
                                         nodes[-1])]
        assert routes.reachable_fraction(keys) == 1.0

    @pytest.mark.parametrize("spec,expected_nodes", NEW_FAMILY)
    def test_diameter_bound_holds_on_sampled_pairs(self, spec,
                                                   expected_nodes):
        graph = build_graph(spec)
        routes = RouteTable(graph)
        bound = diameter_bound_crossbars(spec)
        assert bound is not None
        nodes = sorted(k[1] for k in graph.nodes if k[0] == "node")
        sample = nodes[:3] + nodes[-3:]
        for a in sample:
            for b in sample:
                if a == b:
                    continue
                assert routes.crossbars_on_path(
                    node_key(a, 0), node_key(b, 0)) <= bound

    def test_grid_has_no_universal_bound(self):
        assert diameter_bound_crossbars(TopologySpec("grid")) is None

    @pytest.mark.parametrize("spec,expected_nodes", NEW_FAMILY)
    def test_fabric_matches_graph(self, spec, expected_nodes):
        fabric = build_fabric(Simulator(), spec)
        graph = build_graph(spec)
        assert set(fabric.graph.nodes) == set(graph.nodes)
        assert set(fabric.graph.edges) == set(graph.edges)

    def test_flow_spec_rejected_by_build_fabric(self):
        spec = TopologySpec("hypercube", fidelity="flow")
        with pytest.raises(ValueError, match="flit"):
            build_fabric(Simulator(), spec)

    def test_oversubscribed_crossbar_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            blueprint(TopologySpec("hypercube",
                                   {"dimensions": 8,
                                    "nodes_per_router": 9}), 16)

    def test_fat_tree_k16_is_1024_nodes_on_16_ports(self):
        plan = blueprint(TopologySpec("fat_tree", {"k": 16}), 16)
        assert plan.node_count() == 1024
        assert len(plan.crossbar_names()) == 16 * 16 + 64

    def test_hypercube_d8_is_1024_nodes(self):
        plan = blueprint(TopologySpec("hypercube",
                                      {"dimensions": 8,
                                       "nodes_per_router": 4}), 16)
        assert plan.node_count() == 1024
        assert len(plan.crossbar_names()) == 256


class TestPortClaims:
    def test_double_claim_names_crossbar_port_and_holder(self):
        from repro.network.topology import Fabric

        fabric = Fabric(Simulator())
        fabric.add_crossbar("x")
        fabric.attach_node(0, 0, "x", 3)
        with pytest.raises(ValueError) as exc:
            fabric.attach_node(1, 0, "x", 3)
        message = str(exc.value)
        assert "'x' port 3" in message
        assert "node 0 iface 0" in message
        assert "free ports" in message

    def test_free_ports_shrink_and_claims_are_labelled(self):
        from repro.network.topology import Fabric

        fabric = Fabric(Simulator())
        fabric.add_crossbar("x")
        fabric.add_crossbar("y")
        assert fabric.free_ports("x") == list(range(16))
        fabric.attach_node(0, 0, "x", 0)
        fabric.connect_crossbars("x", 5, "y", 7)
        assert fabric.free_ports("x") == [p for p in range(16)
                                          if p not in (0, 5)]
        claims = fabric.port_claims("x")
        assert claims[0] == "node 0 iface 0"
        assert claims[5] == "dual link to y port 7"

    def test_unknown_crossbar_named_in_error(self):
        from repro.network.topology import Fabric

        fabric = Fabric(Simulator())
        fabric.add_crossbar("x")
        with pytest.raises(KeyError, match="no crossbar 'z'"):
            fabric.free_ports("z")
