"""Tests for fabrics, topologies and route computation."""

import pytest

from repro.network.routing import NoRouteError, RouteTable
from repro.network.topo import build_fabric
from repro.network.topology import (
    Fabric,
    cluster_spec,
    grid_spec,
    manna_spec,
    node_key,
    xbar_key,
)
from repro.network.transceiver import TransceiverConfig
from repro.sim.engine import Simulator


class TestFabricWiring:
    def test_attach_node_claims_port(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_crossbar("x")
        fabric.attach_node(0, 0, "x", 0)
        with pytest.raises(ValueError, match="already wired"):
            fabric.attach_node(1, 0, "x", 0)

    def test_duplicate_node_attachment_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_crossbar("x")
        fabric.attach_node(0, 0, "x", 0)
        with pytest.raises(ValueError, match="already attached"):
            fabric.attach_node(0, 0, "x", 1)

    def test_duplicate_crossbar_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_crossbar("x")
        with pytest.raises(ValueError):
            fabric.add_crossbar("x")

    def test_free_ports_shrink(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_crossbar("x")
        assert len(fabric.free_ports("x")) == 16
        fabric.attach_node(0, 0, "x", 3)
        assert 3 not in fabric.free_ports("x")

    def test_connect_crossbars_uses_both_ports(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_crossbar("a")
        fabric.add_crossbar("b")
        fabric.connect_crossbars("a", 15, "b", 14)
        assert 15 not in fabric.free_ports("a")
        assert 14 not in fabric.free_ports("b")

    def test_missing_attachment_lookup(self):
        sim = Simulator()
        fabric = Fabric(sim)
        with pytest.raises(KeyError):
            fabric.attachment(0, 0)


class TestClusterTopology:
    def test_eight_nodes_two_planes(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec())
        assert fabric.node_ids() == list(range(8))
        assert set(fabric.crossbars) == {"plane0", "plane1"}
        # 8 free ports per plane for inter-cluster links (paper Fig. 5a).
        assert len(fabric.free_ports("plane0")) == 8

    def test_route_within_cluster_is_one_crossbar(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec())
        table = RouteTable(fabric.graph)
        route = table.route_bytes(node_key(0, 0), node_key(5, 0))
        assert route == [5]
        assert table.crossbars_on_path(node_key(0, 0), node_key(5, 0)) == 1

    def test_planes_are_independent(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec())
        table = RouteTable(fabric.graph)
        with pytest.raises(NoRouteError):
            table.route_bytes(node_key(0, 0), node_key(5, 1))

    def test_too_many_nodes_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_fabric(sim, cluster_spec(n_nodes=20))


class TestPowerManna256:
    @pytest.fixture(scope="class")
    def system(self):
        sim = Simulator()
        fabric = build_fabric(sim, manna_spec())
        return fabric, RouteTable(fabric.graph)

    def test_128_nodes(self, system):
        fabric, _ = system
        assert len(fabric.node_ids()) == 128

    def test_intra_cluster_one_crossbar(self, system):
        _, table = system
        assert table.crossbars_on_path(node_key(0, 0), node_key(7, 0)) == 1

    def test_inter_cluster_three_crossbars(self, system):
        _, table = system
        # Nodes 0 and 127 are in different clusters: the paper's claim is
        # "at most only three crossbars".
        assert table.crossbars_on_path(node_key(0, 0), node_key(127, 0)) == 3

    def test_route_lengths_match_crossbars(self, system):
        _, table = system
        route = table.route_bytes(node_key(0, 0), node_key(127, 0))
        assert len(route) == 3

    def test_diameter_sample_is_three(self, system):
        _, table = system
        sample = [node_key(n, 0) for n in (0, 7, 8, 63, 64, 120, 127)]
        assert table.network_diameter_crossbars(sample) == 3

    def test_both_planes_fully_connected(self, system):
        _, table = system
        assert table.crossbars_on_path(node_key(3, 1), node_key(99, 1)) == 3


class TestGridSystem:
    def test_grid_connects_rows_and_columns_only(self):
        sim = Simulator()
        fabric = build_fabric(sim, grid_spec(rows=2, cols=2,
                                             nodes_per_cluster=4))
        table = RouteTable(fabric.graph)
        # Same row (clusters 0 and 1) reachable on plane 0.
        assert table.crossbars_on_path(node_key(0, 0), node_key(7, 0)) == 3
        # Same column (clusters 0 and 2) reachable on plane 1.
        assert table.crossbars_on_path(node_key(0, 1), node_key(11, 1)) == 3
        # Diagonal (clusters 0 and 3) needs a software relay.
        with pytest.raises(NoRouteError):
            table.route_bytes(node_key(0, 0), node_key(15, 0))

    def test_reachable_fraction_below_one(self):
        sim = Simulator()
        fabric = build_fabric(sim, grid_spec(rows=2, cols=2,
                                             nodes_per_cluster=4))
        table = RouteTable(fabric.graph)
        endpoints = [node_key(n, 0) for n in range(0, 16, 4)]
        fraction = table.reachable_fraction(endpoints)
        assert 0.0 < fraction < 1.0


class TestRouteTable:
    def test_routes_never_transit_other_nodes(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec(n_nodes=4))
        table = RouteTable(fabric.graph)
        path = table.path(node_key(0, 0), node_key(3, 0))
        interior = path[1:-1]
        assert all(hop[0] == "xbar" for hop in interior)

    def test_cache_returns_copies(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec())
        table = RouteTable(fabric.graph)
        route1 = table.route_bytes(node_key(0, 0), node_key(1, 0))
        route1.append(99)
        route2 = table.route_bytes(node_key(0, 0), node_key(1, 0))
        assert route2 == [1]

    def test_invalidate_clears_cache(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec())
        table = RouteTable(fabric.graph)
        table.route_bytes(node_key(0, 0), node_key(1, 0))
        table.invalidate()
        assert table._cache == {}

    def test_unknown_endpoint(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec())
        table = RouteTable(fabric.graph)
        with pytest.raises(NoRouteError):
            table.route_bytes(node_key(0, 0), node_key(99, 0))


class TestPathMemo:
    """The path memo must never serve a route computed under a stale
    failure epoch — satellite: cache correctness under failure/clear."""

    @staticmethod
    def _manna_table():
        fabric = build_fabric(Simulator(), manna_spec())
        return RouteTable(fabric.graph)

    def test_repeat_lookups_hit_the_memo(self):
        table = self._manna_table()
        src, dst = node_key(0, 0), node_key(127, 0)
        first = table.path(src, dst)
        searched = table.searches
        assert table.path(src, dst) == first
        assert table.path(src, dst) == first
        assert table.searches == searched  # no further searches ran

    def test_memoed_path_is_a_copy(self):
        table = self._manna_table()
        src, dst = node_key(0, 0), node_key(1, 0)
        path = table.path(src, dst)
        path.append("garbage")
        assert "garbage" not in table.path(src, dst)

    def test_failure_drops_memo_and_reroutes(self):
        table = self._manna_table()
        src, dst = node_key(0, 0), node_key(127, 0)
        original = table.path(src, dst)
        # Kill the spine crossbar the original route used.
        spine = next(hop for hop in original[1:-1]
                     if "spine" in hop[1])
        table.mark_vertex_failed(spine)
        rerouted = table.path(src, dst)
        assert spine not in rerouted
        assert rerouted != original
        assert table.searches == 2  # memo was dropped, search re-ran

    def test_clear_failures_restores_original_route(self):
        table = self._manna_table()
        src, dst = node_key(0, 0), node_key(127, 0)
        original = table.path(src, dst)
        spine = next(hop for hop in original[1:-1]
                     if "spine" in hop[1])
        table.mark_vertex_failed(spine)
        table.path(src, dst)
        table.clear_failures()
        # Deterministic shortest path: the repaired fabric routes
        # exactly as before the failure epoch.
        assert table.path(src, dst) == original
        assert table.searches == 3

    def test_route_bytes_follow_the_memo_epoch(self):
        table = self._manna_table()
        src, dst = node_key(0, 0), node_key(127, 0)
        before = table.route_bytes(src, dst)
        spine = next(hop for hop in table.path(src, dst)[1:-1]
                     if "spine" in hop[1])
        table.mark_vertex_failed(spine)
        after = table.route_bytes(src, dst)
        assert after != before
        table.clear_failures()
        assert table.route_bytes(src, dst) == before


class TestNoRouteContext:
    """Satellite: NoRouteError must say which failures cut the route."""

    def test_error_carries_endpoints_and_failures(self):
        fabric = build_fabric(Simulator(), cluster_spec(n_nodes=4))
        table = RouteTable(fabric.graph)
        src, dst = node_key(0, 0), node_key(3, 0)
        table.mark_vertex_failed(xbar_key("plane0"))
        with pytest.raises(NoRouteError) as exc:
            table.path(src, dst)
        error = exc.value
        assert error.src == src
        assert error.dst == dst
        assert error.failed_vertices == {xbar_key("plane0")}
        assert error.failed_edges == set()
        message = str(error)
        assert "1 failed vertex(es)" in message
        assert "plane0" in message

    def test_error_summarises_failed_edges(self):
        fabric = build_fabric(Simulator(), cluster_spec(n_nodes=2))
        table = RouteTable(fabric.graph)
        src, dst = node_key(0, 0), node_key(1, 0)
        table.mark_edge_failed(src, xbar_key("plane0"))
        with pytest.raises(NoRouteError) as exc:
            table.path(src, dst)
        assert exc.value.failed_edges == {(src, xbar_key("plane0"))}
        assert "1 failed edge(s)" in str(exc.value)

    def test_pristine_graph_says_so(self):
        fabric = build_fabric(Simulator(), cluster_spec())
        table = RouteTable(fabric.graph)
        with pytest.raises(NoRouteError, match="no failures marked"):
            table.path(node_key(0, 0), node_key(99, 0))

    def test_many_failures_truncate_with_count(self):
        fabric = build_fabric(Simulator(), manna_spec())
        table = RouteTable(fabric.graph)
        src = node_key(0, 0)
        for xbar in list(table.graph.nodes):
            if xbar[0] == "xbar":
                table.mark_vertex_failed(xbar)
        with pytest.raises(NoRouteError) as exc:
            table.path(src, node_key(127, 0))
        assert "... " in str(exc.value)
        assert " more" in str(exc.value)


class TestTransceiver:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransceiverConfig(cable_m=0.0)
        with pytest.raises(ValueError):
            TransceiverConfig(fifo_bytes=10)

    def test_propagation_scales_with_cable(self):
        short = TransceiverConfig(cable_m=5.0)
        long = TransceiverConfig(cable_m=30.0)
        assert long.propagation_ns == pytest.approx(150.0)
        assert long.propagation_ns > short.propagation_ns

    def test_async_links_used_between_cabinets(self):
        sim = Simulator()
        fabric = Fabric(sim)
        fabric.add_crossbar("a")
        fabric.add_crossbar("b")
        fabric.connect_crossbars("a", 15, "b", 15, asynchronous=True)
        # The wiring graph records the connection either way.
        assert fabric.graph.has_edge(xbar_key("a"), xbar_key("b"))
