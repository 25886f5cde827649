"""Tests for the RouteTable failure API and fault-aware rerouting."""

import pytest

from repro.network.routing import NoRouteError, RouteTable
from repro.network.topo import build_fabric
from repro.network.topology import (
    cluster_spec,
    manna_spec,
    node_key,
    xbar_key,
)
from repro.sim.engine import Simulator


def manna():
    sim = Simulator()
    fabric = build_fabric(sim, manna_spec(clusters=4, nodes_per_cluster=4))
    return fabric, RouteTable(fabric.graph)


def endpoints(fabric):
    return [node_key(n, 0) for n in fabric.node_ids()]


class TestFailureAPI:
    def test_unknown_edge_and_vertex_raise(self):
        fabric, routes = manna()
        with pytest.raises(KeyError):
            routes.mark_edge_failed(xbar_key("c0.plane0"),
                                    xbar_key("c3.plane0"))
        with pytest.raises(KeyError):
            routes.mark_vertex_failed(xbar_key("nonesuch"))

    def test_failures_are_tracked_and_cleared(self):
        fabric, routes = manna()
        edge = (xbar_key("c0.plane0"), xbar_key("spine0.0"))
        assert fabric.graph.has_edge(*edge)
        routes.mark_edge_failed(*edge)
        routes.mark_vertex_failed(xbar_key("spine0.1"))
        assert edge in routes.failed_edges
        assert xbar_key("spine0.1") in routes.failed_vertices
        routes.clear_failures()
        assert not routes.failed_edges
        assert not routes.failed_vertices

    def test_invalidate_bumps_version_and_drops_cache(self):
        fabric, routes = manna()
        src, dst = node_key(0, 0), node_key(8, 0)
        before = routes.route_bytes(src, dst)
        version = routes.version
        routes.invalidate()
        assert routes.version == version + 1
        assert routes.route_bytes(src, dst) == before  # same topology


class TestRerouting:
    def test_failed_edge_moves_the_route(self):
        """Failing the spine edge a route uses must produce a different
        route through a surviving spine, not a NoRouteError."""
        fabric, routes = manna()
        src, dst = node_key(0, 0), node_key(8, 0)
        path = routes.path(src, dst)
        # First inter-crossbar hop: cluster crossbar -> some spine.
        routes.mark_edge_failed(path[1], path[2])
        replacement = routes.path(src, dst)
        assert replacement != path
        assert (path[1], path[2]) not in zip(replacement, replacement[1:])
        assert routes.route_bytes(src, dst)  # still routable end to end

    def test_failed_vertex_excluded_from_paths(self):
        fabric, routes = manna()
        src, dst = node_key(0, 0), node_key(8, 0)
        spine = routes.path(src, dst)[2]
        routes.mark_vertex_failed(spine)
        assert spine not in routes.path(src, dst)

    def test_reachability_survives_single_spine_loss(self):
        """The scaled manna system has 12 spine crossbars; losing one
        leaves every node pair connected (the paper's path diversity)."""
        fabric, routes = manna()
        eps = endpoints(fabric)
        assert routes.reachable_fraction(eps) == 1.0
        routes.mark_vertex_failed(xbar_key("spine0.0"))
        assert routes.reachable_fraction(eps) == 1.0

    def test_reachable_fraction_drops_when_cluster_cut_off(self):
        """Failing every spine edge out of one cluster's crossbar strands
        its nodes: reachability falls below 1 by exactly the pairs that
        cross that cluster boundary."""
        fabric, routes = manna()
        eps = endpoints(fabric)
        xkey = xbar_key("c0.plane0")
        for succ in list(fabric.graph.successors(xkey)):
            if succ in [node_key(n, 0) for n in fabric.node_ids()]:
                continue
            routes.mark_edge_failed(xkey, succ)
        fraction = routes.reachable_fraction(eps)
        # Only the *outbound* edges died: cluster 0's 4 nodes cannot
        # reach the other 12, but inbound spine edges still deliver to
        # them, so exactly 4*12 of the 16*15 ordered pairs are lost.
        assert fraction == pytest.approx(1.0 - 4 * 12 / (16 * 15))
        with pytest.raises(NoRouteError):
            routes.path(node_key(0, 0), node_key(8, 0))
        routes.path(node_key(8, 0), node_key(0, 0))  # inbound still works
        routes.path(node_key(0, 0), node_key(1, 0))  # intra-cluster ok


class TestClusterFabric:
    def test_single_crossbar_cluster_loses_everything(self):
        sim = Simulator()
        fabric = build_fabric(sim, cluster_spec())
        routes = RouteTable(fabric.graph)
        eps = [node_key(n, 0) for n in fabric.node_ids()]
        assert routes.reachable_fraction(eps) == 1.0
        routes.mark_vertex_failed(xbar_key("plane0"))
        assert routes.reachable_fraction(eps) == 0.0
