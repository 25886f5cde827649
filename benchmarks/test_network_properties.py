"""Section 3 properties of the communication system.

* Collision-free through-routing of a crossbar takes 0.2 us (Section 3.1).
* The link protocol delivers 60 Mbyte/s per direction, 120 Mbyte/s full
  duplex (Section 3.2).
* In the 256-processor system "a logical connection between any two nodes
  involves at most only three crossbars" (Section 3.2/Figure 5b).
* The grid (row/column) reading of Figure 5b is strictly worse: not all
  node pairs are wormhole-reachable — quantified here as the reason the
  reproduction builds the spine topology (see DESIGN.md).
"""

import pytest

from conftest import announce

from repro.bench.report import format_table
from repro.msg.api import build_cluster_world
from repro.network.crossbar import CrossbarConfig
from repro.network.link import LinkConfig
from repro.network.routing import RouteTable
from repro.network.topo import build_fabric
from repro.network.topology import grid_spec, manna_spec, node_key
from repro.sim.engine import Simulator


def route_study():
    sim = Simulator()
    fabric = build_fabric(sim, manna_spec())
    table = RouteTable(fabric.graph)
    sample_nodes = (0, 1, 7, 8, 15, 16, 63, 64, 100, 120, 127)
    counts = {}
    for src in sample_nodes:
        for dst in sample_nodes:
            if src == dst:
                continue
            hops = table.crossbars_on_path(node_key(src, 0),
                                           node_key(dst, 0))
            counts[hops] = counts.get(hops, 0) + 1
    return counts


def grid_reachability():
    sim = Simulator()
    fabric = build_fabric(sim, grid_spec(rows=4, cols=4, nodes_per_cluster=8))
    table = RouteTable(fabric.graph)
    # One representative node per cluster keeps the pair count tractable.
    endpoints = [node_key(cluster * 8, 0) for cluster in range(16)]
    return table.reachable_fraction(endpoints)


@pytest.fixture(scope="module")
def hop_counts():
    return route_study()


class TestCrossbarTiming:
    def test_through_routing_is_200ns(self, once):
        config = once(CrossbarConfig)
        assert config.route_setup_ns == pytest.approx(200.0)

    def test_full_duplex_bandwidth(self):
        config = LinkConfig()
        assert config.bandwidth_mb_s == pytest.approx(60.0)
        # Duplicated network interface: 2 planes x full duplex = 240 MB/s
        # total node connectivity, as the paper headline states.
        assert 2 * 2 * config.bandwidth_mb_s == pytest.approx(240.0)

    def test_cluster_route_latency_includes_setup(self):
        _, world = build_cluster_world()
        latency = world.one_way_latency_ns(0, 1, 0, reps=2)
        assert latency > 200.0     # must pay at least the through-routing


class TestDiameter256:
    def test_at_most_three_crossbars(self, once, hop_counts):
        counts = once(lambda: hop_counts)
        rows = [[hops, count] for hops, count in sorted(counts.items())]
        announce("256-processor system: crossbars per connection "
                 "(sampled node pairs)",
                 format_table(["crossbars", "pairs"], rows))
        assert max(counts) <= 3

    def test_intra_cluster_pairs_use_one_crossbar(self, hop_counts):
        assert hop_counts.get(1, 0) > 0

    def test_inter_cluster_pairs_use_three(self, hop_counts):
        assert hop_counts.get(3, 0) > 0
        assert hop_counts.get(2, 0) is not None  # 2-hop never occurs here
        assert 2 not in hop_counts

    def test_grid_reading_is_strictly_worse(self):
        fraction = grid_reachability()
        announce("Grid (row/column) reading of Figure 5b",
                 format_table(["metric", "value"],
                              [["wormhole-reachable cluster pairs",
                                f"{fraction:.2%}"]]))
        # Only same-row pairs are reachable on plane 0.
        assert fraction < 0.5


class TestLatencyScalesWithCrossbars:
    def test_each_crossbar_adds_setup_time(self):
        from repro.msg.api import CommWorld
        sim = Simulator()
        fabric = build_fabric(sim, manna_spec(clusters=4, nodes_per_cluster=8))
        world = CommWorld(sim, fabric)
        one_hop = world.one_way_latency_ns(0, 1, 8, reps=2)
        three_hop = world.one_way_latency_ns(0, 15, 8, reps=2)
        added = three_hop - one_hop
        # Two extra crossbars (setup + forward) + one cable flight each way.
        assert added > 400.0
        assert added < 2000.0
