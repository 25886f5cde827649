#!/usr/bin/env python3
"""Explore the Figure-5 topologies: routes, diameters, collision behaviour.

Builds the 8-node cluster and the 256-processor system, prints sample
source routes (the actual route-command bytes a sender would prepend),
verifies the "at most three crossbars" property, and then drives random
all-to-all traffic through one cluster plane to show the crossbar's
collision statistics.

Run:  python examples/topology_explorer.py
"""

import random

from repro.bench.report import format_table
from repro.msg.api import CommWorld
from repro.network.routing import RouteTable
from repro.network.topo import build_fabric
from repro.network.topology import cluster_spec, manna_spec, node_key
from repro.sim.engine import Simulator


def show_cluster() -> None:
    sim = Simulator()
    fabric = build_fabric(sim, cluster_spec())
    table = RouteTable(fabric.graph)
    rows = []
    for src, dst in ((0, 1), (0, 7), (3, 4)):
        route = table.route_bytes(node_key(src, 0), node_key(dst, 0))
        rows.append([f"{src} -> {dst}",
                     " ".join(f"{b:#04x}" for b in route),
                     table.crossbars_on_path(node_key(src, 0),
                                             node_key(dst, 0))])
    print(format_table(["connection", "route bytes", "crossbars"], rows,
                       title="Figure 5a cluster: source routes on plane 0"))
    print()


def show_256() -> None:
    sim = Simulator()
    fabric = build_fabric(sim, manna_spec())
    table = RouteTable(fabric.graph)
    rows = []
    for src, dst in ((0, 5), (0, 8), (0, 127), (64, 72), (9, 118)):
        route = table.route_bytes(node_key(src, 0), node_key(dst, 0))
        rows.append([f"{src} -> {dst}",
                     " ".join(f"{b:#04x}" for b in route),
                     len(route)])
    print(format_table(["connection", "route bytes", "crossbars"], rows,
                       title="256-processor system: sample routes"))
    worst = max(
        table.crossbars_on_path(node_key(a, 0), node_key(b, 0))
        for a in (0, 17, 77) for b in (5, 66, 127) if a != b)
    print(f"\nWorst case over sampled pairs: {worst} crossbars "
          "(paper: at most 3)\n")


def traffic_experiment() -> None:
    sim = Simulator()
    fabric = build_fabric(sim, cluster_spec())
    world = CommWorld(sim, fabric)
    rng = random.Random(11)
    pairs = []
    for _ in range(24):
        src, dst = rng.sample(range(8), 2)
        pairs.append((src, dst))

    receipts = {}

    def receiver(node, expected):
        for _ in range(expected):
            message = yield world.recv(node)
            receipts[message.message_id] = sim.now

    for node in range(8):
        expected = sum(1 for _, dst in pairs if dst == node)
        if expected:
            sim.process(receiver(node, expected))

    def sender():
        for src, dst in pairs:
            world.send(src, dst, 256)
            yield sim.timeout(500.0)

    sim.process(sender())
    sim.run()

    xbar = fabric.crossbars["plane0"]
    print(format_table(
        ["metric", "value"],
        [
            ["messages delivered", len(receipts)],
            ["wormhole connections", xbar.stats["connections"]],
            ["output collisions", xbar.stats["collisions"]],
            ["collision rate", f"{xbar.collision_rate():.1%}"],
            ["bytes forwarded", xbar.stats["forwarded_bytes"]],
        ],
        title="Random all-to-all burst through one cluster crossbar"))


def main() -> None:
    show_cluster()
    show_256()
    traffic_experiment()


if __name__ == "__main__":
    main()
