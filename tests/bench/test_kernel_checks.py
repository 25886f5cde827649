"""Seven simulated figures, one per figure family, pinned to the float.

Each case runs one representative kernel at a fixed scaled size and
compares a deterministic simulation-side value (a QUIPS figure, a
MFLOPS rate, an elapsed time, a latency sum, a bandwidth, a crossbar
count) with ``==``. Any drift means the kernel's semantics changed, not
its speed: a deliberate change updates the value here in the same
commit and says why. Speed is figbench's concern
(``tests/perf/test_smoke.py``).
"""

import pytest


def fig6_hint():
    """HINT refinement and checkpoint-scan replays (DOUBLE, scale 16)."""
    from repro.bench.hint import hint_on_machine
    from repro.core.specs import POWERMANNA

    return hint_on_machine(POWERMANNA, data_type="double", scale=16,
                           max_subintervals=2048).final_quips


def fig7_matmult():
    """A full naive MatMult trace replay on one CPU (N=48, scale 16)."""
    from repro.bench.matmult import run_matmult
    from repro.core.specs import POWERMANNA

    return run_matmult(POWERMANNA.node(scale=16), 48, version="naive",
                       machine_key="powermanna").mflops


def fig8_smp():
    """The same MatMult on both CPUs of one node: fig8's engine."""
    from repro.bench.matmult import run_matmult
    from repro.core.specs import POWERMANNA

    return run_matmult(POWERMANNA.node(scale=16), 48, version="naive",
                       cpus=2, machine_key="powermanna").elapsed_ns


def fig9_pingpong():
    """One-way latency ping-pongs over the full DES stack, summed."""
    from repro.msg.api import build_cluster_world

    _, world = build_cluster_world()
    return sum(world.one_way_latency_ns(0, 1, nbytes)
               for nbytes in (8, 64, 512, 1024))


def fig11_unidir():
    """Back-to-back streaming bandwidth: the DES under load."""
    from repro.msg.api import build_cluster_world

    _, world = build_cluster_world()
    return world.unidirectional_mb_s(0, 1, 4096, count=8)


def traffic_incast():
    """One classed load point on the 32-node crossbar tree under the
    priority arbiter: the contended DES path."""
    from repro.bench.traffic import parse_classes, parse_mix, run_load
    from repro.msg.api import build_topology_world
    from repro.network.crossbar import CrossbarConfig
    from repro.network.qos import QosConfig
    from repro.network.topo import parse_topology

    qos = QosConfig(arbiter="priority", classes=parse_classes(
        "urgent:prio=0:weight=4,bulk:prio=1:weight=1"))
    _, world = build_topology_world(
        parse_topology("xbar_tree:levels=2,arity=4"),
        crossbar_config=CrossbarConfig(qos=qos))
    return run_load(
        world, qos=qos, load=0.8, messages=6, seed=11,
        mix=parse_mix("urgent=incast:0.2:odd,bulk=hotspot:0.8:even"),
    ).elapsed_ns


def topo_hypercube_1k():
    """A realised 1024-node hypercube flit fabric (no simulation run)."""
    from repro.network.topo import TopologySpec, build_fabric
    from repro.sim.engine import Simulator

    spec = TopologySpec("hypercube", {"dimensions": 8, "nodes_per_router": 4})
    return float(len(build_fabric(Simulator(), spec).crossbars))


CHECKS = [
    (fig6_hint, 8502.131021863212),
    (fig7_matmult, 37.55930622349828),
    (fig8_smp, 5889086.666638489),
    (fig9_pingpong, 37173.466666665496),
    (fig11_unidir, 59.69104129790381),
    (traffic_incast, 1557176.7666664948),
    (topo_hypercube_1k, 256.0),
]


@pytest.mark.parametrize("kernel, expected", CHECKS,
                         ids=[kernel.__name__ for kernel, _ in CHECKS])
def test_kernel_check_is_exact(kernel, expected):
    assert kernel() == expected
