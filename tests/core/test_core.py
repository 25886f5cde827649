"""Tests for the machine specs and the PowerMannaSystem façade."""

import pytest

import repro
from repro.core.machine import PowerMannaSystem
from repro.core.specs import (
    PC_CLUSTER_180,
    PC_CLUSTER_266,
    POWERMANNA,
    SUN_ULTRA,
    list_machines,
    machine,
    table1,
)


class TestMachineSpecs:
    def test_lookup(self):
        assert machine("powermanna") is POWERMANNA
        assert machine("PC266") is PC_CLUSTER_266
        with pytest.raises(KeyError):
            machine("cray-t3e")

    def test_list_machines(self):
        assert list_machines() == ["pc180", "pc266", "powermanna", "sun"]

    def test_table1_matches_paper_columns(self):
        rows = table1()
        by_type = {row["System Type"]: row for row in rows}
        assert by_type["PowerMANNA"]["Processor Clock"] == "180 MHz"
        assert by_type["PowerMANNA"]["Cache line"] == "64 byte"
        assert by_type["PowerMANNA"]["Secondary Cache"] == "2/2 Mbyte"
        assert by_type["SUN"]["Bus Clock"] == "84 MHz"
        assert by_type["SUN"]["Node Memory"] == "576 Mbyte"
        assert by_type["PC"]["Primary Cache"] == "16/16 Kbyte"
        assert by_type["PC"]["Operating System"] == "Linux"

    def test_every_machine_is_dual_processor(self):
        for key in list_machines():
            assert machine(key).num_cpus == 2

    def test_fabric_kinds_differ(self):
        from repro.memory.mp import FabricKind
        assert POWERMANNA.fabric.kind == FabricKind.SWITCHED
        assert SUN_ULTRA.fabric.kind == FabricKind.SPLIT_BUS
        assert PC_CLUSTER_180.fabric.kind == FabricKind.SHARED_BUS

    def test_node_builder_scales(self):
        node = POWERMANNA.node(scale=8)
        assert node.hierarchy.l2.size_bytes == 256 * 1024


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__

    def test_top_level_exports(self):
        assert repro.POWERMANNA is POWERMANNA
        assert repro.machine("sun") is SUN_ULTRA
        assert repro.table1()


class TestPowerMannaSystem:
    def test_cluster_shape(self):
        system = PowerMannaSystem.cluster()
        assert system.num_nodes == 8
        assert system.num_processors == 16
        assert len(system.worlds) == 2
        assert "8 nodes" in system.describe()

    def test_node_models_cached(self):
        system = PowerMannaSystem.cluster()
        assert system.node(0) is system.node(0)
        assert system.node(0) is not system.node(1)
        with pytest.raises(KeyError):
            system.node(99)

    def test_logp_measurement(self):
        system = PowerMannaSystem.cluster()
        params = system.logp(0, 1, 8)
        assert params.latency_ns / 1e3 == pytest.approx(2.75, rel=0.15)

    def test_both_planes_usable(self):
        system = PowerMannaSystem.cluster()
        lat0 = system.world(0).one_way_latency_ns(0, 1, 8, reps=2)
        lat1 = system.world(1).one_way_latency_ns(2, 3, 8, reps=2)
        assert lat0 == pytest.approx(lat1, rel=0.05)

    def test_fifo_words_knob(self):
        system = PowerMannaSystem.cluster(fifo_words=64)
        assert system.ni_config.fifo_bytes == 512
        assert system.fabric.node_rx_fifo_bytes == 512

    def test_256_processor_system(self):
        system = PowerMannaSystem.system_256()
        assert system.num_nodes == 128
        assert system.num_processors == 256

    def test_any_spec_one_world_per_wired_plane(self):
        from repro.network.topo import TopologySpec

        system = PowerMannaSystem(TopologySpec("cluster", {"planes": 1}))
        assert system.num_nodes == 8
        assert len(system.worlds) == 1
        cube = PowerMannaSystem(TopologySpec("hypercube", {"dimensions": 2}))
        assert cube.num_nodes == 4
        assert len(cube.worlds) == 1

    def test_flow_spec_rejected(self):
        from repro.network.topo import TopologySpec

        with pytest.raises(ValueError, match="flit"):
            PowerMannaSystem(TopologySpec("cluster", fidelity="flow"))
