"""Tests for the traffic-pattern and offered-load harnesses."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.traffic import (
    ClassTraffic,
    TrafficResult,
    _delivery_timestamp,
    _destinations,
    _percentile,
    build_injection_plan,
    default_mix,
    parse_classes,
    parse_loads,
    parse_mix,
    pattern_comparison,
    run_load,
    run_pattern,
    traffic_point_task,
)
from repro.cli import main
from repro.msg.api import build_cluster_world
from repro.network.message import Message
from repro.network.qos import QosConfig, TrafficClass

GOLDENS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                       "goldens")


class TestDestinationPlans:
    def test_permutation_is_a_permutation_each_round(self):
        nodes = list(range(8))
        plan = _destinations("permutation", nodes, rounds=3, seed=1)
        for row in plan:
            assert sorted(row) == nodes        # bijection
            assert all(src != dst for src, dst in zip(nodes, row))

    def test_random_never_self_sends(self):
        nodes = list(range(8))
        plan = _destinations("random", nodes, rounds=5, seed=3)
        for row in plan:
            assert all(src != dst for src, dst in zip(nodes, row))

    def test_random_is_seed_deterministic(self):
        nodes = list(range(8))
        assert (_destinations("random", nodes, 3, seed=5)
                == _destinations("random", nodes, 3, seed=5))

    def test_hotspot_targets_node_zero(self):
        nodes = list(range(8))
        plan = _destinations("hotspot", nodes, rounds=1, seed=1)
        assert plan[0][1:] == [0] * 7
        assert plan[0][0] == 1                 # node 0 sends elsewhere

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            _destinations("tornado", [0, 1], 1, 1)

    def test_two_node_permutation(self):
        plan = _destinations("permutation", [0, 1], rounds=3, seed=1)
        assert plan == [[1, 0], [1, 0], [1, 0]]

    def test_two_node_hotspot(self):
        plan = _destinations("hotspot", [0, 1], rounds=2, seed=1)
        assert plan == [[1, 0], [1, 0]]

    def test_random_seed_changes_plan(self):
        nodes = list(range(8))
        assert (_destinations("random", nodes, 4, seed=1)
                != _destinations("random", nodes, 4, seed=2))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=2, max_value=24),
           rounds=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_permutation_rows_never_self_send(self, n, rounds, seed):
        nodes = list(range(n))
        plan = _destinations("permutation", nodes, rounds, seed)
        for row in plan:
            assert sorted(row) == nodes
            assert all(src != dst for src, dst in zip(nodes, row))


class TestRunPattern:
    def test_all_messages_delivered(self):
        world = build_cluster_world()[1]
        result = run_pattern(world, "permutation", message_bytes=256,
                             rounds=2)
        assert result.messages == 16
        assert result.elapsed_ns > 0
        assert result.aggregate_mb_s > 0

    def test_subset_of_nodes(self):
        world = build_cluster_world()[1]
        result = run_pattern(world, "random", nodes=[0, 2, 4, 6],
                             message_bytes=128, rounds=2)
        assert result.nodes == 4
        assert result.messages == 8

    def test_two_node_minimum(self):
        world = build_cluster_world()[1]
        with pytest.raises(ValueError):
            run_pattern(world, "permutation", nodes=[0])

    def test_per_node_metric(self):
        result = TrafficResult("p", nodes=4, messages=8, message_bytes=64,
                               elapsed_ns=1000.0, aggregate_mb_s=100.0,
                               collisions=0)
        assert result.per_node_mb_s == pytest.approx(25.0)

    def test_comparison_runs_fresh_worlds(self):
        results = pattern_comparison(lambda: build_cluster_world()[1],
                                     message_bytes=128, rounds=2)
        assert set(results) == {"permutation", "random", "hotspot"}

    def test_delivery_timestamp_keeps_a_zero(self):
        """Regression: ``delivered_at or now`` replaced a legitimate
        0.0 timestamp with the current time, inflating elapsed time.
        The pre-fix idiom fails this case."""
        message = Message(source=0, dest=1, payload_bytes=8,
                          delivered_at=0.0)
        assert _delivery_timestamp(message, 500.0) == 0.0
        assert (message.delivered_at or 500.0) == 500.0  # the old bug

    def test_delivery_timestamp_falls_back_when_unstamped(self):
        message = Message(source=0, dest=1, payload_bytes=8)
        assert _delivery_timestamp(message, 500.0) == 500.0

    def test_collision_counts_are_per_pattern(self):
        """Regression: collisions reported from a shared world must be
        the pattern's own, not a running total across patterns."""
        world = build_cluster_world()[1]
        first = run_pattern(world, "hotspot", message_bytes=512, rounds=2)
        second = run_pattern(world, "hotspot", message_bytes=512, rounds=2,
                             seed=8)
        total = sum(xbar.stats["collisions"]
                    for xbar in world.fabric.crossbars.values())
        assert first.collisions > 0
        assert second.collisions < total
        assert first.collisions + second.collisions == total


class TestInjectionPlan:
    def qos(self):
        return QosConfig(classes=(TrafficClass("urgent"),
                                  TrafficClass("bulk")))

    def test_plan_is_seed_deterministic(self):
        qos = self.qos()
        mix = {"urgent": ClassTraffic("incast", 0.3),
               "bulk": ClassTraffic("uniform", 0.7)}
        args = (list(range(8)), qos, mix, 0.5, 1024, 16, 42)
        assert build_injection_plan(*args) == build_injection_plan(*args)
        other = build_injection_plan(list(range(8)), qos, mix, 0.5, 1024,
                                     16, 43)
        assert build_injection_plan(*args) != other

    def test_no_self_sends_any_pattern(self):
        nodes = list(range(6))
        for pattern in ("uniform", "hotspot", "incast", "permutation",
                        "bursty"):
            qos = QosConfig()
            mix = {"best-effort": ClassTraffic(pattern)}
            plan = build_injection_plan(nodes, qos, mix, 0.5, 256, 8, 3)
            assert plan, pattern
            assert all(src != dst for _, src, dst, _ in plan), pattern

    def test_sender_subsets_are_disjoint(self):
        nodes = list(range(8))
        qos = self.qos()
        mix = {"urgent": ClassTraffic("incast", 0.5, senders="odd"),
               "bulk": ClassTraffic("hotspot", 0.5, senders="even")}
        plan = build_injection_plan(nodes, qos, mix, 0.5, 256, 8, 3)
        urgent_srcs = {src for _, src, _, c in plan if c == 0}
        bulk_srcs = {src for _, src, _, c in plan if c == 1}
        assert urgent_srcs and bulk_srcs
        assert not urgent_srcs & bulk_srcs

    def test_incast_rows_are_synchronized(self):
        plan = build_injection_plan(
            list(range(4)), QosConfig(),
            {"best-effort": ClassTraffic("incast")}, 0.5, 256, 4, 3)
        times = sorted({t for t, _, _, _ in plan})
        for t in times:
            senders = [src for pt, src, dst, _ in plan if pt == t]
            assert sorted(senders) == [1, 2, 3]

    def test_mix_must_cover_every_class(self):
        with pytest.raises(KeyError):
            build_injection_plan(list(range(4)), self.qos(),
                                 {"urgent": ClassTraffic()}, 0.5, 256, 8, 3)

    def test_load_bounds(self):
        with pytest.raises(ValueError):
            build_injection_plan(list(range(4)), QosConfig(),
                                 default_mix(QosConfig()), 0.0, 256, 8, 3)


class TestParsers:
    def test_parse_classes(self):
        classes = parse_classes(
            "urgent:prio=0:weight=4,bulk:prio=1:rate=30:burst=2048")
        assert classes[0] == TrafficClass("urgent", priority=0, weight=4)
        assert classes[1] == TrafficClass("bulk", priority=1,
                                          rate_mb_s=30.0, burst_bytes=2048)

    def test_parse_classes_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            parse_classes("urgent:color=red")

    def test_parse_mix(self):
        mix = parse_mix("urgent=incast:0.2:odd,bulk=hotspot:0.8:even")
        assert mix["urgent"] == ClassTraffic("incast", 0.2, senders="odd")
        assert mix["bulk"] == ClassTraffic("hotspot", 0.8, senders="even")

    def test_parse_mix_rejects_bad_entry(self):
        with pytest.raises(ValueError):
            parse_mix("just-a-pattern")

    def test_parse_loads(self):
        assert parse_loads("0.2,0.5,0.8") == [0.2, 0.5, 0.8]
        assert parse_loads("0.2:0.6:0.2") == [0.2, 0.4, 0.6]

    def test_percentile(self):
        samples = sorted(float(v) for v in range(1, 101))
        assert _percentile(samples, 0.50) == 50.0
        assert _percentile(samples, 0.99) == 99.0
        assert _percentile([], 0.99) == 0.0
        assert _percentile([7.0], 0.5) == 7.0


class TestRunLoad:
    def test_legacy_world_runs_and_accounts(self):
        world = build_cluster_world()[1]
        result = run_load(world, load=0.5, messages=8, message_bytes=256,
                          seed=3)
        assert result.arbiter == "fifo"
        assert result.goodput_mb_s > 0
        assert result.elapsed_ns > 0
        cls = result.classes[0]
        assert cls.messages == result.messages
        assert cls.latency_p99_ns >= cls.latency_p50_ns > 0

    def test_closed_loop_respects_window(self):
        world = build_cluster_world()[1]
        result = run_load(world, load=0.5, messages=8, message_bytes=256,
                          seed=3, closed_loop=True, window=2)
        assert result.goodput_mb_s > 0
        # Self-clocked: offered is reported as the achieved goodput.
        assert result.classes[0].offered_mb_s == pytest.approx(
            result.classes[0].goodput_mb_s)

    def test_point_task_round_trips_plain_dicts(self):
        from repro.network.topo import parse_topology

        spec = parse_topology("cluster")
        qos = QosConfig(arbiter="priority",
                        classes=(TrafficClass("urgent", priority=0),
                                 TrafficClass("bulk", priority=1)))
        config = {"topology": spec.to_dict(), "load": 0.5,
                  "messages": 8, "message_bytes": 256,
                  "qos": qos.to_dict(),
                  "mix": {"urgent": ClassTraffic("incast", 0.3).to_dict(),
                          "bulk": ClassTraffic("uniform", 0.7).to_dict()}}
        result = traffic_point_task(config, 17)
        assert result["arbiter"] == "priority"
        assert [c["name"] for c in result["classes"]] == ["urgent", "bulk"]
        assert result == traffic_point_task(config, 17)  # deterministic

    def test_point_task_rejects_flow_fidelity(self):
        from repro.network.topo import parse_topology

        spec = parse_topology("cluster").with_fidelity("flow")
        with pytest.raises(ValueError):
            traffic_point_task({"topology": spec.to_dict(), "load": 0.5}, 1)


class TestLoadSweep:
    def test_jobs_do_not_change_results(self):
        from repro.bench.traffic import load_sweep
        from repro.network.topo import parse_topology

        spec = parse_topology("cluster")
        kwargs = dict(messages=8, message_bytes=256, seed=9, cache=None)
        serial = load_sweep(spec, [0.3, 0.6], jobs=1, **kwargs)
        fanned = load_sweep(spec, [0.3, 0.6], jobs=2, **kwargs)
        assert serial == fanned

    def test_cli_default_traffic_matches_golden(self, capsys):
        """The default (legacy fifo) traffic table is byte-identical to
        the pre-QoS golden capture."""
        assert main(["traffic"]) in (0, None)
        out = capsys.readouterr().out
        with open(os.path.join(GOLDENS, "traffic_default.txt"),
                  encoding="utf-8") as handle:
            assert out == handle.read()

#: Two classes sharing the fabric: sparse urgent incast from odd nodes
#: over bulk hotspot traffic from even nodes.
MIXED = ["--classes", "urgent:prio=0:weight=4,bulk:prio=1:weight=1",
         "--pattern-mix", "urgent=incast:0.2:odd,bulk=hotspot:0.8:even",
         "--seed", "11", "--no-cache", "--no-journal"]


def _traffic_json(tmp_path, capsys, *args):
    """Run ``traffic ARGS --json-out``; the table and the JSON points."""
    path = tmp_path / "traffic.json"
    assert main(["traffic", *args, "--json-out", str(path)]) in (0, None)
    table = capsys.readouterr().out
    return table, path.read_text()


class TestTrafficCli:
    def test_fig9_default_path_matches_golden(self, capsys):
        assert main(["fig9", "--sizes", "8", "64", "--no-cache",
                     "--no-journal"]) in (0, None)
        out = capsys.readouterr().out
        with open(os.path.join(GOLDENS, "fig9_8_64.txt"),
                  encoding="utf-8") as handle:
            assert out == handle.read()

    @pytest.mark.parametrize("load", [[], ["--load", "0.5", "--messages",
                                           "2"]])
    def test_partitioned_fabric_is_rejected_before_any_sweep(self, load,
                                                             capsys):
        """grid joins rows on plane 0 only, so node 0 reaches no node of
        another row: one line names the pair, and no point runs."""
        assert main(["traffic", "--topology", "grid", "--no-cache",
                     "--no-journal", *load]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "traffic: grid() has no crossbar path from node 0 to node 32 "
            "on plane 0; that pair needs a software relay, which traffic "
            "patterns do not model\n")

    def test_load_sweep_table_and_json_equal_at_any_jobs(self, tmp_path,
                                                         capsys):
        args = ["--arbiter", "wdrr", *MIXED, "--load", "0.3,0.5,0.7",
                "--messages", "16"]
        serial = _traffic_json(tmp_path, capsys, *args, "--jobs", "1")
        fanned = _traffic_json(tmp_path, capsys, *args, "--jobs", "4")
        assert fanned == serial

    def test_hotspot_goodput_is_bounded_by_the_victim_link(self, tmp_path,
                                                           capsys):
        """One 60 MB/s link (and its receive FIFO) bounds the hotspot; it
        must neither exceed the line rate nor collapse."""
        _, points = _traffic_json(
            tmp_path, capsys, "--load", "0.9", "--messages", "16",
            "--pattern-mix", "best-effort=hotspot", "--no-cache",
            "--no-journal")
        goodput = json.loads(points)[0]["goodput_mb_s"]
        assert 20.0 < goodput <= 60.0

    def test_priority_beats_fifo_on_urgent_p99_under_incast(self, tmp_path,
                                                            capsys):
        def urgent_p99(arbiter):
            _, points = _traffic_json(tmp_path, capsys, *MIXED, "--load",
                                      "0.8", "--messages", "24",
                                      "--arbiter", arbiter)
            classes = {c["name"]: c for c in json.loads(points)[0]["classes"]}
            return classes["urgent"]["latency_p99_ns"]

        assert urgent_p99("priority") < urgent_p99("fifo") * 0.75
