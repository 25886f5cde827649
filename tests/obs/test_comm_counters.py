"""Components count once, and every simulator run publishes them.

Links, crossbars, transceivers, link interfaces, drivers, both reliable
channels, the QoS router and the EARTH nodes count into their own ``Counter`` and register it with their simulator (the
sliding-window channel one per channel, per flow and per receiving
node); ``Simulator.run``/``run_until_complete`` publish the counters'
deltas into ``OBS.metrics`` when they end (:func:`repro.obs.published`).
These tests check that what a run publishes adds up to the components'
counters exactly, series by series under the labels in force when each
run ended; that the artifacts of chaos runs and the metrics of EARTH
and QoS runs are the ones recorded while those events were still
recorded into the registry as they happened; and that no other
per-event count or sample is left.
"""

import ast
import hashlib
import json
import os
from collections import Counter as CountOf

import pytest

from repro.bench.microbench import measure_point
from repro.bench.traffic import ClassTraffic, run_load
from repro.cli import main
from repro.earth.fibers import Fiber, SyncSlot
from repro.earth.operations import DataSync, Spawn
from repro.earth.runtime import EarthMachine
from repro.faults import FaultPlan
from repro.faults.chaos import build_chaos_world, run_chaos
from repro.msg.api import build_cluster_world, build_topology_world
from repro.msg.reliable import ReliableChannel
from repro.msg.sliding_window import SlidingWindowChannel
from repro.network.qos import AdaptiveConfig, QosConfig
from repro.network.topo import parse_topology
from repro.obs import OBS, PUBLISHED, observe
from repro.obs.export import metrics_json
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import Counter

PLANS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                     "fault_plans")
#: The component kinds that register with a Simulator (the others are
#: the node replay's, published by ``replay_traces``).
SIM_KINDS = ("link", "xbar", "xcvr", "ni", "driver", "reliable", "sliding",
             "sliding_flow", "sliding_node", "qos", "earth", "earth_fiber")


@pytest.fixture
def simulators(monkeypatch):
    """Every Simulator built while the test runs."""
    made = []
    init = Simulator.__init__

    def recording(self):
        init(self)
        made.append(self)

    monkeypatch.setattr(Simulator, "__init__", recording)
    return made


def _series(metric, labels):
    return metric, frozenset((key, str(value))
                             for key, value in labels.items())


def component_series(sims):
    """Per published series, the sum of the counter keys that feed it (a
    histogram's sample count), and per metric the label names its
    components give it."""
    series = CountOf()
    names = {}
    for sim in sims:
        for counter, kind, labels in sim.counters:
            for key, metric, extra in PUBLISHED[kind]:
                own = {**labels, **extra}
                names[metric] = set(own)
                series[_series(metric, own)] += (
                    len(counter) if key is None else counter[key])
    return +series, names


def published_series(metrics, names):
    """The registry's series of those metrics, with the ambient labels
    of the run (``bench``, ``nbytes``, ...) summed away."""
    series = CountOf()
    for (metric, labels), value in metrics.snapshot().items():
        if metric in names:
            series[_series(metric, {key: value for key, value in labels
                                    if key in names[metric]})] += value
    return series


def test_every_comm_component_registers_its_counter():
    sim, world = build_chaos_world("manna")
    channel = ReliableChannel(world)
    sliding = SlidingWindowChannel(world)
    sliding.send(0, 8, 64)
    router = world.enable_adaptive()
    machine = EarthMachine(world=world, sim=sim)
    fabric = world.fabric
    expected = {id(channel.stats), id(sliding.counts), id(router.stats)}
    expected.update(id(counter) for counter in sliding.node_stats.values())
    expected.add(id(sliding._flows[0, 8].stats))
    expected.update(id(node.stats) for node in machine.nodes)
    expected.update(id(node.fiber_latency) for node in machine.nodes)
    for xbar in fabric.crossbars.values():
        expected.add(id(xbar.stats))
        expected.update(id(link.stats) for link in xbar.output_links
                        if link is not None)
    for attachment in fabric.attachments.values():
        expected.add(id(attachment.tx_link.stats))
    for node in world.node_ids():
        endpoint = world.endpoint(node)
        expected.update((id(endpoint.ni.stats), id(endpoint.driver.stats)))
    registered = {id(counter) for counter, _, _ in sim.counters}
    assert expected <= registered
    # The inter-cabinet links of manna add a transceiver counter each.
    assert {kind for _, kind, _ in sim.counters} == set(SIM_KINDS)
    assert set(SIM_KINDS) <= set(PUBLISHED)


CRASH = {"kind": "node_crash", "at_ns": 5000.0, "site": "*"}


def _smoke(**options):
    return run_chaos(FaultPlan.load(f"{PLANS}/smoke.json"), messages=4,
                     **options)


def _crash(node):
    return lambda: run_chaos(FaultPlan.from_dict(
        {"seed": 1, "faults": [dict(CRASH, node=node)]}), messages=4)


def _earth_fib(n=8):
    """fib(n) spread over the 8 EARTH nodes, children two hops apart."""
    machine = EarthMachine()

    def make(n, reply_node, frame, key, slot):
        def start(node, mine):
            if n < 2:
                return [DataSync(node=reply_node, frame=frame, key=key,
                                 value=n, slot=slot)]

            def combine(node_, done):
                return [DataSync(node=reply_node, frame=frame, key=key,
                                 value=done["l"] + done["r"], slot=slot)]

            sync = SyncSlot(2, Fiber(combine, frame=mine, label="sync"))
            here = node.node_id
            return [Spawn(node=(here + 1) % 8,
                          fiber=make(n - 1, here, mine, "l", sync)),
                    Spawn(node=(here + 2) % 8,
                          fiber=make(n - 2, here, mine, "r", sync))]

        return Fiber(start, frame={}, label=f"fib({n})")

    result = {}
    machine.spawn(0, make(n, 0, result, "v",
                          SyncSlot(1, Fiber(lambda node, frame: []))))
    machine.run()
    assert result["v"] == 21


def _qos_hotspot():
    """tests/network/test_qos.py::test_reroutes_under_hotspot_load."""
    _, world = build_topology_world(parse_topology("cluster"))
    world.enable_adaptive(AdaptiveConfig(depth_threshold=2,
                                         check_interval_ns=500.0))
    run_load(world, qos=QosConfig(),
             mix={"best-effort": ClassTraffic("hotspot")},
             load=0.9, messages=24, seed=5)


def _qos_fat_tree_hotspot():
    """A hotspot on a fabric with other paths, where routes do change."""
    _, world = build_topology_world(parse_topology("fat_tree"))
    world.enable_adaptive(AdaptiveConfig(depth_threshold=1,
                                         check_interval_ns=500.0))
    run_load(world, qos=QosConfig(),
             mix={"best-effort": ClassTraffic("hotspot")},
             load=0.9, messages=8, seed=5)


#: A run, and the metrics it must publish.
RUNS = {
    "fig9_latency": (lambda: measure_point(
        build_cluster_world()[1], 0, 1, 64, "latency"),
        ("link.messages", "xbar.connections", "driver.sent",
         "driver.received_bytes", "ni.tx_messages")),
    "fig12_bidir": (lambda: measure_point(
        build_cluster_world()[1], 0, 1, 4096, "bidir"),
        ("link.messages", "xbar.connections", "driver.exchanges")),
    "chaos_smoke": (_smoke, ("faults.dropped_flits",
                             "faults.corrupted_messages", "ni.crc_errors",
                             "sliding.transmissions", "sliding.acked",
                             "sliding.discarded", "sliding.out_of_order")),
    "chaos_smoke_stopwait": (lambda: _smoke(protocol="stopwait"),
                             ("reliable.retransmissions",
                              "reliable.delivered", "ni.crc_errors")),
    "port_down": (lambda: run_chaos(
        FaultPlan.load(f"{PLANS}/port_down.json"), topology="manna",
        messages=6),
        ("faults.xbar_ports_down", "faults.blackholed",
         "faults.wormhole_teardowns", "xcvr.messages", "faults.reroutes")),
    "grid_storm": (lambda: run_chaos(
        FaultPlan.load(f"{PLANS}/grid_storm.json"), topology="grid",
        messages=8),
        ("faults.link_down", "faults.xcvr_stalls", "sliding.timeouts")),
    "crash_source": (_crash(1), ("sliding.failed_flows",)),
    "crash_sink": (_crash(4), ("faults.crashed_node_drops",
                               "sliding.failed_flows")),
    "earth_fib": (_earth_fib, ("earth.fibers_run", "earth.messages_handled",
                               "earth.fiber_ns", "link.messages")),
    "qos_hotspot": (_qos_hotspot, ("xbar.collisions",)),
    "qos_fat_tree_hotspot": (_qos_fat_tree_hotspot,
                             ("qos.reroutes", "qos.route_fallbacks")),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_published_totals_equal_component_counters(run, simulators):
    execute, required = RUNS[run]
    with observe() as session:
        execute()
    expected, names = component_series(simulators)
    assert published_series(session.metrics, names) == expected
    present = {metric for metric, _ in expected}
    assert set(required) <= present, set(required) - present


def test_each_run_publishes_its_deltas_under_its_own_labels():
    sim, world = build_cluster_world()
    with observe() as session:
        world.ping_pong(0, 1, 8)
        world.ping_pong(0, 1, 64)
    snapshot = session.metrics.snapshot()
    driver = world.endpoint(0).driver
    for nbytes in (8, 64):
        # One warm-up and four measured round trips per run.
        assert snapshot.get("driver.sent", bench="ping_pong",
                            driver=driver.name, nbytes=nbytes) == 5
        assert snapshot.get("driver.sent_bytes", bench="ping_pong",
                            driver=driver.name, nbytes=nbytes) == 5 * nbytes
    assert driver.stats["sent"] == 10


def test_a_run_that_raises_still_publishes():
    sim = Simulator()
    counter = Counter("wire")
    sim.counters.append((counter, "link", {"link": "wire"}))

    def flits():
        for _ in range(3):
            counter.incr("messages")
            yield sim.timeout(1.0)

    sim.process(flits())
    with observe() as session:
        with OBS.label_scope(run="cut"):
            with pytest.raises(SimulationError):
                sim.run(max_events=2)
        cut = counter["messages"]
        # The next run publishes only what it counted itself.
        sim.run()
    snapshot = session.metrics.snapshot()
    assert 0 < cut < 3
    assert snapshot.get("link.messages", link="wire", run="cut") == cut
    assert snapshot.get("link.messages", link="wire") == 3 - cut


def test_a_counter_registered_mid_run_publishes_all_it_counted():
    sim = Simulator()

    def build():
        yield sim.timeout(1.0)
        counter = Counter("late")
        sim.counters.append((counter, "link", {"link": "late"}))
        counter.incr("messages", 2)

    sim.process(build())
    with observe() as session:
        sim.run()
    assert session.metrics.total("link.messages") == 2


def test_unobserved_runs_publish_nothing_later():
    sim, world = build_cluster_world()
    world.ping_pong(0, 1, 8)
    with observe() as session:
        pass
    assert len(session.metrics) == 0
    assert world.endpoint(0).driver.stats["sent"] == 5


#: sha256 of the ``--metrics-out`` file of ``chaos --plan EVERY_KIND
#: --topology manna --messages 4 [--protocol P]``, recorded while every
#: comm event was still recorded into the registry as it happened, then
#: re-recorded without the ``faults.xcvr_stall_ns`` histogram (its
#: samples were all the plan's ``stall_ns``; ``faults.injected`` and
#: ``faults.xcvr_stalls`` count the stalls), every other series equal.
EVERY_KIND = {
    "seed": 3,
    "faults": [
        {"kind": "link_corrupt", "site": "*", "probability": 0.03},
        {"kind": "flit_drop", "site": "*", "probability": 0.001},
        {"kind": "ni_drop", "site": "*", "probability": 0.001},
        {"kind": "node_hang", "site": "*", "probability": 0.02,
         "stall_ns": 2000.0},
        {"kind": "xcvr_stall", "site": "*", "probability": 0.02,
         "stall_ns": 5000.0},
        {"kind": "xbar_port_down", "site": "c0.plane0", "port": 4,
         "at_ns": 100000.0},
    ],
}
EVERY_KIND_DIGESTS = {
    "sliding": "119eea9f78e35c620906545f0923c6d4"
               "7d37d082f80a459601858d22e227155c",
    "stopwait": "0143ef3754384128c99cef45312c1cac"
                "8c34c35a7840b603b65cd389b3b356a4",
}


@pytest.mark.parametrize("protocol", sorted(EVERY_KIND_DIGESTS))
def test_every_fault_kind_metrics_match_recorded_digest(protocol, tmp_path):
    plan = tmp_path / "every_kind.json"
    plan.write_text(json.dumps(EVERY_KIND))
    metrics = tmp_path / "metrics.json"
    report = tmp_path / "report.json"
    assert main(["chaos", "--plan", str(plan), "--topology", "manna",
                 "--messages", "4", "--protocol", protocol,
                 "--no-cache", "--no-journal",
                 "--metrics-out", str(metrics),
                 "--report-out", str(report)]) == 0
    fired = json.loads(report.read_text())["fault_stats"]
    assert set(fired) == {spec["kind"] for spec in EVERY_KIND["faults"]}
    digest = hashlib.sha256(metrics.read_bytes()).hexdigest()
    assert digest == EVERY_KIND_DIGESTS[protocol]


#: Chaos runs whose ``--metrics-out`` and ``--report-out`` (sha256) were
#: recorded while the sliding-window channel still recorded its series
#: as they happened: a plan (a file under ``benchmarks/fault_plans`` or
#: an inline plan), the extra CLI arguments, and the two digests.
#: ``grid_storm``'s metrics were re-recorded, like ``EVERY_KIND``'s,
#: without the ``faults.xcvr_stall_ns`` histogram.
CHAOS_DIGESTS = {
    "smoke": ("smoke.json", ["--messages", "4"],
              "a9e77a5806a7de82e1f936621397f33af9e8d9c08e5323059816f72cc1511675",
              "d8d6f80ff78aa848349bf060767b51c7fb5976f07237de997d7c5f7279b1b913"),
    "port_down": ("port_down.json",
                  ["--topology", "manna", "--messages", "6"],
                  "33c7b8bf233bf40a7d72208138e1dd242353368620c6ae43d21178bdf7bc2e48",
                  "d948bec3baeed02ac9cecf91b6d36048f0ea0c31d64543daf8cad5ac1f9da383"),
    "grid_storm": ("grid_storm.json",
                   ["--topology", "grid", "--messages", "8"],
                   "532e93796fb86a31192786d2089bc73da542e4e4de3718efa9a93aa623af3ffa",
                   "0bfa2c87d4873c2c6a67bac16b039b967d4ec532df46738f7d9c003b0c1733a2"),
    # Node 1 sends flow 1->5: the flow fails when its route goes.
    "crash_source": ({"seed": 1, "faults": [dict(CRASH, node=1)]},
                     ["--messages", "4"],
                     "c741899c5da3bae3afae5e3307bc8925517c08370d3a95954a4e6a93aff58085",
                     "bc727524aa8db015ae7e06a7e42e84094b8843ec79d8999cbc8a545e990077f1"),
    # Node 4 receives flow 0->4: in-flight data drops at the dead node.
    "crash_sink": ({"seed": 1, "faults": [dict(CRASH, node=4)]},
                   ["--messages", "4"],
                   "2c045a8d26d185d97393f1dc654ce5a453143755d5d64e0a68fb9ca0dc25123d",
                   "55339e6a02ae5f340ff3bc1833eb25e9cd6d77d3a2024e04ba892fee2957967f"),
}


def _chaos_artifacts(name, tmp_path):
    plan, args, _, _ = CHAOS_DIGESTS[name]
    if isinstance(plan, dict):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        plan = str(path)
    else:
        plan = f"{PLANS}/{plan}"
    metrics = tmp_path / "metrics.json"
    report = tmp_path / "report.json"
    assert main(["chaos", "--plan", plan, *args, "--no-cache",
                 "--no-journal", "--metrics-out", str(metrics),
                 "--report-out", str(report)]) == 0
    return metrics.read_bytes(), report.read_bytes()


@pytest.mark.parametrize("name", sorted(CHAOS_DIGESTS))
def test_chaos_artifacts_match_recorded_digests(name, tmp_path):
    metrics, report = _chaos_artifacts(name, tmp_path)
    assert (hashlib.sha256(metrics).hexdigest(),
            hashlib.sha256(report).hexdigest()) == CHAOS_DIGESTS[name][2:]


#: sha256 of the metrics JSON each run leaves under ``observe()``,
#: recorded while EARTH and the QoS router still recorded their series
#: as they happened.
OBSERVED = {
    "earth_fib": (_earth_fib, "2e257ab3d5fb0013239468e1076e7042"
                              "2360e1f30c18c08e814bb8e39e9a432b"),
    "qos_hotspot": (_qos_hotspot, "72d551fe74d62daf7e328233abfde850"
                                  "c542224df86de4b1dbe3d511c4738cb2"),
}


@pytest.mark.parametrize("run", sorted(OBSERVED))
def test_observed_metrics_match_recorded_digest(run):
    execute, digest = OBSERVED[run]
    with observe() as session:
        execute()
    payload = metrics_json(session.metrics).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
#: The per-event ``OBS.metrics`` calls that stay: the supervisor's
#: sweep tallies, and the two records fired once per injected fault
#: (no component counter keys their site).  No ``observe`` stays: a
#: component keeps its samples in its own ``Histogram``.
PER_EVENT = {("parallel/supervise.py", "incr", None),
             ("faults/engine.py", "incr", "faults.injected"),
             ("faults/controller.py", "incr", "faults.node_crashes")}


def test_no_metric_is_counted_per_event_outside_obs():
    found = []
    for root, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, SRC).replace(os.sep, "/")
            if rel.startswith("obs/"):
                continue
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                call = ast.unparse(node.func)
                if call not in ("OBS.metrics.incr", "OBS.metrics.observe"):
                    continue
                first = node.args[0] if node.args else None
                metric = (first.value if isinstance(first, ast.Constant)
                          else None)
                method = call.rsplit(".", 1)[1]
                if (rel, method, metric) not in PER_EVENT:
                    found.append(f"{rel}:{node.lineno} {method} {metric}")
    assert found == []
