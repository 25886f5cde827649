"""Comm components count once, and every simulator run publishes them.

Links, crossbars, transceivers, link interfaces, drivers and the
stop-and-wait channel count into their own ``Counter`` and register it
with their simulator; ``Simulator.run``/``run_until_complete`` publish
the counters' deltas into ``OBS.metrics`` when they end
(:func:`repro.obs.published`).  These tests check that what a run
publishes adds up to the components' counters exactly, under the labels
in force when each run ended, and that the ``--metrics-out`` of a chaos
run firing every fault kind is the one recorded before publishing moved
to run end.
"""

import hashlib
import json
import os

import pytest

from repro.bench.microbench import measure_point
from repro.cli import main
from repro.faults import FaultPlan
from repro.faults.chaos import build_chaos_world, run_chaos
from repro.msg.api import build_cluster_world
from repro.msg.reliable import ReliableChannel
from repro.obs import OBS, PUBLISHED, observe
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import Counter

PLANS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                     "fault_plans")
COMM_KINDS = ("link", "xbar", "xcvr", "ni", "driver", "reliable")
COMM_METRICS = sorted({metric for kind in COMM_KINDS
                       for _, metric, _ in PUBLISHED[kind]})


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


def component_totals(sims):
    """Per comm metric, the sum of the counter keys that feed it."""
    totals = dict.fromkeys(COMM_METRICS, 0)
    for sim in sims:
        for counter, kind, _ in sim.counters:
            for key, metric, _ in PUBLISHED[kind]:
                totals[metric] += counter[key]
    return totals


def test_every_comm_component_registers_its_counter():
    sim, world = build_chaos_world("manna")
    channel = ReliableChannel(world)
    fabric = world.fabric
    expected = {id(channel.stats)}
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
    assert {kind for _, kind, _ in sim.counters} == set(COMM_KINDS)


def _smoke(**options):
    return run_chaos(FaultPlan.load(f"{PLANS}/smoke.json"), messages=4,
                     **options)


#: A run, and the comm metrics it must publish besides link.messages
#: and xbar.connections.
RUNS = {
    "fig9_latency": (lambda: measure_point(
        build_cluster_world()[1], 0, 1, 64, "latency"),
        ("driver.sent", "driver.received_bytes", "ni.tx_messages")),
    "fig12_bidir": (lambda: measure_point(
        build_cluster_world()[1], 0, 1, 4096, "bidir"),
        ("driver.exchanges",)),
    "chaos_smoke": (_smoke, ("faults.dropped_flits",
                             "faults.corrupted_messages", "ni.crc_errors")),
    "chaos_smoke_stopwait": (lambda: _smoke(protocol="stopwait"),
                             ("reliable.retransmissions",
                              "reliable.delivered", "ni.crc_errors")),
    "port_down": (lambda: run_chaos(
        FaultPlan.load(f"{PLANS}/port_down.json"), topology="manna",
        messages=6),
        ("faults.xbar_ports_down", "faults.blackholed",
         "faults.wormhole_teardowns", "xcvr.messages")),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_published_totals_equal_component_counters(run, simulators):
    execute, required = RUNS[run]
    with observe() as session:
        execute()
    expected = component_totals(simulators)
    published = {metric: session.metrics.total(metric)
                 for metric in COMM_METRICS}
    assert published == expected
    for metric in ("link.messages", "xbar.connections") + required:
        assert expected[metric] > 0, metric


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
#: comm event was still recorded into the registry as it happened.
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
    "sliding": "93258888dd96df6e2bc83c3c457a6871"
               "4a1de90ef3fa63efdf5e173419fe5485",
    "stopwait": "07d37cf0c4c253451afbfeae0ac59a12"
                "43ff0f4b4bf52c0cd080fe610b4e38a5",
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
