"""Resume-order digests: the event order of whole figure runs is pinned.

Every :class:`~repro.sim.process.Process` resume is logged as
``(sim.now, process creation index)`` over a fig9 cluster run and over
one classed load point of the ``traffic`` command.  The SHA-256 of that
log is compared against digests recorded before the kernel gained its
same-time ready queue, so any change to the order in which same-time
events run — not only to the figures they print — fails here.
"""

import hashlib
import itertools

import pytest

from repro.sim.process import Process

#: (resumes, sha256 of the resume log) per run, recorded with the
#: single-heap kernel.
EXPECTED = {
    "fig9": (25580, "bc9a2a9c63d951a7dd1dd82f3ff923e0"
                    "a5e818164e109ce9191844e92f22075d"),
    ("traffic", "fifo", 11): (286940, "0b1206188704a1a525a720a3cfd1edf9"
                                      "521a9cb515b4b1b82f8b74b4c923460b"),
    ("traffic", "fifo", 23): (286946, "2cdd046f63c673663b0786018d63c35d"
                                      "245cc66bbf2b072153fe924b7685b9bb"),
    ("traffic", "priority", 11): (286940, "7769a44ea076ffc4fba843d1dff34bb9"
                                          "b54582d90f24de9d440f3364b6066780"),
    ("traffic", "priority", 23): (286940, "4302b895a8f8b2369534b8fcb7da3b67"
                                          "8e587787905ae6744c56d9bda8ba7d7c"),
}


def _resume_log(monkeypatch, run):
    """Run ``run()`` with every process resume logged; return
    ``(resumes, sha256 hex digest)``."""
    counter = itertools.count()
    index = {}
    log = []
    init = Process.__init__
    resume = Process._resume

    def logged_init(self, sim, generator):
        # Processes have __slots__ and no weakrefs: key by id.  An id a
        # finished process frees is reassigned here before its reuse.
        index[id(self)] = next(counter)
        init(self, sim, generator)

    def logged_resume(self, event):
        log.append(f"{self.sim.now!r} {index[id(self)]}")
        return resume(self, event)

    monkeypatch.setattr(Process, "__init__", logged_init)
    monkeypatch.setattr(Process, "_resume", logged_resume)
    run()
    monkeypatch.undo()
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    return len(log), digest


def _fig9():
    from repro.bench.microbench import topology_point
    from repro.network.topology import cluster_spec

    for nbytes in (8, 1024):
        topology_point(cluster_spec().to_dict(), nbytes, "latency")


def _traffic_point(arbiter, seed):
    from repro.bench.traffic import parse_classes, parse_mix, traffic_point_task
    from repro.network.qos import QosConfig
    from repro.network.topo import parse_topology

    qos = QosConfig(arbiter=arbiter, classes=parse_classes(
        "urgent:prio=0:weight=4,bulk:prio=1:weight=1"))
    mix = parse_mix("urgent=incast:0.2:odd,bulk=hotspot:0.8:even")
    config = {"topology": parse_topology("xbar_tree:levels=2,arity=4").to_dict(),
              "load": 0.8, "messages": 4, "message_bytes": 1024,
              "qos": qos.to_dict(),
              "mix": {name: ct.to_dict() for name, ct in mix.items()}}
    return lambda: traffic_point_task(config, seed)


def test_fig9_resume_order_matches_recorded_digest(monkeypatch):
    assert _resume_log(monkeypatch, _fig9) == EXPECTED["fig9"]


@pytest.mark.parametrize("arbiter", ["fifo", "priority"])
@pytest.mark.parametrize("seed", [11, 23])
def test_traffic_resume_order_matches_recorded_digest(monkeypatch, arbiter,
                                                      seed):
    got = _resume_log(monkeypatch, _traffic_point(arbiter, seed))
    assert got == EXPECTED[("traffic", arbiter, seed)]
