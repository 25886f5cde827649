"""Child processes of the benchmark; ``run.py`` starts one per measurement.

    python figbench/child.py calibrate
        A fixed load that never touches the program; its wall time
        gauges the machine's current speed.

    python figbench/child.py setup WORKLOAD
        Import ``repro.cli`` and build the workload's machine through
        public constructors (the ``setup_s`` measurement).

    python figbench/child.py traced RUN_ID RECORD_JSON -- REPRO_ARGS...
        Run one ``python -m repro`` command through ``repro.cli.main``
        with the tracing wrappers installed, then write the spans,
        counters and samples to RECORD_JSON.

``setup`` and ``traced`` expect ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys

from workloads import (TRAFFIC_ARBITER, TRAFFIC_CLASSES, TRAFFIC_TOPOLOGY,
                       WORKLOADS)


def build_machine(kind: str):
    """The workload's machine, fresh, as a user's script would build it."""
    if kind == "node":
        from repro.core.specs import POWERMANNA

        return POWERMANNA.node(scale=16)
    if kind == "cluster":
        from repro.msg.api import build_cluster_world

        return build_cluster_world()
    if kind == "topology":
        from repro.bench.traffic import parse_classes
        from repro.msg.api import build_topology_world
        from repro.network.crossbar import CrossbarConfig
        from repro.network.qos import QosConfig
        from repro.network.topo import parse_topology

        qos = QosConfig(arbiter=TRAFFIC_ARBITER,
                        classes=parse_classes(TRAFFIC_CLASSES))
        return build_topology_world(parse_topology(TRAFFIC_TOPOLOGY),
                                    crossbar_config=CrossbarConfig(qos=qos))
    raise ValueError(f"unknown machine kind {kind!r}")


def calibrate(events: int = 110_000) -> int:
    """A fixed load shaped like a command but never touching the program:
    interpreter start-up, importing the program's third-party
    dependencies, then a heap of timed events with dict updates, like the
    DES kernel's work.  Its wall time says how fast this machine runs
    such a command right now."""
    import heapq

    import networkx  # noqa: F401
    import numpy  # noqa: F401

    queue = [(float(i % 977), i) for i in range(20_000)]
    heapq.heapify(queue)
    counts: dict = {}
    for _ in range(events):
        when, i = heapq.heappop(queue)
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        heapq.heappush(queue, (when + (i % 13) + 1.0, i + 1))
    return 0


def setup(workload: str) -> int:
    import repro.cli  # noqa: F401  (set-up includes the CLI import)

    build_machine(WORKLOADS[workload].machine)
    return 0


def traced(run_id: str, record_path: str, argv) -> int:
    from tracing import Recorder, Sampler, install

    rec = Recorder()
    index = rec.open("cli.import")
    import repro.cli
    rec.close(index)
    install(rec)
    sampler = Sampler()
    sampler.start()
    try:
        returncode = repro.cli.main(argv)
    finally:
        sampler.stop()
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(rec.record(run_id, sampler.counts), handle)
    return returncode


def main(argv) -> int:
    if argv == ["calibrate"]:
        return calibrate()
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) >= 4 and argv[0] == "traced" and argv[3] == "--":
        return traced(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
