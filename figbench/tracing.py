"""The traced run: boundary spans, component counters and a stack sampler.

Inside a traced child (``child.py traced``) :func:`install` wraps public
functions and methods of the program so that each call records a span
(name, start, end, parent span) in memory, :class:`Sampler` folds
``SIGPROF`` samples of the executing frame into module counts, and
counters are read from the public state of the objects the wrapped
constructors returned.  Nothing is written until the child ends.

The parent side (:func:`pass_metrics`) turns the records of one traced
pass into the per-layer metrics.  A layer's self time is its spans'
duration minus the part their child spans cover.

This module imports nothing from ``repro`` at import time, so the parent
can use it without loading the program.
"""

from __future__ import annotations

import functools
import signal
import statistics
import sys
import time
from typing import Any, Callable, Dict, Iterable, List

#: Sampled host-time buckets: ``repro.<bucket>`` and its submodules.
#: Everything else, the interpreter and this benchmark included, is
#: ``other``.
HOST_BUCKETS = (
    "sim.engine", "sim.process", "sim.resources", "network.link",
    "network.crossbar", "network.qos", "network.routing", "ni", "msg",
    "memory.mp", "memory.cache", "memory.mesi", "memory.tlb",
    "memory.trace_gen", "memory.vec", "cpu", "bench", "parallel")

SAMPLE_INTERVAL_S = 0.005

#: ``MultiprocessorMemory.stats`` keys folded into ``memory.*`` counters.
MEMORY_KEYS = {"l1_hits": "memory.l1_hits", "l2_hits": "memory.l2_hits",
               "tlb_misses": "memory.tlb_misses",
               "upgrades": "memory.upgrades",
               "c2c_transfers": "memory.c2c_transfers",
               "memory_accesses": "memory.dram_accesses"}

COUNTER_NAMES = (
    "memory.accesses", *MEMORY_KEYS.values(), "sim.events",
    "network.flits", "network.xbar_connections", "network.xbar_collisions",
    "network.qos_rate_stalls", "ni.tx_messages", "ni.driver_sent",
    "parallel.cache_hits", "parallel.cache_misses")


class Recorder:
    """Spans and counters of one traced child, kept in memory."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter_ns()
        #: ``[name, start_ns, end_ns, parent index]``; integer
        #: nanoseconds, so self times are exact.
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self.worlds: List[Any] = []
        self.arbiters: List[Any] = []
        self.caches: List[Any] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns() - self.t0, None,
                           parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns() - self.t0
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return spanned

    def harvest(self) -> None:
        """Fold the counters of the worlds and arbiters built since the
        last harvest, then drop them so they can be freed."""
        c = self.counters
        for world in self.worlds:
            c["sim.events"] += world.sim.events_processed
            fabric = world.fabric
            links = [a.tx_link for a in fabric.attachments.values()]
            for xbar in fabric.crossbars.values():
                links += [link for link in xbar.output_links if link]
                c["network.xbar_connections"] += xbar.stats["connections"]
                c["network.xbar_collisions"] += xbar.stats["collisions"]
            c["network.flits"] += sum(link.stats["flits"] for link in links)
            for endpoint in world.endpoints.values():
                c["ni.tx_messages"] += endpoint.ni.stats["tx_messages"]
                c["ni.driver_sent"] += endpoint.driver.stats["sent"]
        for arbiter in self.arbiters:
            c["network.qos_rate_stalls"] += sum(arbiter.class_rate_stalls)
        self.worlds.clear()
        self.arbiters.clear()

    def record(self, run: str, samples: Dict[str, int]) -> Dict[str, Any]:
        for cache in self.caches:
            self.counters["parallel.cache_hits"] += cache.hits
            self.counters["parallel.cache_misses"] += cache.misses
        return {"run": run, "spans": self.spans, "counters": self.counters,
                "samples": samples}


class Sampler:
    """A ``SIGPROF`` interval timer that counts the module of the frame
    executing at each tick (CPU time, so waiting is not sampled)."""

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = interval_s
        self.counts: Dict[str, int] = {}

    def _tick(self, signum, frame) -> None:
        name = frame.f_globals.get("__name__", "?") if frame else "?"
        self.counts[name] = self.counts.get(name, 0) + 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def _rebind(original: Any, replacement: Any) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original``
    at ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _collect_instances(cls: type, into: List[Any]) -> None:
    """Append every instance ``cls`` constructs from now on to ``into``."""
    init = cls.__init__

    @functools.wraps(init)
    def collecting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        into.append(self)
    cls.__init__ = collecting


def install(rec: Recorder) -> None:
    """Wrap the program's layer boundaries for one traced child.

    Bindings copied before the wrappers exist are rebound; modules
    imported later, and ``from x import f`` inside functions, read the
    wrapper from the patched module.
    """
    import repro.parallel.sweep as sweep_mod
    from repro.core.specs import MachineSpec
    from repro.msg import api
    from repro.network import topo
    from repro.network.qos import ClassedArbiter
    from repro.node.node import NodeModel
    from repro.parallel.cache import ResultCache
    from repro.parallel.journal import RunJournal
    from repro.sim.engine import Simulator

    run_sweep = sweep_mod.run_sweep

    def point_fn(fn):
        @functools.wraps(fn)
        def point(config, seed):
            index = rec.open("bench.point")
            try:
                return fn(config, seed)
            finally:
                rec.close(index)
                rec.harvest()
        return point

    @functools.wraps(run_sweep)
    def traced_sweep(sweep_id, points, fn, *args, **kwargs):
        index = rec.open("parallel.run_sweep")
        try:
            return run_sweep(sweep_id, points, point_fn(fn), *args, **kwargs)
        finally:
            rec.close(index)
    _rebind(run_sweep, traced_sweep)

    digest = rec.wrap("parallel.source_digest", sweep_mod.source_digest)
    _rebind(sweep_mod.source_digest, digest)

    build_world = api.build_topology_world

    @functools.wraps(build_world)
    def traced_world(*args, **kwargs):
        index = rec.open("msg.world_build")
        try:
            sim, world = build_world(*args, **kwargs)
        finally:
            rec.close(index)
        rec.worlds.append(world)
        return sim, world
    _rebind(build_world, traced_world)
    _rebind(topo.build_fabric,
            rec.wrap("network.fabric_build", topo.build_fabric))

    _collect_instances(ResultCache, rec.caches)
    ResultCache.get = rec.wrap("parallel.cache_get", ResultCache.get)
    ResultCache.put = rec.wrap("parallel.cache_put", ResultCache.put)
    RunJournal.record_done = rec.wrap("parallel.journal_done",
                                      RunJournal.record_done)

    _collect_instances(ClassedArbiter, rec.arbiters)
    MachineSpec.node = rec.wrap("core.node_build", MachineSpec.node)

    run_traces = NodeModel.run_traces

    @functools.wraps(run_traces)
    def traced_run_traces(self, *args, **kwargs):
        before = self.memory.stats.as_dict()
        index = rec.open("node.run_traces")
        try:
            result = run_traces(self, *args, **kwargs)
        finally:
            rec.close(index)
        after = self.memory.stats.as_dict()
        for key, name in MEMORY_KEYS.items():
            rec.counters[name] += after.get(key, 0) - before.get(key, 0)
        rec.counters["memory.accesses"] += result.steps
        return result
    NodeModel.run_traces = traced_run_traces

    Simulator.run = rec.wrap("sim.run", Simulator.run)
    Simulator.run_until_complete = rec.wrap("sim.run",
                                            Simulator.run_until_complete)


# -- parent side: records of one traced pass -> per-layer metrics -----------


def self_times(spans: List[List[Any]]) -> List[int]:
    """Each span's duration minus its direct children's durations, in
    nanoseconds."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def bucket(module: str) -> str:
    if module.startswith("repro."):
        rest = module[len("repro."):]
        for name in HOST_BUCKETS:
            if rest == name or rest.startswith(name + "."):
                return name
    return "other"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(cold: Iterable[Dict[str, Any]],
                 warm: Iterable[Dict[str, Any]],
                 cold_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``cold`` and ``warm`` are the child records of the pass's cold and
    warm halves; ``cold_wall_s`` is the parent-measured wall of the cold
    half.  Every metric comes from the cold half except the two
    ``parallel.warm_*`` metrics, which measure the cache reads a warm
    rerun makes.
    """
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    point_s: List[float] = []
    counters = {name: 0 for name in COUNTER_NAMES}
    samples: Dict[str, int] = {}
    for record in cold:
        for (name, start, end, _), own in zip(record["spans"],
                                              self_times(record["spans"])):
            self_ns[name] = self_ns.get(name, 0) + own
            calls[name] = calls.get(name, 0) + 1
            if name == "bench.point":
                point_s.append((end - start) / 1e9)
        for name, value in record["counters"].items():
            counters[name] += value
        for module, count in record["samples"].items():
            key = bucket(module)
            samples[key] = samples.get(key, 0) + count
    warm_get_ns = 0
    warm_hits = warm_misses = 0
    for record in warm:
        warm_get_ns += sum(end - start for name, start, end, _
                           in record["spans"] if name == "parallel.cache_get")
        warm_hits += record["counters"]["parallel.cache_hits"]
        warm_misses += record["counters"]["parallel.cache_misses"]

    def s(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    accesses = counters["memory.accesses"]
    l1_hits = counters["memory.l1_hits"]
    events = counters["sim.events"]
    connections = counters["network.xbar_connections"]
    metrics = {
        "cli.import_s": s("cli.import"),
        "parallel.digest_s": s("parallel.source_digest"),
        "parallel.warm_cache_get_s": warm_get_ns / 1e9,
        "parallel.warm_cache_hit_ratio": _ratio(warm_hits,
                                                warm_hits + warm_misses),
        "parallel.cache_put_s": s("parallel.cache_put"),
        "parallel.journal_s": s("parallel.journal_done"),
        "parallel.sweep_self_s": s("parallel.run_sweep"),
        "bench.points": len(point_s),
        "bench.point_p50_s": statistics.median(point_s) if point_s else 0.0,
        "bench.point_max_s": max(point_s, default=0.0),
        "core.node_builds": calls.get("core.node_build", 0),
        "core.node_build_frac": _ratio(s("core.node_build"), cold_wall_s),
        "msg.world_builds": calls.get("msg.world_build", 0),
        "msg.world_build_frac": _ratio(s("msg.world_build"), cold_wall_s),
        "network.fabric_builds": calls.get("network.fabric_build", 0),
        "network.fabric_build_frac": _ratio(s("network.fabric_build"),
                                            cold_wall_s),
        "node.run_traces_frac": _ratio(s("node.run_traces"), cold_wall_s),
        "memory.accesses": accesses,
        "memory.accesses_per_s": _ratio(accesses, s("node.run_traces")),
        "memory.l1_hit_ratio": _ratio(l1_hits, accesses),
        "memory.l2_hit_ratio": _ratio(counters["memory.l2_hits"],
                                      accesses - l1_hits),
        "memory.tlb_miss_ratio": _ratio(counters["memory.tlb_misses"],
                                        accesses),
        "memory.slow_path_frac": _ratio(accesses - l1_hits, accesses),
        "memory.c2c_transfers": counters["memory.c2c_transfers"],
        "memory.upgrades": counters["memory.upgrades"],
        "memory.dram_accesses": counters["memory.dram_accesses"],
        "sim.run_frac": _ratio(s("sim.run"), cold_wall_s),
        "sim.events": events,
        "sim.events_per_s": _ratio(events, s("sim.run")),
        "network.flits": counters["network.flits"],
        "network.xbar_connections": connections,
        "network.xbar_collisions": counters["network.xbar_collisions"],
        "network.collision_ratio": _ratio(
            counters["network.xbar_collisions"], connections),
        "network.qos_rate_stalls": counters["network.qos_rate_stalls"],
        "ni.tx_messages": counters["ni.tx_messages"],
        "ni.driver_sent": counters["ni.driver_sent"],
    }
    total = sum(samples.values())
    for name in HOST_BUCKETS + ("other",):
        metrics[f"host.{name}.self_frac"] = _ratio(samples.get(name, 0),
                                                   total)
    return metrics


def span_dump(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flat span list of many child records, for the spans file.

    Times are nanoseconds from the start of the span's child process;
    ``parent`` is the ``id`` of the enclosing span of the same ``run``.
    """
    out: List[Dict[str, Any]] = []
    for record in records:
        spans = record["spans"]
        for index, ((name, start, end, parent), own) in enumerate(
                zip(spans, self_times(spans))):
            out.append({"run": record["run"], "id": index, "name": name,
                        "start_ns": start, "end_ns": end, "parent": parent,
                        "self_ns": own})
    return out
