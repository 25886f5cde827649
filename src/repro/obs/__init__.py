"""repro.obs — the unified observability layer.

One ambient :data:`OBS` context object is shared by every instrumented
component in the library (links, crossbars, link interfaces, drivers,
dispatcher, messaging, EARTH).  It is *disabled* by default.  Spans,
gauge probes and per-event samples are written as ::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.metrics.observe("faults.xcvr_stall_ns", stall, xcvr=name)

so an uninstrumented run pays one attribute test per call site.  Counts
cost nothing per event: components keep them in their own ``Counter``,
and :func:`published` turns a block's deltas into metrics once, at its
end, through the one :data:`PUBLISHED` table.  Trace replays publish the
node (:func:`repro.memory.mp.replay_traces`), simulator runs the comm
components registered with them (:meth:`repro.sim.engine.Simulator.run`).
Enabling is scoped::

    from repro.obs import observe

    with observe() as session:
        run_the_experiment()
    session.write_trace("trace.json")          # Perfetto / chrome://tracing
    session.write_metrics_json("metrics.json")

The context object is a stable singleton whose *backends* are swapped, so
components may safely cache a reference to ``OBS`` itself (never to
``OBS.metrics``/``OBS.tracer``) at import or construction time.
"""
from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetricsRegistry,
    format_series,
)
from repro.obs.spans import (
    NULL_SPAN_TRACER,
    NullSpanTracer,
    Span,
    SpanNode,
    SpanTracer,
)
from repro.obs.timeline import (
    DEFAULT_SAMPLE_INTERVAL_NS,
    NULL_TIMELINE,
    NullTimeline,
    TimeSeries,
    Timeline,
)
from repro.sim.stats import Counter


class Observability:
    """The ambient observability context (one predicate when disabled)."""

    __slots__ = ("enabled", "metrics", "tracer", "timeline")

    def __init__(self):
        self.enabled = False
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self.tracer: SpanTracer = NULL_SPAN_TRACER
        self.timeline: Timeline = NULL_TIMELINE

    def activate(self, metrics: MetricsRegistry, tracer: SpanTracer,
                 timeline: Timeline = NULL_TIMELINE) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.timeline = timeline
        self.enabled = True

    def deactivate(self) -> None:
        self.enabled = False
        self.metrics = NULL_REGISTRY
        self.tracer = NULL_SPAN_TRACER
        self.timeline = NULL_TIMELINE

    def label_scope(self, **labels):
        """Ambient metric labels for a block; no-op context when disabled."""
        if not self.enabled:
            return nullcontext(self.metrics)
        return self.metrics.label_scope(**labels)


OBS = Observability()


# The component counters published into ``OBS.metrics``, per kind: the
# counter key, the metric it feeds, and the labels the metric adds to
# its component's.
PUBLISHED = {
    "cache": (("read_hit", "cache.hit", {"op": "read"}),
              ("write_hit", "cache.hit", {"op": "write"}),
              ("read_miss", "cache.miss", {"op": "read"}),
              ("write_miss", "cache.miss", {"op": "write"}),
              ("writeback", "cache.writeback", {})),
    "tlb": (("hits", "tlb.hit", {}), ("misses", "tlb.miss", {})),
    "coherence": tuple((key, f"coherence.{key}", {}) for key in
                       ("hit", "miss", "upgrade", "cache_to_cache")),
    "node": tuple((key, f"mem.{key}", {}) for key in
                  ("l1_hits", "l2_hits", "upgrades", "c2c_transfers",
                   "memory_accesses", "writebacks", "tlb_misses")),
    "link": (("messages", "link.messages", {}),
             ("dropped_flits", "faults.dropped_flits", {}),
             ("corrupted_messages", "faults.corrupted_messages", {})),
    "xbar": (("connections", "xbar.connections", {}),
             ("collisions", "xbar.collisions", {}),
             ("failed_outputs", "faults.xbar_ports_down", {}),
             ("torn_down", "faults.wormhole_teardowns", {}),
             ("blackholed", "faults.blackholed", {})),
    "xcvr": (("messages", "xcvr.messages", {}),
             ("stalls", "faults.xcvr_stalls", {})),
    "ni": (("tx_messages", "ni.tx_messages", {}),
           ("crc_errors", "ni.crc_errors", {}),
           ("dropped_flits", "faults.ni_dropped_flits", {})),
    "driver": tuple((key, f"driver.{key}", {}) for key in
                    ("sent", "sent_bytes", "received", "received_bytes",
                     "exchanges")) + (("hangs", "faults.driver_hangs", {}),),
    "reliable": tuple((key, f"reliable.{key}", {}) for key in
                      ("transmissions", "retransmissions", "corrupted",
                       "acked", "timeouts", "discarded", "delivered",
                       "acks_discarded", "acks_corrupted")),
}


@contextmanager
def published(counters: Sequence[Tuple[Counter, str, Dict[str, str]]]
              ) -> Iterator[None]:
    """Under observation, publish the block's counter deltas on exit.

    Each ``(counter, kind, labels)`` entry adds the delta of every
    :data:`PUBLISHED` ``[kind]`` key that moved to its metric, with the
    entry's labels; an entry appended in the block publishes all it
    counted.  A block that raises publishes too.  The series carry the
    ambient labels at exit, which equals labelling each event because
    no simulation process or replay enters a ``label_scope``: its only
    users (``msg/api.py``, ``bench/microbench.py``, ``bench/matmult.py``)
    wrap whole runs.
    """
    if not OBS.enabled:
        yield
        return
    before = [counter.as_dict() for counter, _, _ in counters]
    try:
        yield
    finally:
        for index, (counter, kind, labels) in enumerate(counters):
            was = before[index] if index < len(before) else {}
            for key, metric, extra in PUBLISHED[kind]:
                delta = counter[key] - was.get(key, 0)
                if delta:
                    OBS.metrics.incr(metric, delta, **labels, **extra)


class ObservationSession:
    """One enabled observation window: a registry plus a span tracer."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanTracer] = None,
                 span_limit: int = 1_000_000,
                 sample_interval_ns: Optional[float] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else SpanTracer(
            limit=span_limit)
        self.timeline: Timeline = (
            Timeline(sample_interval_ns) if sample_interval_ns
            else NULL_TIMELINE)

    # -- artifact shortcuts -------------------------------------------------

    def write_trace(self, path: str) -> None:
        from repro.obs.export import write_trace

        write_trace(path, self.tracer)

    def write_timeline_json(self, path: str) -> None:
        from repro.obs.export import write_timeline_json

        write_timeline_json(path, self.timeline)

    def write_metrics_json(self, path: str) -> None:
        from repro.obs.export import write_metrics_json

        write_metrics_json(path, self.metrics)

    def write_metrics_csv(self, path: str) -> None:
        from repro.obs.export import write_metrics_csv

        write_metrics_csv(path, self.metrics)


@contextmanager
def observe(metrics: Optional[MetricsRegistry] = None,
            tracer: Optional[SpanTracer] = None,
            span_limit: int = 1_000_000,
            sample_interval_ns: Optional[float] = None
            ) -> Iterator[ObservationSession]:
    """Enable instrumentation for the block; restores the prior state
    afterwards (nesting swaps backends, it does not merge them).

    Passing ``sample_interval_ns`` arms periodic simulated-time sampling:
    every :class:`~repro.sim.engine.Simulator` constructed inside the
    block samples its registered gauge probes into ``session.timeline``.
    """
    session = ObservationSession(metrics=metrics, tracer=tracer,
                                 span_limit=span_limit,
                                 sample_interval_ns=sample_interval_ns)
    previous = (OBS.enabled, OBS.metrics, OBS.tracer, OBS.timeline)
    OBS.activate(session.metrics, session.tracer, session.timeline)
    try:
        yield session
    finally:
        OBS.enabled, OBS.metrics, OBS.tracer, OBS.timeline = previous


__all__ = [
    "DEFAULT_SAMPLE_INTERVAL_NS",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_REGISTRY",
    "NULL_SPAN_TRACER",
    "NULL_TIMELINE",
    "NullMetricsRegistry",
    "NullSpanTracer",
    "NullTimeline",
    "OBS",
    "Observability",
    "ObservationSession",
    "Span",
    "SpanNode",
    "SpanTracer",
    "TimeSeries",
    "Timeline",
    "PUBLISHED",
    "format_series",
    "observe",
    "published",
]
