"""repro.obs — the unified observability layer.

One ambient :data:`OBS` context object is shared by every instrumented
component in the library (links, crossbars, link interfaces, drivers,
dispatcher, messaging, EARTH).  It is *disabled* by default: every
instrumentation site is written as ::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.metrics.incr("xbar.collisions", xbar=self.name)

so an uninstrumented run pays exactly one attribute test per call site.
The node's caches, TLBs and coherence domain record nothing per access:
each trace replay publishes their counter deltas once, at its end
(:func:`repro.memory.mp.replay_traces`).
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
from typing import Iterator, Optional

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
    "format_series",
    "observe",
]
