"""Simulated-time periodic sampling: utilization/congestion timelines.

End-of-run aggregates (:mod:`repro.obs.metrics`) answer "how much in
total"; this module answers "when" — link occupancy, crossbar queue
depth, NI FIFO fill, sliding-window flight size as functions of
*simulated* time.  A :class:`Timeline` is the per-session sink; each
instrumented layer registers cheap gauge *probes* at construction::

    if OBS.enabled:
        OBS.timeline.probe(self.sim, "link.tx_bytes",
                           lambda: self.tx.level_bytes, link=self.name)

and the simulator kernel drives sampling from its event loop: one float
compare per clock advance (``when >= sim._sample_due``) when a sampler
is attached, and the same compare against ``inf`` when not — so a run
without sampling pays (almost) nothing, mirroring the ``OBS.enabled``
discipline of every other observability layer.

Series are *binned*, not raw: a :class:`TimeSeries` holds per-interval
``(count, total, min, max)`` aggregates aligned at t=0.  When a series
outgrows ``max_bins`` its interval doubles and adjacent bins merge
pairwise, so memory stays fixed however long the run is (the classic
ring-buffer/downsampling trade).  Bin aggregates form a commutative
semigroup, which makes :meth:`TimeSeries.merge` associative and
order-insensitive — the property the parallel sweep's ordered merge
(and the ``--jobs N == --jobs 1`` byte-identity guarantee) rests on,
pinned by hypothesis in ``tests/obs/test_timeline.py``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import LabelItems, SeriesKey, _label_items

#: Default simulated-time sampling period (ns) when a caller enables
#: sampling without naming one: 1 us resolves the microsecond-scale
#: figure runs into a few hundred bins.
DEFAULT_SAMPLE_INTERVAL_NS = 1000.0

#: Per-series bin budget before the interval doubles.
DEFAULT_MAX_BINS = 512

#: One bin: (sample count, value total, value min, value max).
Bin = Optional[Tuple[int, float, float, float]]


def _combine(a: Bin, b: Bin) -> Bin:
    if a is None:
        return b
    if b is None:
        return a
    return (a[0] + b[0], a[1] + b[1],
            a[2] if a[2] <= b[2] else b[2],
            a[3] if a[3] >= b[3] else b[3])


class TimeSeries:
    """One sampled gauge: fixed-memory (count,total,min,max) bins at t=0.

    ``bins[i]`` aggregates samples with ``i*interval_ns <= t <
    (i+1)*interval_ns``; ``None`` marks an interval nothing sampled.
    Recording past ``max_bins`` doubles ``interval_ns`` and merges bin
    pairs, so the footprint is bounded by ``max_bins`` whatever the run
    length.  Intervals therefore stay power-of-two multiples of the
    sampler's base interval, which is what lets :meth:`merge` align two
    series exactly.
    """

    __slots__ = ("name", "labels", "interval_ns", "max_bins", "bins")

    def __init__(self, name: str, labels: LabelItems = (),
                 interval_ns: float = DEFAULT_SAMPLE_INTERVAL_NS,
                 max_bins: int = DEFAULT_MAX_BINS):
        if interval_ns <= 0:
            raise ValueError(f"sample interval must be positive, got {interval_ns}")
        if max_bins < 2:
            raise ValueError(f"a series needs >= 2 bins, got {max_bins}")
        self.name = name
        self.labels = labels
        self.interval_ns = float(interval_ns)
        self.max_bins = max_bins
        self.bins: List[Bin] = []

    # -- recording ----------------------------------------------------------

    def record(self, t_ns: float, value: float) -> None:
        """Fold one sample at simulated time ``t_ns`` into its bin."""
        index = int(t_ns // self.interval_ns)
        while index >= self.max_bins:
            self._halve()
            index = int(t_ns // self.interval_ns)
        bins = self.bins
        if index >= len(bins):
            bins.extend([None] * (index + 1 - len(bins)))
        cur = bins[index]
        if cur is None:
            bins[index] = (1, value, value, value)
        else:
            bins[index] = (cur[0] + 1, cur[1] + value,
                           cur[2] if cur[2] <= value else value,
                           cur[3] if cur[3] >= value else value)

    def _halve(self) -> None:
        """Double the interval; merge adjacent bin pairs (downsampling)."""
        old = self.bins
        self.bins = [_combine(old[i], old[i + 1] if i + 1 < len(old) else None)
                     for i in range(0, len(old), 2)]
        self.interval_ns *= 2.0

    def coarsen_to(self, interval_ns: float) -> None:
        """Downsample until ``self.interval_ns >= interval_ns``."""
        while self.interval_ns < interval_ns:
            self._halve()

    # -- merge (the fan-out transport semigroup) ----------------------------

    def merge(self, other: "TimeSeries") -> None:
        """Fold another series' bins into this one.

        The coarser interval wins: the finer side is downsampled first
        (both intervals are power-of-two multiples of one base, so they
        always meet), then bins combine index-wise with (+, +, min, max)
        — associative and commutative, so any merge grouping or order
        lands on the same bins (see tests/obs/test_timeline.py).
        """
        incoming = other.bins
        interval = other.interval_ns
        if interval < self.interval_ns:
            shadow = TimeSeries(other.name, other.labels, interval,
                                max_bins=self.max_bins)
            shadow.bins = list(incoming)
            shadow.coarsen_to(self.interval_ns)
            incoming, interval = shadow.bins, shadow.interval_ns
        elif interval > self.interval_ns:
            self.coarsen_to(interval)
        if interval != self.interval_ns:
            raise ValueError(
                f"series {self.name!r}: cannot align interval {interval} "
                f"with {self.interval_ns} (not power-of-two multiples of "
                "a common base)")
        bins = self.bins
        if len(incoming) > len(bins):
            bins.extend([None] * (len(incoming) - len(bins)))
        for i, b in enumerate(incoming):
            if b is not None:
                bins[i] = _combine(bins[i], b)

    # -- statistics ---------------------------------------------------------

    def sample_count(self) -> int:
        return sum(b[0] for b in self.bins if b is not None)

    def values(self, kind: str = "mean") -> List[float]:
        """Per-bin statistic (``mean``/``min``/``max``), skipping empty bins."""
        out = []
        for b in self.bins:
            if b is None:
                continue
            if kind == "mean":
                out.append(b[1] / b[0])
            elif kind == "min":
                out.append(b[2])
            elif kind == "max":
                out.append(b[3])
            else:
                raise ValueError(f"unknown bin statistic {kind!r}")
        return out

    def stat(self, name: str) -> float:
        """One scalar over the series, for health gates and reports.

        ``mean`` is the sample mean; ``min``/``max`` are absolute over
        all samples; ``last`` is the final bin's mean; ``p50``/``p99``
        are nearest-rank quantiles of the per-bin means (per-interval
        behaviour, which is what an SLO over a timeline means).
        """
        populated = [b for b in self.bins if b is not None]
        if not populated:
            return 0.0
        if name == "mean":
            return (math.fsum(b[1] for b in populated)
                    / sum(b[0] for b in populated))
        if name == "min":
            return min(b[2] for b in populated)
        if name == "max":
            return max(b[3] for b in populated)
        if name == "last":
            b = populated[-1]
            return b[1] / b[0]
        if name in ("p50", "p99"):
            ordered = sorted(b[1] / b[0] for b in populated)
            q = 0.5 if name == "p50" else 0.99
            rank = min(len(ordered) - 1,
                       max(0, math.ceil(q * len(ordered)) - 1))
            return ordered[rank]
        raise ValueError(f"unknown series statistic {name!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "labels": {k: v for k, v in self.labels},
            "interval_ns": self.interval_ns,
            "bins": [list(b) if b is not None else None for b in self.bins],
        }


class _SimSampler:
    """The per-simulator probe list one :class:`Timeline` drives.

    The simulator's run loops call :meth:`tick` when an event timestamp
    crosses ``sim._sample_due``; every elapsed interval boundary up to
    that timestamp is sampled (state reads only — sampling never
    schedules events, so an instrumented run's tables stay bit-identical
    to an uninstrumented one).
    """

    __slots__ = ("timeline", "interval_ns", "_probes")

    def __init__(self, timeline: "Timeline"):
        self.timeline = timeline
        self.interval_ns = timeline.sample_interval_ns
        self._probes: List[Tuple[TimeSeries, Callable[[], float]]] = []

    def add(self, name: str, fn: Callable[[], float],
            labels: Dict[str, Any]) -> None:
        self._probes.append((self.timeline.series(name, **labels), fn))

    def tick(self, due: float, now: float) -> float:
        """Sample every boundary in ``[due, now]``; return the next due."""
        interval = self.interval_ns
        probes = self._probes
        ticks = 0
        while due <= now:
            for series, fn in probes:
                series.record(due, fn())
            due += interval
            ticks += 1
        self.timeline.samples_taken += ticks * len(probes)
        return due


class Timeline:
    """One observation session's sampled series, plus the probe registry.

    Components register probes against *their* simulator; the timeline
    keeps one :class:`_SimSampler` per attached simulator (stored on the
    simulator itself as ``sim._sampler``), so several worlds built under
    one session each sample their own state.  Series live here, keyed
    like metrics by ``(name, sorted label items)``.
    """

    enabled = True

    def __init__(self,
                 sample_interval_ns: float = DEFAULT_SAMPLE_INTERVAL_NS,
                 max_bins: int = DEFAULT_MAX_BINS):
        if sample_interval_ns <= 0:
            raise ValueError(
                f"sample interval must be positive, got {sample_interval_ns}")
        self.sample_interval_ns = float(sample_interval_ns)
        self.max_bins = max_bins
        self.samples_taken = 0
        self._series: Dict[SeriesKey, TimeSeries] = {}

    # -- registration -------------------------------------------------------

    def attach(self, sim) -> _SimSampler:
        """Arm periodic sampling on ``sim`` (idempotent per simulator)."""
        sampler = sim._sampler
        if sampler is None or sampler.timeline is not self:
            sampler = _SimSampler(self)
            sim._sampler = sampler
            sim._sample_due = self.sample_interval_ns
            # Kernel self-observation: DES event-pool size and queue depth.
            sampler.add("des.event_pool",
                        lambda: float(len(sim._timeout_pool)), {})
            sampler.add("des.pending_events",
                        lambda: float(sim.pending_events()), {})
        return sampler

    def probe(self, sim, name: str, fn: Callable[[], float],
              **labels: Any) -> None:
        """Register gauge ``fn`` to be sampled on ``sim``'s timeline."""
        self.attach(sim).add(name, fn, labels)

    # -- series access ------------------------------------------------------

    def series(self, name: str, **labels: Any) -> TimeSeries:
        key = (name, _label_items(labels))
        ts = self._series.get(key)
        if ts is None:
            ts = TimeSeries(key[0], key[1], self.sample_interval_ns,
                            self.max_bins)
            self._series[key] = ts
        return ts

    def record(self, name: str, t_ns: float, value: float,
               **labels: Any) -> None:
        """Direct recording path (probes are the usual route)."""
        self.series(name, **labels).record(t_ns, value)

    def __len__(self) -> int:
        return len(self._series)

    def all_series(self) -> List[TimeSeries]:
        return [ts for _, ts in sorted(self._series.items())]

    def series_named(self, name: str,
                     labels: Optional[Dict[str, Any]] = None
                     ) -> List[TimeSeries]:
        """Every series of ``name`` whose labels include ``labels``."""
        want = _label_items(labels or {})
        out = []
        for (n, items), ts in sorted(self._series.items()):
            if n == name and set(want) <= set(items):
                out.append(ts)
        return out

    # -- fan-out transport --------------------------------------------------

    def encode(self) -> List[Tuple[str, LabelItems, float, Tuple[Bin, ...]]]:
        """The timeline as a flat picklable payload, sorted by series key
        (the same transport shape as :meth:`MetricsRegistry.encode`)."""
        return [(name, labels, ts.interval_ns, tuple(ts.bins))
                for (name, labels), ts in sorted(self._series.items())]

    def merge_point(self, payload) -> None:
        """Fold an :meth:`encode` payload from another timeline into this
        one (bin-wise; associative and order-insensitive, like the metric
        and span merges the sweep transport is built on)."""
        for name, labels, interval_ns, bins in payload:
            key = (name, tuple(tuple(item) for item in labels))
            incoming = TimeSeries(key[0], key[1], interval_ns,
                                  max_bins=self.max_bins)
            incoming.bins = [tuple(b) if b is not None else None
                             for b in bins]
            ts = self._series.get(key)
            if ts is None:
                self._series[key] = incoming
            else:
                ts.merge(incoming)

    # -- export -------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        # The sample count is derived from the bins (not the live
        # ``samples_taken`` counter) so it survives encode/merge.
        return {
            "sample_interval_ns": self.sample_interval_ns,
            "samples_taken": sum(ts.sample_count()
                                 for ts in self._series.values()),
            "series": [ts.to_dict() for ts in self.all_series()],
        }

    def name_curves(self) -> Dict[str, Tuple[float, List[float]]]:
        """Per-name mean curve: bin means averaged across a name's label
        fan-out — the compact shape campaign reports band across seeds."""
        grouped: Dict[str, List[TimeSeries]] = {}
        for ts in self.all_series():
            grouped.setdefault(ts.name, []).append(ts)
        curves: Dict[str, Tuple[float, List[float]]] = {}
        for name, group in sorted(grouped.items()):
            interval = max(ts.interval_ns for ts in group)
            length = 0
            coarse: List[List[Bin]] = []
            for ts in group:
                shadow = TimeSeries(ts.name, ts.labels, ts.interval_ns,
                                    max_bins=ts.max_bins)
                shadow.bins = list(ts.bins)
                shadow.coarsen_to(interval)
                coarse.append(shadow.bins)
                length = max(length, len(shadow.bins))
            means: List[float] = []
            for i in range(length):
                total = _combine_many(row[i] if i < len(row) else None
                                      for row in coarse)
                means.append(total[1] / total[0] if total else 0.0)
            curves[name] = (interval, means)
        return curves


def _combine_many(bins) -> Bin:
    out: Bin = None
    for b in bins:
        out = _combine(out, b)
    return out


class NullTimeline(Timeline):
    """The disabled backend: registration and recording are no-ops, and
    :meth:`attach` leaves ``sim._sample_due`` at ``inf`` so the kernel's
    per-event compare never fires."""

    enabled = False

    def __init__(self):
        super().__init__(sample_interval_ns=1.0)
        self.sample_interval_ns = 0.0

    def attach(self, sim) -> None:  # type: ignore[override]
        return None

    def probe(self, sim, name, fn, **labels) -> None:
        pass

    def series(self, name, **labels) -> TimeSeries:  # throwaway
        return TimeSeries(name, _label_items(labels), 1.0)

    def record(self, name, t_ns, value, **labels) -> None:
        pass


NULL_TIMELINE = NullTimeline()
