"""Statistics collection for simulation components.

Per-component counters and histograms: cache hit/miss counts, crossbar
and link traffic, and latency distributions.  Series over simulated time
live in :mod:`repro.obs.timeline`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, List


class Counter:
    """A named bundle of integer counters with arithmetic helpers."""

    def __init__(self, name: str = "counter"):
        self.name = name
        self._counts: Dict[str, int] = {}

    def incr(self, key: str, amount: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def keys(self) -> Iterable[str]:
        return self._counts.keys()

    def total(self) -> int:
        return sum(self._counts.values())

    def ratio(self, numerator: str, denominator_keys: Iterable[str]) -> float:
        """Fraction ``numerator / sum(denominators)``, 0.0 when empty."""
        denom = sum(self[k] for k in denominator_keys)
        if denom == 0:
            return 0.0
        return self[numerator] / denom

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name} {self._counts}>"


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    O(1) per sample and O(1) memory (five markers): the incremental fast
    path behind :meth:`Histogram.p50`/:meth:`Histogram.p99`, which would
    otherwise re-sort the sample list on every ``add``/``quantile``
    interleave.  Exact below five samples, a tight estimate beyond.
    """

    __slots__ = ("q", "_initial", "_heights", "_positions", "_desired",
                 "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"P2 quantile must be in (0, 1), got {q}")
        self.q = q
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, x: float) -> None:
        if not self._heights:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._heights = sorted(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                q = self.q
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q,
                                 3.0 + 2.0 * q, 5.0]
            return
        h, n = self._heights, self._positions
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if x >= h[i]:
                    k = i
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in range(1, 4):
            d = self._desired[i] - n[i]
            if ((d >= 1.0 and n[i + 1] - n[i] > 1.0)
                    or (d <= -1.0 and n[i - 1] - n[i] < -1.0)):
                d = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, d)
                if not h[i - 1] < candidate < h[i + 1]:
                    candidate = self._linear(i, d)
                h[i] = candidate
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        if not self._heights:
            if not self._initial:
                return 0.0
            ordered = sorted(self._initial)
            rank = min(len(ordered) - 1,
                       max(0, math.ceil(self.q * len(ordered)) - 1))
            return ordered[rank]
        return self._heights[2]


class Histogram:
    """A streaming histogram with exact quantiles (keeps all samples).

    Simulation runs in this library produce at most a few hundred thousand
    samples per histogram, so exact storage is fine and keeps the quantile
    semantics simple.  For the interleaved add/read pattern of live
    observability exporters — where exact :meth:`quantile` would re-sort
    per read — :meth:`p50`/:meth:`p99` are maintained incrementally by P²
    estimators, and :meth:`summary` packages the O(1) statistics.
    """

    # Below this size exact quantiles are cheaper than estimator error.
    P2_EXACT_LIMIT = 512

    def __init__(self, name: str = "histogram"):
        self.name = name
        self._samples: List[float] = []
        self._sorted = True
        self._sum = 0.0
        self._min: float = math.inf
        self._max: float = -math.inf
        self._p2_p50 = P2Quantile(0.5)
        self._p2_p99 = P2Quantile(0.99)
        self._p2_p999 = P2Quantile(0.999)

    def add(self, value: float) -> None:
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._p2_p50.add(value)
        self._p2_p99.add(value)
        self._p2_p999.add(value)

    def __len__(self) -> int:
        return len(self._samples)

    def samples(self) -> List[float]:
        """A copy of the raw samples (the merge/serialisation surface)."""
        return list(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    def minimum(self) -> float:
        return self._min if self._samples else 0.0

    def maximum(self) -> float:
        return self._max if self._samples else 0.0

    def stddev(self) -> float:
        n = len(self._samples)
        if n < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((x - mu) ** 2 for x in self._samples) / (n - 1))

    def quantile(self, q: float) -> float:
        """Exact q-quantile by nearest-rank; q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        self._ensure_sorted()
        rank = min(len(self._samples) - 1, max(0, math.ceil(q * len(self._samples)) - 1))
        return self._samples[rank]

    def buckets(self, edges: List[float]) -> List[int]:
        """Counts per bucket for sorted ``edges`` (n+1 buckets)."""
        self._ensure_sorted()
        counts = [0] * (len(edges) + 1)
        for x in self._samples:
            counts[bisect_right(edges, x)] += 1
        return counts

    # -- incremental fast path (no sorting) --------------------------------

    def _fast_quantile(self, q: float, estimator: P2Quantile) -> float:
        """Exact when cheap (already sorted, or few samples); P² otherwise."""
        if self._sorted or len(self._samples) <= self.P2_EXACT_LIMIT:
            return self.quantile(q)
        return estimator.value()

    def p50(self) -> float:
        """Median without re-sorting on large, actively-growing histograms."""
        return self._fast_quantile(0.5, self._p2_p50)

    def p99(self) -> float:
        """99th percentile via the same incremental fast path as p50."""
        return self._fast_quantile(0.99, self._p2_p99)

    def p999(self) -> float:
        """99.9th percentile — campaign tail analysis past p99."""
        return self._fast_quantile(0.999, self._p2_p999)

    def merge_sorted(self, samples: Iterable[float]) -> None:
        """Fold another histogram's samples into this one, exactly.

        The combined sample list is re-sorted and the running sum is
        recomputed with :func:`math.fsum`, so the merged histogram's
        count/mean/min/max and exact quantiles depend only on the final
        sample *multiset* — merging in any order or grouping produces the
        same statistics (the property the parallel sweep merge relies on).
        The P² estimators are re-fed the sorted samples so later
        incremental reads stay consistent.
        """
        incoming = list(samples)
        if not incoming:
            return
        combined = self._samples + incoming
        combined.sort()
        self._samples = combined
        self._sorted = True
        self._sum = math.fsum(combined)
        self._min = combined[0]
        self._max = combined[-1]
        self._p2_p50 = P2Quantile(0.5)
        self._p2_p99 = P2Quantile(0.99)
        self._p2_p999 = P2Quantile(0.999)
        for value in combined:
            self._p2_p50.add(value)
            self._p2_p99.add(value)
            self._p2_p999.add(value)

    def summary(self) -> Dict[str, float]:
        """The exporter-facing digest; never sorts past P2_EXACT_LIMIT."""
        n = len(self._samples)
        return {
            "count": n,
            "mean": self.mean(),
            "min": self.minimum(),
            "max": self.maximum(),
            "p50": self.quantile(0.5) if self._sorted or n <= self.P2_EXACT_LIMIT
            else self._p2_p50.value(),
            "p99": self.quantile(0.99) if self._sorted or n <= self.P2_EXACT_LIMIT
            else self._p2_p99.value(),
            "p999": self.quantile(0.999) if self._sorted or n <= self.P2_EXACT_LIMIT
            else self._p2_p999.value(),
        }

