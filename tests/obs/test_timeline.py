"""Timeline sampling and merge semantics.

The parallel sweep folds per-point timeline payloads back into the
ambient session in submission order; ``--jobs N == --jobs 1``
byte-identity for timelines rests on :meth:`TimeSeries.merge` (and so
:meth:`Timeline.merge_point`) being associative and order-insensitive.
Those properties are pinned here with hypothesis, the same way
``tests/obs/test_merge.py`` pins the metric and span merges.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timeline import (
    DEFAULT_SAMPLE_INTERVAL_NS,
    NULL_TIMELINE,
    TimeSeries,
    Timeline,
)

# ---------------------------------------------------------------------------
# TimeSeries recording and downsampling
# ---------------------------------------------------------------------------


class TestTimeSeries:
    def test_records_into_aligned_bins(self):
        ts = TimeSeries("s", interval_ns=10.0)
        ts.record(0.0, 1.0)
        ts.record(9.9, 3.0)
        ts.record(25.0, 7.0)
        assert ts.bins[0] == (2, 4.0, 1.0, 3.0)
        assert ts.bins[1] is None
        assert ts.bins[2] == (1, 7.0, 7.0, 7.0)

    def test_downsamples_past_max_bins(self):
        ts = TimeSeries("s", interval_ns=1.0, max_bins=8)
        for t in range(100):
            ts.record(float(t), float(t))
        # Interval doubled until 100 samples fit in 8 bins: 1 -> 16.
        assert ts.interval_ns == 16.0
        assert len(ts.bins) <= 8
        assert ts.sample_count() == 100
        assert ts.stat("min") == 0.0
        assert ts.stat("max") == 99.0

    def test_stats(self):
        ts = TimeSeries("s", interval_ns=10.0)
        for t, v in ((0, 2.0), (5, 4.0), (15, 8.0), (25, 1.0)):
            ts.record(float(t), v)
        assert ts.stat("mean") == pytest.approx(15.0 / 4)
        assert ts.stat("min") == 1.0
        assert ts.stat("max") == 8.0
        assert ts.stat("last") == 1.0
        assert ts.stat("p50") == 3.0  # bin means: 3, 8, 1
        assert ts.values("mean") == [3.0, 8.0, 1.0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TimeSeries("s", interval_ns=0.0)
        with pytest.raises(ValueError):
            TimeSeries("s", max_bins=1)
        populated = TimeSeries("s")
        populated.record(0.0, 1.0)
        with pytest.raises(ValueError):
            populated.stat("p75")
        # An empty series reads 0.0 for any stat (nothing to gate on).
        assert TimeSeries("s").stat("mean") == 0.0


# ---------------------------------------------------------------------------
# Merge properties (hypothesis)
# ---------------------------------------------------------------------------

# Integer sample values keep (count, total) sums exact so associativity
# is testable with ==; intervals drawn from one power-of-two family so
# every pair of series can align.
_INTERVALS = (1.0, 2.0, 4.0)


@st.composite
def series(draw):
    ts = TimeSeries("s", interval_ns=draw(st.sampled_from(_INTERVALS)),
                    max_bins=16)
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        t = draw(st.integers(min_value=0, max_value=40))
        v = draw(st.integers(min_value=-8, max_value=8))
        ts.record(float(t), float(v))
    return ts


def _copy(ts: TimeSeries) -> TimeSeries:
    out = TimeSeries(ts.name, ts.labels, ts.interval_ns,
                     max_bins=ts.max_bins)
    out.bins = list(ts.bins)
    return out


def _canon(ts: TimeSeries):
    """Interval + bins, trailing-None normalised (empty tails are
    representation detail, not data)."""
    bins = list(ts.bins)
    while bins and bins[-1] is None:
        bins.pop()
    return (ts.interval_ns, bins)


def _merged(*parts: TimeSeries) -> TimeSeries:
    acc = _copy(parts[0])
    for part in parts[1:]:
        acc.merge(_copy(part))
    return acc


class TestTimeSeriesMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(series(), series(), series())
    def test_merge_is_associative(self, a, b, c):
        left = _merged(_merged(a, b), c)
        right = _merged(a, _merged(b, c))
        assert _canon(left) == _canon(right)

    @settings(max_examples=60, deadline=None)
    @given(series(), series())
    def test_merge_is_commutative(self, a, b):
        assert _canon(_merged(a, b)) == _canon(_merged(b, a))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(series(), min_size=2, max_size=5),
           st.randoms(use_true_random=False))
    def test_fold_order_is_irrelevant(self, parts, rng):
        ordered = _merged(*parts)
        shuffled = list(parts)
        rng.shuffle(shuffled)
        assert _canon(_merged(*shuffled)) == _canon(ordered)

    @settings(max_examples=40, deadline=None)
    @given(series(), series())
    def test_merge_preserves_sample_count(self, a, b):
        assert (_merged(a, b).sample_count()
                == a.sample_count() + b.sample_count())


# ---------------------------------------------------------------------------
# Timeline encode / merge_point transport
# ---------------------------------------------------------------------------


class TestTimelineTransport:
    def _sampled(self, offset: float) -> Timeline:
        tl = Timeline(sample_interval_ns=10.0)
        for t in range(5):
            tl.record("link.util", offset + t * 10.0, float(t), link="a")
            tl.record("queue", offset + t * 10.0, float(t * 2), port="0")
        return tl

    def test_encode_roundtrips_via_merge_point(self):
        tl = self._sampled(0.0)
        other = Timeline(sample_interval_ns=10.0)
        other.merge_point(tl.encode())
        assert json.dumps(other.to_dict(), sort_keys=True) \
            == json.dumps(tl.to_dict(), sort_keys=True)

    def test_merge_point_order_is_irrelevant(self):
        a, b = self._sampled(0.0), self._sampled(50.0)
        ab = Timeline(sample_interval_ns=10.0)
        ab.merge_point(a.encode())
        ab.merge_point(b.encode())
        ba = Timeline(sample_interval_ns=10.0)
        ba.merge_point(b.encode())
        ba.merge_point(a.encode())
        assert json.dumps(ab.to_dict(), sort_keys=True) \
            == json.dumps(ba.to_dict(), sort_keys=True)

    def test_encode_is_picklable_and_sorted(self):
        import pickle
        tl = self._sampled(0.0)
        payload = tl.encode()
        assert payload == sorted(payload, key=lambda e: (e[0], e[1]))
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_series_named_filters_labels(self):
        tl = self._sampled(0.0)
        assert len(tl.series_named("link.util")) == 1
        assert len(tl.series_named("link.util", {"link": "a"})) == 1
        assert tl.series_named("link.util", {"link": "b"}) == []

    def test_null_timeline_is_inert(self):
        before = len(NULL_TIMELINE)
        NULL_TIMELINE.record("x", 0.0, 1.0)
        NULL_TIMELINE.probe(None, "x", lambda: 0.0)
        assert len(NULL_TIMELINE) == before
        assert NULL_TIMELINE.enabled is False
        assert NULL_TIMELINE.sample_interval_ns == 0.0


# ---------------------------------------------------------------------------
# The simulator-driven sampler
# ---------------------------------------------------------------------------


class TestSimSampler:
    def test_kernel_probes_sample_at_interval(self):
        from repro.obs import observe
        from repro.sim.engine import Simulator

        with observe(sample_interval_ns=10.0) as session:
            sim = Simulator()

            def ticker():
                for _ in range(10):
                    yield sim.timeout(5.0)

            sim.process(ticker())
            sim.run()
            assert sim.now == 50.0
        names = {ts.name for ts in session.timeline.all_series()}
        assert {"des.event_pool", "des.pending_events"} <= names
        pending = session.timeline.series_named("des.pending_events")[0]
        # Boundaries 10..50 inclusive crossed by event timestamps.
        assert pending.sample_count() == 5

    def test_pending_events_counts_same_time_events(self):
        from repro.obs import observe
        from repro.sim.engine import Simulator

        with observe(sample_interval_ns=10.0) as session:
            sim = Simulator()
            for _ in range(3):
                sim.timeout(10.0)
            sim.timeout(25.0)
            sim.run()
        pending = session.timeline.series_named("des.pending_events")[0]
        # At t=10 one timeout is about to run, the other two due at t=10 wait
        # in the same-time queue and the t=25 one in the heap: 3 pending.
        # The t=20 boundary is sampled on reaching t=25, with none left.
        assert pending.values("max") == [3.0, 0.0]

    def test_unsampled_simulator_pays_one_inf_compare(self):
        import math
        from repro.sim.engine import Simulator

        sim = Simulator()
        assert sim._sampler is None
        assert sim._sample_due == math.inf

    def test_default_interval_constant(self):
        assert DEFAULT_SAMPLE_INTERVAL_NS == 1000.0
