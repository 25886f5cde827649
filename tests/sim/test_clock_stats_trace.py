"""Tests for clocks and component statistics."""

import pytest

from repro.sim.clock import Clock
from repro.sim.stats import Counter, Histogram


class TestClock:
    def test_period_of_60mhz(self):
        clock = Clock(60.0)
        assert clock.period_ns == pytest.approx(16.6667, rel=1e-4)

    def test_cycles_roundtrip(self):
        clock = Clock(180.0)
        assert clock.ns_to_cycles(clock.cycles_to_ns(123.0)) == pytest.approx(123.0)

    def test_conversions(self):
        clock = Clock(100.0)
        assert clock.cycles_to_ns(100) == pytest.approx(1000.0)
        assert clock.cycles_to_us(100) == pytest.approx(1.0)
        assert clock.cycles_to_seconds(1e8) == pytest.approx(1.0)
        assert clock.hz == pytest.approx(1e8)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            Clock(0.0)

    def test_str(self):
        assert str(Clock(60.0)) == "60 MHz"


class TestCounter:
    def test_incr_and_lookup(self):
        counter = Counter()
        counter.incr("hits")
        counter.incr("hits", 4)
        assert counter["hits"] == 5
        assert counter["missing"] == 0

    def test_ratio(self):
        counter = Counter()
        counter.incr("hit", 3)
        counter.incr("miss", 1)
        assert counter.ratio("hit", ["hit", "miss"]) == pytest.approx(0.75)

    def test_ratio_of_empty_is_zero(self):
        assert Counter().ratio("a", ["a", "b"]) == 0.0

    def test_total_and_reset(self):
        counter = Counter()
        counter.incr("a", 2)
        counter.incr("b", 3)
        assert counter.total() == 5
        counter.reset()
        assert counter.total() == 0

    def test_contains_and_as_dict(self):
        counter = Counter()
        counter.incr("x")
        assert "x" in counter and "y" not in counter
        assert counter.as_dict() == {"x": 1}


class TestHistogram:
    def test_moments(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.add(v)
        assert hist.mean() == pytest.approx(2.5)
        assert hist.minimum() == 1.0
        assert hist.maximum() == 4.0
        assert hist.count == 4
        assert hist.stddev() == pytest.approx(1.29099, rel=1e-4)

    def test_quantiles(self):
        hist = Histogram()
        for v in range(1, 101):
            hist.add(float(v))
        assert hist.quantile(0.5) == 50.0
        assert hist.quantile(0.99) == 99.0
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0

    def test_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_empty_histogram_is_safe(self):
        hist = Histogram()
        assert hist.mean() == 0.0
        assert hist.quantile(0.5) == 0.0
        assert hist.stddev() == 0.0

    def test_buckets(self):
        hist = Histogram()
        for v in (1.0, 5.0, 15.0, 25.0):
            hist.add(v)
        assert hist.buckets([10.0, 20.0]) == [2, 1, 1]

    def test_unsorted_input_sorts_lazily(self):
        hist = Histogram()
        for v in (5.0, 1.0, 3.0):
            hist.add(v)
        assert hist.quantile(0.0) == 1.0

    def test_p50_p99_exact_on_small_histograms(self):
        hist = Histogram()
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            hist.add(v)
        assert hist.p50() == 3.0
        assert hist.p99() == 5.0

    def test_p50_p99_estimate_on_large_unsorted_stream(self):
        import random

        rng = random.Random(7)
        hist = Histogram()
        for _ in range(20_000):
            hist.add(rng.gauss(100.0, 15.0))
        # Past P2_EXACT_LIMIT on an unsorted stream the P2 estimators
        # answer without sorting; they must stay close to the exact ranks.
        assert len(hist) > Histogram.P2_EXACT_LIMIT
        assert hist.p50() == pytest.approx(hist.quantile(0.5), rel=0.02)
        assert hist.p99() == pytest.approx(hist.quantile(0.99), rel=0.02)

    def test_summary_packages_digest(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.add(v)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0
        assert summary["p99"] == 4.0

    def test_empty_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

