"""Tests for span tracing and critical-path breakdown."""

import pytest

from repro.bench.microbench import topology_point
from repro.msg.api import build_cluster_world
from repro.network.topology import cluster_spec
from repro.obs import observe
from repro.obs.spans import NULL_SPAN_TRACER, SpanTracer


class TestSpanLifecycle:
    def test_begin_end(self):
        tracer = SpanTracer()
        sid = tracer.begin("work", "comp", 10.0, category="test")
        tracer.end(sid, 25.0, outcome="ok")
        (span,) = tracer.finished_spans()
        assert span.name == "work"
        assert span.duration_ns == 15.0
        assert span.attrs["outcome"] == "ok"

    def test_open_span_has_no_duration(self):
        tracer = SpanTracer()
        sid = tracer.begin("w", "c", 0.0)
        with pytest.raises(ValueError):
            tracer.spans[sid].duration_ns

    def test_message_auto_parenting(self):
        tracer = SpanTracer()
        root = tracer.begin("message", "drv", 0.0, message=7, root=True)
        child = tracer.begin("link.transmit", "link", 5.0, message=7)
        tracer.end(child, 8.0)
        tracer.end_message(7, 20.0)
        assert tracer.spans[child].parent_id == root
        assert tracer.root_of(7).duration_ns == 20.0
        tree = tracer.tree(7)
        assert tree.count() == 2
        assert tree.depth() == 2

    def test_explicit_parent_wins(self):
        tracer = SpanTracer()
        tracer.begin("message", "drv", 0.0, message=1, root=True)
        outer = tracer.begin("a", "c", 1.0, message=1)
        inner = tracer.begin("b", "c", 2.0, message=1, parent=outer)
        assert tracer.spans[inner].parent_id == outer

    def test_limit_drops_and_end_of_dropped_is_safe(self):
        tracer = SpanTracer(limit=1)
        kept = tracer.begin("a", "c", 0.0)
        dropped = tracer.begin("b", "c", 1.0)
        assert dropped == 0
        tracer.end(dropped, 2.0)  # must not raise
        tracer.end(kept, 2.0)
        assert tracer.dropped == 1
        assert len(tracer) == 1

    def test_null_tracer_is_inert(self):
        assert NULL_SPAN_TRACER.begin("a", "c", 0.0) == 0
        NULL_SPAN_TRACER.end(0, 1.0)
        NULL_SPAN_TRACER.end_message(5, 1.0)
        assert len(NULL_SPAN_TRACER) == 0


class TestBreakdown:
    def test_segments_sum_to_root_and_latest_stage_wins(self):
        tracer = SpanTracer()
        tracer.begin("message", "drv", 0.0, message=1, root=True)
        a = tracer.begin("send", "drv", 0.0, message=1)
        tracer.end(a, 6.0)
        b = tracer.begin("inject", "ni", 4.0, message=1)  # overlaps send
        tracer.end(b, 9.0)
        tracer.end_message(1, 12.0)  # 9..12 untracked

        segments = tracer.breakdown(1)
        assert segments == [
            ("drv/send", 4.0),       # 0..4: only send covers
            ("ni/inject", 5.0),      # 4..9: inject started later, wins
            ("(untracked)", 3.0),    # 9..12: gap
        ]
        assert sum(d for _, d in segments) == pytest.approx(12.0)
        totals = tracer.breakdown_totals(1)
        assert totals["ni/inject"] == 5.0

    def test_stage_clamped_to_root_interval(self):
        tracer = SpanTracer()
        tracer.begin("message", "drv", 10.0, message=1, root=True)
        s = tracer.begin("early", "c", 0.0, message=1)  # starts before root
        tracer.end(s, 30.0)  # ends after root
        tracer.end_message(1, 20.0)
        assert tracer.breakdown(1) == [("c/early", 10.0)]

    def test_unfinished_root_raises(self):
        tracer = SpanTracer()
        tracer.begin("message", "drv", 0.0, message=1, root=True)
        with pytest.raises(KeyError):
            tracer.breakdown(1)


class TestMessagePathIntegration:
    """The tentpole acceptance: one ping-pong message is one causal tree
    whose stage durations account for the reported one-way latency."""

    NBYTES = 64

    def test_pingpong_spans_form_rooted_trees(self):
        with observe() as session:
            _, world = build_cluster_world()
            world.ping_pong(0, 1, self.NBYTES, reps=1, warmup=1)
        tracer = session.tracer
        mids = tracer.message_ids()
        assert len(mids) == 4  # (warmup + 1 rep) x (ping + pong)
        for mid in mids:
            tree = tracer.tree(mid)
            assert tree.span.name == "message"
            assert tree.span.finished
            # Every stage span of the message hangs off the one root.
            for span in tracer.spans_of(mid):
                if span.span_id != tree.span.span_id:
                    assert span.parent_id == tree.span.span_id
            stage_names = {s.name for s in tracer.spans_of(mid)
                           if s.span_id != tree.span.span_id}
            # The paper's message path: send PIO, NI inject, link flits,
            # crossbar arbitration+forward, receive drain.
            assert {"driver.send", "ni.inject", "link.transmit",
                    "xbar.arbitrate", "driver.drain"} <= stage_names

    def test_breakdown_sums_to_reported_latency(self):
        with observe() as session:
            point = topology_point(cluster_spec().to_dict(), self.NBYTES,
                                   "latency")
        latency_ns = point.latency_us * 1e3
        tracer = session.tracer
        mids = tracer.message_ids()
        assert mids, "latency run recorded no messages"
        for mid in mids:
            root = tracer.root_of(mid)
            segments = tracer.breakdown(mid)
            assert sum(d for _, d in segments) == pytest.approx(
                root.duration_ns, rel=1e-9)
        # Steady state: every one-way trip costs the same, so the mean
        # root-span duration IS the benchmark's reported one-way latency.
        mean_root = sum(tracer.root_of(m).duration_ns
                        for m in mids) / len(mids)
        assert mean_root == pytest.approx(latency_ns, rel=1e-6)

    def test_metrics_attributed_to_benchmark_cell(self):
        with observe() as session:
            topology_point(cluster_spec().to_dict(), self.NBYTES,
                           "latency")
        sent = session.metrics.series("driver.sent")
        assert sent
        for inst in sent:
            labels = dict(inst.labels)
            assert labels["system"] == "PowerMANNA"
            assert labels["bench"] == "ping_pong"
            assert labels["nbytes"] == str(self.NBYTES)  # labels stringify
