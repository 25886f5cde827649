"""Regression tests for hot-path bugs fixed alongside the fast paths.

Each test here pins a specific pre-fix behavior:

* ``max_events`` was an off-by-one: the run loops processed
  ``max_events + 1`` events before tripping the runaway backstop.
* ``AnyOf`` leaked its ``_collect`` callback on events that had not
  fired when the combinator triggered, so polling a long-lived
  event in a loop accumulated dead callbacks on it.
* Pooled timeouts/events must behave exactly like fresh ones when
  recycled (state fully reset, callbacks cleared).

It also pins the kernel invariants the fast paths rely on: an unsampled
simulator compares against ``inf`` only, and during a run every event
due at ``now`` waits in the same-time FIFO, never in the heap.
"""

import math

import pytest

from repro.sim.engine import AnyOf, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestMaxEventsExactTrip:
    """The backstop must allow exactly ``max_events`` events, no more."""

    def _self_rescheduling(self, sim, counter):
        def proc():
            while True:
                yield sim.timeout(1.0)
                counter.append(None)

        return proc()

    def test_run_processes_exactly_max_events(self, sim):
        counter = []
        sim.process(self._self_rescheduling(sim, counter))
        with pytest.raises(SimulationError, match="exceeded 5 events"):
            sim.run(max_events=5)
        # 5 events processed: the process start poke + 4 timeouts, with
        # the 6th event still pending when the backstop fires.
        assert sim.events_processed == 5

    def test_run_until_complete_processes_exactly_max_events(self, sim):
        counter = []
        process = sim.process(self._self_rescheduling(sim, counter))
        with pytest.raises(SimulationError, match="exceeded 5 events"):
            sim.run_until_complete(process, max_events=5)
        assert sim.events_processed == 5

    def test_exact_budget_completes_without_tripping(self, sim):
        done = []

        def finite():
            for _ in range(4):
                yield sim.timeout(1.0)
            done.append(True)

        sim.process(finite())
        # start poke + 4 timeouts + process-finished event = 6 events.
        sim.run(max_events=6)
        assert done == [True]
        assert sim.events_processed == 6

    def test_one_under_budget_trips(self, sim):
        def finite():
            for _ in range(4):
                yield sim.timeout(1.0)

        sim.process(finite())
        with pytest.raises(SimulationError, match="runaway"):
            sim.run(max_events=5)


class TestCombinatorCallbackLeak:
    """AnyOf must deregister from unfired events once it fires."""

    def test_anyof_deregisters_from_unfired_events(self, sim):
        long_lived = sim.event("link_down")

        def poll():
            for _ in range(50):
                yield AnyOf(sim, [sim.timeout(1.0), long_lived])

        process = sim.process(poll())
        sim.run_until_complete(process)
        # Pre-fix, every loop iteration left one dead _collect callback
        # on the long-lived event (50 here).
        assert long_lived.callbacks == []

    def test_anyof_fires_with_first_value(self, sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(10.0, value="slow")
        combo = AnyOf(sim, [fast, slow])
        sim.run()
        assert combo.value == {fast: "fast"}
        assert slow.callbacks == []


class TestPooledRecycling:
    """Recycled timeouts/events must be indistinguishable from fresh."""

    def test_pooled_timeout_reuses_objects(self, sim):
        fired = []

        def proc():
            for i in range(10):
                yield sim.pooled_timeout(1.0, value=i)
                fired.append(sim.now)

        process = sim.process(proc())
        sim.run_until_complete(process)
        assert fired == [float(i) for i in range(1, 11)]
        # The free list holds at most a handful of objects, not 10.
        assert len(sim._timeout_pool) <= 2

    def test_pooled_timeout_negative_delay_rejected(self, sim):
        def proc():
            yield sim.pooled_timeout(1.0)
            yield sim.pooled_timeout(-1.0)

        process = sim.process(proc())
        with pytest.raises(SimulationError, match="negative"):
            sim.run_until_complete(process)

    def test_pooled_event_round_trip(self, sim):
        first = sim.pooled_event("a")
        first.trigger("x")
        sim.run()
        second = sim.pooled_event("b")
        # Same object, fully reset.
        assert second is first
        assert not second.triggered
        assert not second.processed
        assert second.value is None
        assert second.callbacks == []
        assert second.name == "b"

    def test_pool_is_shared_between_events_and_timeouts(self, sim):
        event = sim.pooled_event("ev")
        event.trigger(42)
        sim.run()
        timeout = sim.pooled_timeout(3.0, value="later")
        assert timeout is event
        assert sim.run() == 3.0

    def test_recycled_timeout_drops_the_event_name(self, sim):
        event = sim.pooled_event("fifo.put")
        event.trigger(None)
        sim.run()
        timeout = sim.pooled_timeout(1.0)
        assert timeout is event
        assert timeout.name == "timeout"


class TestKernelInvariants:
    def test_unsampled_run_keeps_due_now_events_off_the_heap(
            self, monkeypatch):
        from repro.msg.api import build_cluster_world
        from repro.network.link import Link

        serialized = Link._serialized
        checked = []

        def checked_serialized(self, event):
            queue = self.sim._queue
            assert not queue or queue[0][0] > self.sim.now, (
                f"heap entry due at {queue[0][0]!r} with now="
                f"{self.sim.now!r}")
            checked.append(None)
            return serialized(self, event)

        # Patched before the world is built: each link binds its
        # per-flit callbacks once, at construction.  The kernel
        # dispatches this one from a pooled timeout for every flit-hop.
        monkeypatch.setattr(Link, "_serialized", checked_serialized)
        sim, world = build_cluster_world()
        # No sampler: the run loops compare against inf only.
        assert sim._sampler is None
        assert sim._sample_due == math.inf
        world.one_way_latency_ns(0, 1, 1024)
        world.unidirectional_mb_s(0, 1, 256, count=4)
        assert len(checked) > 1000
