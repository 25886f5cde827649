"""Tests for the discrete-event simulation core."""

import pytest

from repro.sim.engine import AnyOf, SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestSimulatorBasics:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_time(self, sim):
        sim.timeout(125.0)
        assert sim.run() == 125.0

    def test_run_with_empty_queue_returns_current_time(self, sim):
        assert sim.run() == 0.0

    def test_run_until_caps_time(self, sim):
        sim.timeout(1000.0)
        assert sim.run(until=300.0) == 300.0
        # The pending event is still there and fires on the next run.
        assert sim.run() == 1000.0

    def test_run_until_beyond_queue_advances_to_until(self, sim):
        sim.timeout(10.0)
        assert sim.run(until=500.0) == 500.0

    def test_events_fire_in_time_order(self, sim):
        order = []
        for delay in (30.0, 10.0, 20.0):
            sim.timeout(delay).callbacks.append(
                lambda e, d=delay: order.append(d))
        sim.run()
        assert order == [10.0, 20.0, 30.0]

    def test_simultaneous_events_fire_in_creation_order(self, sim):
        order = []
        for tag in "abc":
            sim.timeout(5.0).callbacks.append(
                lambda e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_max_events_backstop(self, sim):
        def forever():
            while True:
                yield sim.timeout(1.0)

        sim.process(forever())
        with pytest.raises(SimulationError, match="runaway"):
            sim.run(max_events=100)

    def test_pending_events_counts_queue(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.event().trigger()  # due now: the same-time FIFO, not the heap
        assert (len(sim._ready), len(sim._queue)) == (1, 2)
        assert sim.pending_events() == 3


class TestEvent:
    def test_trigger_carries_value(self, sim):
        event = sim.event("e")
        event.trigger(42)
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [42]

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.trigger()
        with pytest.raises(SimulationError, match="twice"):
            event.trigger()

    def test_succeed_is_trigger_alias(self, sim):
        event = sim.event()
        event.succeed("v")
        sim.run()
        assert event.value == "v"
        assert event.processed

    def test_untriggered_event_never_processes(self, sim):
        event = sim.event()
        sim.run()
        assert not event.triggered
        assert not event.processed


class TestCompositeEvents:
    def test_any_of_fires_on_first(self, sim):
        fast, slow = sim.timeout(10.0, value="fast"), sim.timeout(99.0)
        any_event = AnyOf(sim, [fast, slow])
        sim.run(until=20.0)
        assert any_event.processed
        assert any_event.value == {fast: "fast"}

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(SimulationError):
            AnyOf(sim, [])

    def test_helpers_on_simulator(self, sim):
        e1, e2 = sim.timeout(1.0), sim.timeout(2.0)
        any_ev = sim.any_of([e1, e2])
        sim.run()
        assert any_ev.processed and any_ev.value == {e1: None}


class TestRunUntilComplete:
    def test_returns_process_value(self, sim):
        def worker():
            yield sim.timeout(10.0)
            return "done"

        proc = sim.process(worker())
        assert sim.run_until_complete(proc) == "done"

    def test_deadlock_detected(self, sim):
        def stuck():
            yield sim.event("never")

        proc = sim.process(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(proc)

    def test_not_reentrant(self, sim):
        def nested():
            sim.run()
            yield sim.timeout(1.0)

        sim.process(nested())
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()
