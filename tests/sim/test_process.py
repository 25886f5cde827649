"""Tests for generator-based processes."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.process import Process


@pytest.fixture
def sim():
    return Simulator()


class TestProcessLifecycle:
    def test_process_runs_to_completion(self, sim):
        log = []

        def worker():
            log.append(("start", sim.now))
            yield sim.timeout(10.0)
            log.append(("mid", sim.now))
            yield sim.timeout(5.0)
            log.append(("end", sim.now))

        sim.process(worker())
        sim.run()
        assert log == [("start", 0.0), ("mid", 10.0), ("end", 15.0)]

    def test_return_value_becomes_event_value(self, sim):
        def worker():
            yield sim.timeout(1.0)
            return 99

        proc = sim.process(worker())
        sim.run()
        assert proc.finished
        assert proc.value == 99

    def test_process_waiting_on_process(self, sim):
        def child():
            yield sim.timeout(20.0)
            return "child-result"

        results = []

        def parent():
            value = yield sim.process(child())
            results.append((value, sim.now))

        sim.process(parent())
        sim.run()
        assert results == [("child-result", 20.0)]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            Process(sim, lambda: None)

    def test_yielding_non_event_rejected(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="only yield Events"):
            sim.run()

    def test_yield_already_processed_event(self, sim):
        event = sim.timeout(1.0)
        sim.run()
        seen = []

        def late():
            value = yield event
            seen.append(value)

        sim.process(late())
        sim.run()
        assert seen == [None]

    def test_is_alive_tracks_state(self, sim):
        def worker():
            yield sim.timeout(1.0)

        proc = sim.process(worker())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive


class TestDeterminism:
    def test_two_runs_identical(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(name, delay):
                for _ in range(5):
                    yield sim.timeout(delay)
                    trace.append((name, sim.now))

            sim.process(worker("a", 3.0))
            sim.process(worker("b", 7.0))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()
