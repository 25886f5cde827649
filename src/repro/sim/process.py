"""Generator-based simulation processes.

A process wraps a Python generator.  Each value the generator yields must be
an :class:`~repro.sim.engine.Event`; the process suspends until the event
fires and is resumed with the event's value::

    def producer(sim, fifo):
        while True:
            yield sim.timeout(10.0)
            yield fifo.put("item")

    sim.process(producer(sim, fifo))

A process is itself an event that fires (with the generator's return value)
when the generator finishes, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.engine import Event, SimulationError, Simulator


class Process(Event):
    """A running generator, resumable by the events it yields."""

    __slots__ = ("_generator", "_send", "_resume_cb")

    def __init__(self, sim: Simulator, generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?")
        super().__init__(sim, name=getattr(generator, "__name__", "process"))
        self._generator = generator
        self._send = generator.send
        # Bound once: every wait appends this same callback.
        self._resume_cb = self._resume
        # Bootstrap: resume once at the current time.
        start = Event(sim, "start")
        start.callbacks.append(self._resume_cb)
        start.trigger()

    @property
    def finished(self) -> bool:
        return self.triggered

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    # -- internal ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        # The per-event hot path.
        try:
            target = self._send(event._value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        try:
            processed = target._processed
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Events") from None
        if processed:
            # Already fired: resume immediately (but via the queue, to keep
            # deterministic ordering).
            poke = Event(self.sim, "immediate")
            poke.callbacks.append(lambda _e: self._resume(target))
            poke.trigger()
        else:
            target.callbacks.append(self._resume_cb)
