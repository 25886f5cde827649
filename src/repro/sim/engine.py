"""Event queue and simulator core.

Time is a float measured in **nanoseconds**.  All hardware models in the
library convert cycles to nanoseconds through :class:`repro.sim.clock.Clock`
so that components in different clock domains (180 MHz CPUs, 60 MHz links)
compose on one timeline.

Pending events live in a two-level queue:

* ``_ready`` — a FIFO (``deque``) of events due at the current instant.
  :meth:`Event.trigger`, the inline FIFO accept/match paths, and any
  timeout whose ``now + delay`` equals ``now`` (a zero delay, or one
  absorbed by float rounding) append here.
* ``_queue`` — a heap of ``(time, seq, event)`` entries due strictly
  later; only future timeouts pay its log-n push and pop.

The run loops drain ``_ready`` first.  When it is empty they advance the
clock to the heap top and move *every* heap entry due at that instant
into ``_ready`` before running any of them.  That is exactly the order of
a single heap keyed by ``(time, seq)``: an entry in the heap at time T
was pushed before the clock reached T, so it precedes everything
triggered at T, and ``_ready`` is appended in trigger order, which is
seq order.  While a run is in progress no heap entry is due at ``now``.

The event loop is the hot path of every network figure, so the kernel
also keeps allocation off the per-event path: events with a single
waiter (the dominant case — one component callback, or one process
blocked on one timeout or FIFO slot) dispatch without building a fresh
callback list, and the link, crossbar, transceiver and driver draw
their delays from a :meth:`Simulator.pooled_timeout` free list instead
of allocating a new :class:`Timeout` per flit.  No process runs on the
per-flit path: those components are callback state machines over
:class:`~repro.network.link.ByteFifo`, whose callable waiters are
called synchronously by the put or get that satisfies them, with no
event at all.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Iterable, Optional

_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double triggers, negative delays)."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, is *triggered* with an optional value, and
    once processed invokes its callbacks.  Processes waiting on an event are
    resumed with the event's value.
    """

    # ``delay`` lives here (not on Timeout) so the recycled-object pool can
    # hand the same instance back as either a pooled event or a pooled
    # timeout; see :meth:`Simulator.pooled_event`.
    __slots__ = ("sim", "callbacks", "_value", "_triggered", "_processed",
                 "_pooled", "name", "delay")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._processed = False
        self._pooled = False
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Schedule this event to fire now (at the current simulation time)."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self.sim._ready.append(self)
        return self

    def succeed(self, value: Any = None) -> "Event":
        """Alias of :meth:`trigger`, for simpy familiarity."""
        return self.trigger(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name="timeout")
        self.delay = delay
        self._triggered = True
        self._value = value
        now = sim._now
        when = now + delay
        if when == now:
            sim._ready.append(self)
        else:
            _heappush(sim._queue, (when, next(sim._tiebreak), self))


class AnyOf(Event):
    """Fires when the first of several events fires.

    The value is a dict mapping the fired event(s) to their values at the
    moment the first fires.  On firing, the combinator deregisters its
    callback from the events that have *not* fired, so waiting repeatedly
    alongside a long-lived event (e.g. a persistent link-down event polled
    in a loop) does not accumulate dead callbacks on it.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf of no events")
        for event in self.events:
            if event.processed:
                self._collect(event)
                break
            event.callbacks.append(self._collect)

    def _collect(self, _event: Event) -> None:
        if self._triggered:
            return
        fired = {e: e.value for e in self.events if e.processed}
        self.trigger(fired)
        collect = self._collect
        for event in self.events:
            if not event.processed and event.callbacks:
                try:
                    event.callbacks.remove(collect)
                except ValueError:
                    pass


class Simulator:
    """The event loop: a same-time FIFO before a heap of future
    ``(time, tiebreak, event)`` entries (see the module docstring)."""

    def __init__(self):
        self._now = 0.0
        self._ready: deque[Event] = deque()
        self._queue: list[tuple[float, int, Event]] = []
        self._tiebreak = itertools.count()
        self._running = False
        self._timeout_pool: list[Timeout] = []
        self.events_processed = 0
        # ``(counter, kind, labels)`` of the components built on this
        # simulator, for each run to publish (repro.obs.published).
        self.counters: list = []
        # Periodic telemetry sampling (repro.obs.timeline).  With no
        # sampler attached ``_sample_due`` stays at +inf, so the run
        # loops pay one float compare per clock advance and nothing
        # else.  The import is function-level: repro.obs pulls in
        # sim.stats, which triggers this module via sim/__init__.
        self._sampler = None
        self._sample_due = math.inf
        from repro.obs import OBS

        if OBS.enabled:
            OBS.timeline.attach(self)

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- event factories -------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` drawn from a free list.

        Once processed, the timeout is recycled for a later call, so hot
        paths (drivers, the crossbar, the link) do not allocate a fresh
        object per flit.  Callers must drop their reference after the
        timeout fires, because the object is reused.  Two uses qualify:
        ``yield sim.pooled_timeout(...)`` in a process, and a component
        that attaches exactly one callback and keeps no reference
        (``sim.pooled_timeout(ns, flit).callbacks.append(self._done)``,
        as the link does).  The callback runs before the object is
        recycled and may read ``event.value`` there, but must not keep the
        event.  Code that stores a timeout and inspects it later (``timer
        in fired``) must use :meth:`timeout`.
        """
        pool = self._timeout_pool
        if not pool:
            timeout = Timeout(self, delay, value=value)
            timeout._pooled = True
            return timeout
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        timeout = pool.pop()
        timeout._triggered = True
        timeout._processed = False
        timeout._value = value
        timeout.name = "timeout"
        timeout.delay = delay
        if timeout.callbacks:
            timeout.callbacks.clear()
        now = self._now
        when = now + delay
        if when == now:
            self._ready.append(timeout)
        else:
            _heappush(self._queue, (when, next(self._tiebreak), timeout))
        return timeout

    def pooled_event(self, name: str = "") -> Event:
        """An :class:`Event` drawn from the same free list.

        The same caveat as :meth:`pooled_timeout` applies: once the event
        is triggered, nothing may touch it again.  Two uses qualify: a
        call site that yields the event immediately, and one that
        attaches one callback and triggers it, dropping its reference
        when it triggers.  The driver's receive drain (yielded by the
        receiving process, triggered at the close flit) and the
        crossbar's watchdog decision are of that kind.  Code that keeps
        the event after it fires (combinators, tests reading ``.value``
        after the run) must use :meth:`event`.
        """
        pool = self._timeout_pool
        if not pool:
            event = Event(self, name)
            event._pooled = True
            return event
        event = pool.pop()
        event._triggered = False
        event._processed = False
        event._value = None
        event.name = name
        if event.callbacks:
            event.callbacks.clear()
        return event

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator) -> "Process":
        """Start a new process from a generator; see :mod:`repro.sim.process`."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling -------------------------------------------------------

    def _requeue_ready(self) -> None:
        """Hand events made due outside a run back to the heap.

        Code between runs (building a world, a run cut at ``until``) can
        leave events in ``_ready``.  Re-pushed at ``now`` in FIFO order
        they precede every heap entry, so the loop still runs them first,
        but meets them through its advance path: the ``until`` cut-off
        and the sampler tick treat them exactly as they did when every
        event went through the heap.
        """
        ready = self._ready
        if ready:
            now = self._now
            queue = self._queue
            tiebreak = self._tiebreak
            for event in ready:
                _heappush(queue, (now, next(tiebreak), event))
            ready.clear()

    def step(self) -> float:
        """Process one event; return its timestamp."""
        ready = self._ready
        if ready:
            event = ready.popleft()
            when = self._now
        else:
            queue = self._queue
            when, _, event = heapq.heappop(queue)
            if when < self._now:
                raise SimulationError("time ran backwards")
            self._now = when
            while queue and queue[0][0] == when:
                ready.append(heapq.heappop(queue)[2])
        if when >= self._sample_due:
            self._sample_due = self._sampler.tick(self._sample_due, when)
        event._processed = True
        callbacks = event.callbacks
        if len(callbacks) == 1:
            callback = callbacks[0]
            callbacks.clear()
            callback(event)
        else:
            event.callbacks = []
            for callback in callbacks:
                callback(event)
        if event._pooled:
            self._timeout_pool.append(event)
        self.events_processed += 1
        return when

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or simulated time exceeds ``until``.

        Returns the final simulation time.  ``max_events`` is a runaway
        backstop: the loop processes at most ``max_events`` events and
        raises :class:`SimulationError` the moment more work would exceed
        that budget.  Under observation the run publishes the deltas of
        :attr:`counters` when it ends, also when it raises.
        """
        from repro.obs import published

        with published(self.counters):
            return self._run(until, max_events)

    def _run(self, until: Optional[float], max_events: int) -> float:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._requeue_ready()
        events = 0
        ready = self._ready
        next_ready = ready.popleft
        make_ready = ready.append
        queue = self._queue
        pool = self._timeout_pool
        heappop = heapq.heappop
        try:
            while True:
                if ready:
                    if events >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; runaway simulation?")
                    event = next_ready()
                elif queue:
                    when = queue[0][0]
                    if until is not None and when > until:
                        self._now = until
                        break
                    if events >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; runaway simulation?")
                    event = heappop(queue)[2]
                    if when < self._now:
                        raise SimulationError("time ran backwards")
                    self._now = when
                    while queue and queue[0][0] == when:
                        make_ready(heappop(queue)[2])
                    if when >= self._sample_due:
                        self._sample_due = self._sampler.tick(
                            self._sample_due, when)
                else:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                event._processed = True
                callbacks = event.callbacks
                if len(callbacks) == 1:
                    callback = callbacks[0]
                    callbacks.clear()
                    callback(event)
                else:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                if event._pooled:
                    pool.append(event)
                events += 1
        finally:
            self._running = False
            self.events_processed += events
        return self._now

    def run_until_complete(self, process: "Process",
                           max_events: int = 50_000_000) -> Any:
        """Run until ``process`` terminates and return its value.

        Unlike :meth:`run`, this stops as soon as the process finishes, so
        it works in the presence of perpetual background processes (OS
        noise, daemons) that would keep the event queue busy forever.
        It publishes :attr:`counters` as :meth:`run` does.
        """
        from repro.obs import published

        with published(self.counters):
            return self._run_until_complete(process, max_events)

    def _run_until_complete(self, process: "Process", max_events: int) -> Any:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._requeue_ready()
        events = 0
        ready = self._ready
        next_ready = ready.popleft
        make_ready = ready.append
        queue = self._queue
        pool = self._timeout_pool
        heappop = heapq.heappop
        try:
            while not process._triggered:
                if ready:
                    if events >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; runaway simulation?")
                    event = next_ready()
                elif queue:
                    if events >= max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; runaway simulation?")
                    when, _, event = heappop(queue)
                    if when < self._now:
                        raise SimulationError("time ran backwards")
                    self._now = when
                    while queue and queue[0][0] == when:
                        make_ready(heappop(queue)[2])
                    if when >= self._sample_due:
                        self._sample_due = self._sampler.tick(
                            self._sample_due, when)
                else:
                    break
                event._processed = True
                callbacks = event.callbacks
                if len(callbacks) == 1:
                    callback = callbacks[0]
                    callbacks.clear()
                    callback(event)
                else:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                if event._pooled:
                    pool.append(event)
                events += 1
        finally:
            self._running = False
            self.events_processed += events
        if not process.finished:
            raise SimulationError(
                f"event queue drained but process {process!r} never finished "
                "(deadlock: it is waiting on an event nobody will trigger)")
        return process.value

    def pending_events(self) -> int:
        """Events scheduled but not yet processed: the same-time FIFO
        plus the future heap."""
        return len(self._ready) + len(self._queue)
