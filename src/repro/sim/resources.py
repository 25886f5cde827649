"""Shared simulation resources: FIFO stores, mutex-style resources, signals.

These are the blocking queues, locks and wake-ups of the components
above the flit level: the driver's send/receive locks, the crossbar's
output arbiters, the reliable channels' delivery queues and EARTH's
ready and outbox queues.  The per-flit hardware queues (link, crossbar
input and NI FIFOs) are :class:`~repro.network.link.ByteFifo` instead.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.engine import Event, SimulationError, Simulator


class FifoStore:
    """A bounded FIFO of items with blocking put/get.

    ``capacity`` is measured in *items*; hardware models choose the item
    granularity (bytes, flits, 64-bit words, cache lines).  ``put`` blocks
    while full, ``get`` blocks while empty — this is exactly the soft flow
    control ("stop" signal) of the PowerMANNA link protocol when the FIFO
    models a receive buffer.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"),
                 name: str = "fifo"):
        if capacity <= 0:
            raise SimulationError(f"FIFO capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = name + ".put"
        self._get_name = name + ".get"
        self.items: Deque[Any] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()
        self._getters: Deque[Event] = deque()
        self.total_put = 0
        self.total_got = 0
        self.high_water = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.items

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` has been enqueued."""
        event = Event(self.sim, self._put_name)
        items = self.items
        if not self._putters and len(items) < self.capacity:
            # Accepted immediately — same trigger order as _settle (put
            # event first, then the getter it satisfies, if any).
            items.append(item)
            self.total_put += 1
            if len(items) > self.high_water:
                self.high_water = len(items)
            # Inline event.trigger(item): the event is fresh, so the
            # double-trigger check cannot fire.
            event._triggered = True
            event._value = item
            self.sim._ready.append(event)
            getters = self._getters
            if getters:
                gev = getters.popleft()
                got = items.popleft()
                self.total_got += 1
                gev.trigger(got)
                if getters and items:
                    self._settle()
            return event
        # Queued behind other putters, or the store is full.  No match is
        # possible (the head putter is still blocked, and a waiting getter
        # implies the store is empty), so skip the settle loop.
        self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim, self._get_name)
        items = self.items
        if items and not self._getters:
            got = items.popleft()
            self.total_got += 1
            event._triggered = True
            event._value = got
            self.sim._ready.append(event)
            if self._putters:
                self._settle()
            return event
        self._getters.append(event)
        if items:
            self._settle()
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when full."""
        if self.is_full:
            return False
        self.items.append(item)
        self.total_put += 1
        self.high_water = max(self.high_water, len(self.items))
        self._settle()
        return True

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self.is_empty:
            return False, None
        item = self.items.popleft()
        self.total_got += 1
        self._settle()
        return True, item

    def peek(self) -> Any:
        if self.is_empty:
            raise SimulationError(f"peek on empty FIFO {self.name!r}")
        return self.items[0]

    def _settle(self) -> None:
        """Match putters to free slots and getters to items."""
        items = self.items
        putters = self._putters
        getters = self._getters
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            if putters and len(items) < capacity:
                event, item = putters.popleft()
                items.append(item)
                self.total_put += 1
                if len(items) > self.high_water:
                    self.high_water = len(items)
                event.trigger(item)
                progressed = True
            if getters and items:
                event = getters.popleft()
                item = items.popleft()
                self.total_got += 1
                event.trigger(item)
                progressed = True


class Resource:
    """A mutex/semaphore with FIFO queueing and occupancy statistics.

    Used to model arbitrated shared hardware: the snoop/address phase of the
    node bus, crossbar output ports, the memory controller's banks.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._acquire_name = name + ".acquire"
        self.in_use = 0
        self._waiters: Deque[tuple[Event, float]] = deque()
        # Statistics for contention analysis.
        self.total_acquisitions = 0
        self.total_wait_time = 0.0
        self.busy_time = 0.0
        self._last_change = 0.0

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event firing once a slot is held.

        The event's value is the wait time spent queued.
        """
        event = Event(self.sim, self._acquire_name)
        if self.in_use < self.capacity:
            self._grant(event, self.sim.now)
        else:
            self._waiters.append((event, self.sim.now))
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._account()
        self.in_use -= 1
        if self._waiters:
            event, requested_at = self._waiters.popleft()
            self._grant(event, requested_at)

    def _grant(self, event: Event, requested_at: float) -> None:
        self._account()
        self.in_use += 1
        self.total_acquisitions += 1
        waited = self.sim.now - requested_at
        self.total_wait_time += waited
        event.trigger(waited)

    def _account(self, now: Optional[float] = None) -> None:
        now = self.sim.now if now is None else now
        self.busy_time += self.in_use * (now - self._last_change)
        self._last_change = now

    def sync(self, now: Optional[float] = None) -> None:
        """Fold occupancy forward so the raw ``busy_time`` attribute is
        current.

        ``busy_time`` is otherwise only accounted on state changes
        (acquire/release), so reading it at end of run while a slot is
        still held reports a stale value — :meth:`utilization` corrects
        for that in its own arithmetic, but any consumer of the raw
        counter must call this first.
        """
        self._account(now)

    def utilization(self, now: Optional[float] = None) -> float:
        """Time-averaged fraction of capacity in use."""
        now = self.sim.now if now is None else now
        if now <= 0:
            return 0.0
        busy = self.busy_time + self.in_use * (now - self._last_change)
        return busy / (now * self.capacity)

    def wait_pressure(self, now: Optional[float] = None) -> float:
        """Granted wait time plus the wait accrued by still-queued
        requests — a live congestion signal that grows while waiters sit
        in the queue, not only when they are finally granted."""
        now = self.sim.now if now is None else now
        queued = sum(now - requested_at for _, requested_at in self._waiters)
        return self.total_wait_time + queued


class Signal:
    """A level-style condition that processes can wait on.

    Unlike :class:`~repro.sim.engine.Event`, a Signal can fire repeatedly;
    each ``wait()`` returns a fresh one-shot event for the *next* firing.
    Models the "stop" wire of the link protocol and doorbell-style
    notifications.
    """

    def __init__(self, sim: Simulator, name: str = "signal"):
        self.sim = sim
        self.name = name
        self._wait_name = name + ".wait"
        self._waiters: list[Event] = []
        self.fire_count = 0

    def wait(self) -> Event:
        event = Event(self.sim, self._wait_name)
        self._waiters.append(event)
        return event

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; return how many were woken."""
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.trigger(value)
        self.fire_count += 1
        return len(waiters)
