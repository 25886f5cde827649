"""Discrete-event simulation kernel used by every PowerMANNA substrate.

The kernel is a small, simpy-flavoured engine: processes are Python
generators that ``yield`` events (timeouts, FIFO gets/puts, resource
requests), and a central :class:`~repro.sim.engine.Simulator` advances
virtual time.  Components that model clocked hardware use
:class:`~repro.sim.clock.Clock` to convert between cycles and the
simulator's time unit (nanoseconds throughout this library).
"""

from repro.sim.engine import Event, Simulator, Timeout
from repro.sim.process import Process
from repro.sim.resources import FifoStore, Resource, Signal
from repro.sim.clock import Clock
from repro.sim.stats import Counter, Histogram

__all__ = [
    "Clock",
    "Counter",
    "Event",
    "FifoStore",
    "Histogram",
    "Process",
    "Resource",
    "Signal",
    "Simulator",
    "Timeout",
]
