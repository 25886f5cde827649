"""Property: the kernel runs events in exact ``(due time, scheduling
index)`` order, whatever mix of same-time and future work it is given.

Each example is a random program of scheduling operations: timeouts
(delay 0, equal delays, distinct delays, and delays absorbed by float
rounding at a large ``now``), plain events triggered later from inside
callbacks, put/get pairs on a bounded FIFO, and ``AnyOf``
combinators.  The test numbers every event itself at the moment it is
scheduled and records its due time, then checks the order the kernel
processed the events in against the sort by ``(due, index)``.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.resources import FifoStore

#: Delays chosen to collide: at ``now = 1e17`` (one ulp is 16 ns) the
#: three smallest non-zero ones round away to ``now`` itself.
_DELAYS = st.sampled_from([0.0, 0.25, 1.0, 3.0, 64.0, 64.0, 160.0])

_OPS = st.lists(st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("event"), st.just(None)),
    st.tuples(st.just("trigger"), st.integers(0, 7)),
    st.tuples(st.just("put"), st.just(None)),
    st.tuples(st.just("get"), st.just(None)),
    st.tuples(st.just("any_of"), st.integers(0, 7)),
), min_size=1, max_size=40)


class _Program:
    """Runs ``ops`` on ``sim``: a few at the start, then a few more each
    time one of its events is processed, until the ops run out."""

    def __init__(self, sim, ops, fanout):
        self.sim = sim
        self.ops = iter(ops)
        self.fanout = itertools.cycle(fanout)
        self.fifo = FifoStore(sim, capacity=2, name="fifo")
        self.index = itertools.count()
        self.scheduled = {}        # event -> (due, index)
        self.processed = []        # events, in the order the kernel ran them
        self.pending = []          # plain events not yet triggered
        self.events = []           # every event made, for combinators
        self.blocked = []          # FIFO put/get events not yet triggered

    def schedule(self, event, due):
        self.scheduled[event] = (due, next(self.index))

    def track(self, event):
        event.callbacks.append(self.on_processed)
        self.events.append(event)
        return event

    def on_processed(self, event):
        self.processed.append(event)
        self.run_ops(next(self.fanout))

    def run_ops(self, count):
        for op, arg in itertools.islice(self.ops, count):
            getattr(self, "op_" + op)(arg)

    def op_timeout(self, delay):
        due = self.sim.now + delay
        self.schedule(self.track(self.sim.timeout(delay)), due)

    def op_event(self, _arg):
        self.pending.append(self.track(self.sim.event()))

    def op_trigger(self, pick):
        if self.pending:
            event = self.pending.pop(pick % len(self.pending))
            event.trigger()
            self.schedule(event, self.sim.now)

    def _fifo_op(self, event):
        # The FIFO triggers the caller's own event first, then at most
        # one blocked counterpart it unblocks.
        self.track(event)
        for candidate in [event] + self.blocked:
            if candidate.triggered and candidate not in self.scheduled:
                self.schedule(candidate, self.sim.now)
        if not event.triggered:
            self.blocked.append(event)
        self.blocked = [e for e in self.blocked if not e.triggered]

    def op_put(self, _arg):
        self._fifo_op(self.fifo.put("item"))

    def op_get(self, _arg):
        self._fifo_op(self.fifo.get())

    def op_any_of(self, pick):
        if not self.events:
            return
        start = pick % len(self.events)
        members = self.events[start:start + 3]
        combo = self.sim.any_of(members)
        self.track(combo)
        if combo.triggered:
            self.schedule(combo, self.sim.now)
            return

        # Appended right after the combinator's own callback on each
        # member, so nothing else can trigger in between.
        def note(_member):
            if combo.triggered and combo not in self.scheduled:
                self.schedule(combo, self.sim.now)

        for member in members:
            if not member.processed:
                member.callbacks.append(note)


def _drive(sim, driver):
    if driver == "run":
        sim.run()
    elif driver == "step":
        while sim.pending_events():
            sim.step()
    else:
        # Cut the run at every 50 ns: events left due at a cut instant
        # must still go first on the next run.
        while sim.pending_events():
            sim.run(until=sim.now + 50.0)


@given(ops=_OPS,
       fanout=st.lists(st.integers(0, 3), min_size=1, max_size=8),
       start=st.integers(1, 4),
       base=st.sampled_from([0.0, 1e17]),
       driver=st.sampled_from(["run", "step", "until"]))
@settings(max_examples=300, deadline=None)
def test_events_run_in_due_then_scheduling_order(ops, fanout, start, base,
                                                 driver):
    sim = Simulator()
    sim.timeout(base)
    sim.run()
    program = _Program(sim, ops, fanout)
    program.run_ops(start)
    _drive(sim, driver)
    expected = sorted(program.scheduled, key=program.scheduled.__getitem__)
    assert program.processed == expected
