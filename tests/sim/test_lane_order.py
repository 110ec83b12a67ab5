"""The kernel fires entries in ``(when, eid)`` order.

:class:`Environment` below, with its :class:`Event` and
:class:`Timeout`, is a verbatim copy of the heap-only kernel that every
trajectory pin was recorded on: all entries, same-instant ones too, go
through one binary heap.  It is kept only as the oracle for the
same-instant lane of :mod:`repro.sim.core`, which has no events: each
way the oracle schedules an entry maps to the callback-only kernel's
replacement for it (a timeout, a succeeded or a failed-and-handled
event to one :meth:`~repro.sim.Environment.defer`; an inline succeed
to a direct call; a completion with a listener to
:meth:`~repro.sim.Completion.complete`).  Random programs mix every
way of scheduling an entry, with zero, positive and ulp-sized delays,
at clocks where ``now + 1e-12 == now``; they are driven by ``run()``,
by ``run(until=)`` stops and by ``peek``/``step`` loops (as
``TrainingJob.advance`` does).  Both kernels must produce the same
``(time, label)`` firing log, the same clock and the same ``_eid``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import sim
from repro.errors import SimulationError

PENDING = object()

_INF = float("inf")


class Event:
    """A one-shot occurrence on an :class:`Environment`'s timeline.

    An event starts *pending*; it is *triggered* when given a value (or
    an exception) and scheduled; it is *processed* once its callbacks
    have run.  Callbacks receive the event itself.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: True once a callback has handled this event's failure.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the queue."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def succeed_inline(self, value: Any = None) -> None:
        """Succeed with ``value`` and run the callbacks right now.

        For a caller that already runs inside the kernel entry this
        event would have been scheduled into: the callbacks run where
        they would have, and no sequence number is consumed.  Used
        when two milestones coincide (a zero-delay acknowledgement
        returns credit in the very entry that delivered the push).
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Unless a callback sets ``defused``, the exception is raised
        from :meth:`Environment.run` once the callbacks have run.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self.callbacks is None:
            state = "processed"
        elif self._value is not PENDING:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # ``not >=`` (rather than ``<``) also rejects NaN, which would
        # otherwise sit at the heap head and stall the run loop.
        if not delay >= 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        # Inlined Event.__init__ + _schedule: timeouts dominate the
        # allocation profile, so they pay for zero indirection.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        eid = env._eid + 1
        env._eid = eid
        heappush(env._queue, (env._now + delay, eid, None, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Environment:
    """The simulation environment: clock plus event queue.

    Typical use::

        env = Environment()
        log = []
        env.timeout(3.0).callbacks.append(lambda event: log.append(env.now))
        env.defer(log.append, "later", 5.0)
        env.run()
        assert log == [3.0, "later"] and env.now == 5.0

    Pending work lives in one binary heap, ``_queue``, of
    ``(when, eid, fn, arg)`` entries: a bare callback from
    :meth:`defer`/:meth:`defer_at`, or ``fn`` None and an
    :class:`Event` as ``arg``.
    """

    __slots__ = ("_now", "_queue", "_eid")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._eid = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event) -> None:
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self._now, eid, None, event))

    def defer(self, fn: Callable[[Any], None], arg: Any = None, delay: float = 0.0) -> None:
        """Schedule a bare callback ``fn(arg)`` to run ``delay`` seconds
        from now, with no :class:`Event` allocated.

        Consumes one sequence number, exactly like scheduling an event,
        so it slots into the deterministic order at the same position a
        timeout would have.  There is nothing to wait on or cancel — use
        a real :class:`Timeout` when the caller needs a handle.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"defer delay must be >= 0, got {delay!r}")
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self._now + delay, eid, fn, arg))

    def defer_at(self, fn: Callable[[Any], None], arg: Any, when: float) -> None:
        """Schedule ``fn(arg)`` to run at simulated time ``when``.

        ``when`` is stored verbatim, so a callback armed for a
        precomputed boundary runs with ``now == when`` exactly;
        ``defer(fn, arg, when - now)`` may land one ulp off, since
        ``now + (when - now)`` need not round back to ``when``.
        Consumes one sequence number, like :meth:`defer`.
        """
        if not when >= self._now:  # also rejects NaN
            raise SimulationError(
                f"defer_at time must be >= now ({self._now!r}), got {when!r}"
            )
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (when, eid, fn, arg))

    def _pending(self) -> int:
        """Number of scheduled-but-unfired entries (for repr/tests)."""
        return len(self._queue)

    # -- execution --------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Run the single next queue entry."""
        queue = self._queue
        if not queue:
            raise SimulationError("no more events to step through")
        when, _eid, fn, event = heappop(queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        if fn is not None:
            # A defer()-style bare callback; nothing to detach or raise.
            fn(event)
            return
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            # Nobody consumed the failure: surface it to the caller.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced exactly to it,
        even if no event fires at that instant.
        """
        if until is not None:
            if not until >= self._now:  # also rejects NaN
                raise SimulationError(
                    f"cannot run until {until!r}; clock already at {self._now!r}"
                )
            horizon = float(until)
        else:
            horizon = _INF
        # step() inlined: this loop is the innermost of the whole
        # simulator, so it avoids the per-event method call and the
        # scheduled-in-the-past guard (unreachable from a monotonic
        # queue; step() keeps it for direct callers).
        queue = self._queue
        while queue and queue[0][0] <= horizon:
            when, _eid, fn, event = heappop(queue)
            self._now = when
            if fn is not None:
                fn(event)
                continue
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                raise event._value
        if until is not None:
            self._now = horizon

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={self._pending()}>"


KINDS = ("defer", "defer_at", "timeout", "succeed", "inline", "fail", "complete")

#: Zero, positive (ties on purpose) and ulp-sized delays.  At a clock of
#: 1e6 and above, ``now + 1e-12`` rounds back to ``now``; ``1e-10`` is
#: about one ulp there and lands on either side.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1e-12, 1e-10, 5e-324, 3e-9)

programs = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(DELAYS),
        st.integers(min_value=0, max_value=1 << 16),
    ),
    min_size=1,
    max_size=40,
)
drives = st.lists(
    st.tuples(st.sampled_from(("until", "steps", "run")), st.sampled_from(DELAYS)),
    max_size=6,
)


def _replay(make_env, start, program, drive):
    """Run ``program`` on ``make_env(start)``; return the firing log,
    the final clock and the number of sequence numbers issued.

    Node ``i`` of the program is scheduled by the node its third field
    picks (an earlier node, or the root before the run starts) when
    that node fires; its kind and delay say how.
    """
    env = make_env(start)
    children = [[] for _ in range(len(program) + 1)]
    for index, (_kind, _delay, parent) in enumerate(program):
        children[parent % (index + 1)].append(index)
    log = []

    def fire(index):
        log.append((env.now, index))
        for child in children[index + 1]:
            schedule(child)

    def on_event(event, index):
        if not event._ok:
            event.defused = True
        fire(index)

    def schedule(index):
        kind, delay, _parent = program[index]
        if kind == "defer":
            env.defer(fire, index, delay)
        elif kind == "defer_at":
            env.defer_at(fire, index, env.now + delay)
        elif isinstance(env, sim.Environment):
            # The callback-only kernel's replacement for each event use.
            if kind == "timeout":
                env.defer(fire, index, delay)
            elif kind == "inline":
                fire(index)
            elif kind == "complete":
                done = sim.Completion()
                done.then(lambda _done: fire(index))
                done.complete(env)
            else:
                env.defer(fire, index)
        elif kind == "timeout":
            env.timeout(delay).callbacks.append(lambda event: on_event(event, index))
        else:
            event = env.event()
            event.callbacks.append(lambda event: on_event(event, index))
            if kind in ("succeed", "complete"):
                event.succeed()
            elif kind == "inline":
                event.succeed_inline()
            else:
                event.fail(RuntimeError(index))

    for child in children[0]:
        schedule(child)
    for how, offset in drive:
        horizon = env.now + offset
        if how == "until":
            env.run(until=horizon)
        elif how == "steps":
            # TrainingJob.advance: step while the next entry is due.
            while env.peek() <= horizon:
                env.step()
        else:
            env.run()
    while env.peek() != math.inf:
        env.step()
    return log, env.now, env._eid


@given(
    start=st.sampled_from((0.0, 1e6, 3.3e7)),
    program=programs,
    drive=drives,
)
@example(
    # A zero-delay entry, then one whose ``now + 1e-12`` rounds to now:
    # both are due now and must fire in the order they were scheduled.
    start=1e6,
    program=[("defer", 0.5, 0), ("defer", 0.0, 1), ("defer", 1e-12, 1)],
    drive=[],
)
@example(
    # A heap entry due at 1.0 (scheduled at 0) must fire before the
    # same-instant entries scheduled once the clock reached 1.0.
    start=0.0,
    program=[("defer", 1.0, 0), ("defer", 1.0, 0), ("succeed", 0.0, 1)],
    drive=[("steps", 1.0)],
)
@settings(max_examples=300, deadline=None)
def test_lane_fires_in_the_heap_only_kernels_order(start, program, drive):
    expected = _replay(Environment, start, program, drive)
    assert _replay(sim.Environment, start, program, drive) == expected


def test_pending_counts_heap_and_lane():
    env = sim.Environment()
    env.defer(print, None, 1.0)
    env.defer(print, None)
    done = sim.Completion()
    done.then(print)
    done.complete(env)
    assert env._pending() == 3
    assert "pending=3" in repr(env)
    assert env.peek() == 0.0
