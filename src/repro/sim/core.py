"""Discrete-event simulation kernel.

A small, deterministic, callback-driven kernel.  The pieces:

* :class:`Environment` — owns the simulated clock and the event queue.
* :class:`Event` — a one-shot occurrence with callbacks and a value.
* :class:`Timeout` — an event that fires after a simulated delay.

Code that waits does not block: it appends a callback to an event, or
schedules a bare ``fn(arg)`` call with :meth:`Environment.defer`
(``delay`` seconds from now) or :meth:`Environment.defer_at` (at an
absolute time, stored verbatim).  Each step of a multi-step activity
is one such callback, and a chain of them replaces a process.

Determinism: entries scheduled for the same simulated time fire in the
order they were scheduled (FIFO tie-break via a monotonically
increasing sequence number).  Given the same inputs, a simulation
always produces the same trajectory — the test suite relies on this.

Performance notes: this kernel is the hot loop under every experiment.
The classes carry ``__slots__``, :class:`Timeout` construction is
hand-inlined, and a queue entry may carry a bare callback and its
argument instead of an :class:`Event` (see :meth:`Environment.defer`)
so wake-ups allocate no event.

The queue is a binary heap (:mod:`heapq`) of ``(when, eid, fn, arg)``
entries: ``fn(arg)`` for a deferred callback, ``fn`` None and ``arg``
the event for an event.  Each schedule point consumes exactly one
sequence number ``eid``, so one integer compare resolves a
same-instant tie and the heap never compares further.  A
pure-Python bucketed queue was measured slower on every end-to-end
workload: the C-implemented ``heapq`` wins at the tens to thousands of
live entries these simulations keep.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

__all__ = ["Environment", "Event", "Timeout", "PENDING"]

#: Sentinel for "this event has not been triggered yet".
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
