"""Discrete-event simulation kernel.

A small, deterministic, generator-based kernel in the style of SimPy.
The pieces:

* :class:`Environment` — owns the simulated clock and the event queue.
* :class:`Event` — a one-shot occurrence with callbacks and a value.
* :class:`Timeout` — an event that fires after a simulated delay.
* :class:`Process` — wraps a generator that ``yield``\\ s events; the
  process resumes when the yielded event fires.  A process is itself an
  event that succeeds with the generator's return value.

Determinism: events scheduled for the same simulated time fire in the
order they were scheduled (FIFO tie-break via a monotonically increasing
sequence number).  Given the same inputs, a simulation always produces
the same trajectory — the test suite relies on this.

Performance notes: this kernel is the hot loop under every experiment.
The classes carry ``__slots__``, :class:`Timeout` and :class:`Process`
construction is hand-inlined, and the queue may hold a bare
``(callback, arg)`` pair instead of an :class:`Event` (see
:meth:`Environment.defer`) so zero-delay wakeups and process kick-offs
allocate nothing.

The queue is a binary heap (:mod:`heapq`) of ``(when, key, item)``
entries, where ``key`` packs the urgency bit above the sequence number
so one integer compare resolves a same-instant tie.  Each schedule
point consumes exactly one sequence number, so the trajectory is the
same as the straightforward ``(time, priority, sequence)`` ordering.
A pure-Python bucketed queue was measured slower on every end-to-end
workload: the C-implemented ``heapq`` wins at the tens to thousands of
live entries these simulations keep.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import Interrupt, SimulationError

__all__ = ["Environment", "Event", "Timeout", "Process", "PENDING"]

#: Sentinel for "this event has not been triggered yet".
PENDING = object()

#: Priority for interrupts — they pre-empt same-time normal events.
_URGENT = 0
_NORMAL = 1

#: Queue entries are ``(when, key, item)``; ``key`` packs the priority
#: above the sequence number (``eid`` for urgent, ``_NORMAL_BASE + eid``
#: for normal) so one integer compare resolves the full
#: ``(priority, eid)`` tie-break.  2**53 sequence numbers is ~3 years of
#: kernel time at current throughput — far beyond any single run.
_NORMAL_BASE = 1 << 53

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
        #: True if a failed event's exception was consumed by a process.
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

        A failed event re-raises ``exception`` inside every process
        waiting on it.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy state from ``event`` and schedule.  Callback-compatible."""
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self)

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
        heappush(env._queue, (env._now + delay, _NORMAL_BASE + eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


ProcessGenerator = Generator[Event, Any, Any]


class _InitSentinel:
    """Shared pre-succeeded stand-in for a process's kick-off event.

    Immutable (``__slots__ = ()``; state lives in class attributes), so
    one instance serves every process ever started.
    """

    __slots__ = ()
    _ok = True
    _value = None


_INIT = _InitSentinel()


class Process(Event):
    """Wraps a generator, resuming it each time a yielded event fires.

    The process is itself an event: it succeeds with the generator's
    return value, or fails with the exception that escaped it.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick the process off inside env.run() — not with a throwaway
        # init Event, but with a bare (callback, sentinel) queue entry
        # that the run loop dispatches directly.
        eid = env._eid + 1
        env._eid = eid
        heappush(env._queue, (env._now, _NORMAL_BASE + eid, (self._resume, _INIT)))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The process stops waiting for its current target and instead
        handles (or propagates) the interrupt at its ``yield``.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        # Retarget instead of scanning the abandoned target's callback
        # list: _resume ignores firings from anything that is not the
        # current target, so the stale callback left behind is a no-op
        # (same observable behaviour as removing it, at O(1)).
        self._target = event
        self.env._schedule(event, priority=_URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's value."""
        if self._value is not PENDING:
            # Already terminated (e.g. an interrupt raced a target event
            # that was popped from the queue in the same instant).
            if not event._ok:
                event.defused = True
            return
        target = self._target
        if target is not None and event is not target:
            # A target abandoned by interrupt() finally fired.  The
            # process moved on long ago; fall through to whatever other
            # consumers the event has (failures stay un-defused, exactly
            # as if this callback had been removed).
            return
        self._target = None
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env._schedule(self)
                break

            if not isinstance(next_event, Event):
                err = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = err
                self.env._schedule(self)
                break
            if next_event.env is not self.env:
                err = SimulationError("yielded an event from another environment")
                self._ok = False
                self._value = err
                self.env._schedule(self)
                break

            if next_event.callbacks is not None:
                # Not yet processed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: feed its value straight back in.
            event = next_event

        self.env._active_process = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", repr(self._generator))
        return f"<Process {name} at {id(self):#x}>"


class Environment:
    """The simulation environment: clock plus event queue.

    Typical use::

        env = Environment()

        def hello(env):
            yield env.timeout(3.0)
            return env.now

        proc = env.process(hello(env))
        env.run()
        assert proc.value == 3.0

    Pending work lives in one binary heap, ``_queue``, of
    ``(when, key, item)`` entries (see ``_NORMAL_BASE`` for ``key``);
    ``item`` is an :class:`Event` or a bare ``(callback, arg)`` pair
    from :meth:`defer`.
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that fires once every event in ``events`` has fired."""
        from repro.sim.events import AllOf

        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> Event:
        """Event that fires once any event in ``events`` has fired."""
        from repro.sim.events import AnyOf

        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = _NORMAL) -> None:
        eid = self._eid + 1
        self._eid = eid
        key = _NORMAL_BASE + eid if priority else eid
        heappush(self._queue, (self._now + delay, key, event))

    def defer(
        self,
        fn: Callable[[Any], None],
        arg: Any = None,
        delay: float = 0.0,
        priority: int = _NORMAL,
    ) -> None:
        """Schedule a bare callback ``fn(arg)`` to run ``delay`` seconds
        from now, with no :class:`Event` allocated.

        The fast path for fire-and-forget wakeups that used to be
        spelled ``env.timeout(0.0).callbacks.append(fn)``.  Consumes one
        sequence number, exactly like scheduling an event, so it slots
        into the deterministic order at the same position the timeout
        would have.  There is nothing to wait on or cancel — use a real
        :class:`Timeout` when the caller needs a handle.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"defer delay must be >= 0, got {delay!r}")
        eid = self._eid + 1
        self._eid = eid
        key = _NORMAL_BASE + eid if priority else eid
        heappush(self._queue, (self._now + delay, key, (fn, arg)))

    def _pending(self) -> int:
        """Number of scheduled-but-unfired entries (for repr/tests)."""
        return len(self._queue)

    # -- execution --------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Process the single next event."""
        queue = self._queue
        if not queue:
            raise SimulationError("no more events to step through")
        when, _key, event = heappop(queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        if event.__class__ is tuple:
            # A defer()-style bare callback; nothing to detach or raise.
            event[0](event[1])
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
            when, _key, event = heappop(queue)
            self._now = when
            if event.__class__ is tuple:
                event[0](event[1])
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
