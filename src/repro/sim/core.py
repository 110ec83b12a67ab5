"""Discrete-event simulation kernel.

A small, deterministic, callback-driven kernel.  The pieces:

* :class:`Environment` — owns the simulated clock and the entry queue.
  Every kernel entry is a bare call ``fn(arg)``, scheduled with
  :meth:`Environment.defer` (``delay`` seconds from now) or
  :meth:`Environment.defer_at` (at an absolute time, stored verbatim).
* :class:`Completion` — a one-shot done flag with listeners, for
  callers that wait on something finishing (an engine op, a
  CommTask, a state sync).  Completing with no listener issues no
  entry; with listeners, one deferred entry runs them all.

Code that waits does not block: it adds a listener to a completion or
defers a callback.  Each step of a multi-step activity is one such
callback, and a chain of them replaces a process.

Determinism: entries scheduled for the same simulated time fire in the
order they were scheduled (FIFO tie-break via a monotonically
increasing sequence number).  Given the same inputs, a simulation
always produces the same trajectory — the test suite relies on this.

Performance notes: this kernel is the hot loop under every experiment.
The classes carry ``__slots__``, and the run loop has one branch per
entry: where it comes from (the heap or the lane).

Pending entries take one sequence number ``eid`` each and fire in
``(when, eid)`` order.  An entry due later goes on a binary heap
(:mod:`heapq`) as ``(when, eid, fn, arg)``.  An entry whose computed
``when`` equals the clock (not ``delay == 0``: ``now + tiny`` can round
to ``now``) goes on the *lane*, a FIFO deque of ``(fn, arg)``, and
skips the heap push and pop; most entries of a training run are such.
Invariant: a heap entry due at ``now`` was scheduled before the clock
reached ``now``, so its ``eid`` is smaller than every lane entry's.  So
heap entries due now fire first, then the lane, and only then does the
clock advance.  A pure-Python bucketed queue was measured slower than
``heapq`` on every end-to-end workload.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

__all__ = ["Environment", "Completion"]

_INF = float("inf")


class Completion:
    """A one-shot flag that something finished, plus its listeners.

    ``done`` turns True once.  A listener ``fn(completion)`` added with
    :meth:`then` runs after that, in one of three ways:

    * added before completion: it runs in the one
      :meth:`Environment.defer` entry that :meth:`complete` issues, or
      inline from :meth:`fire`;
    * added after completion, while that entry is still pending: it
      runs in that entry too;
    * added once that entry has run, or after a completion that had no
      listener (which issues no entry at all): it runs at once.

    The listener list is allocated only when the first listener
    arrives, so a completion nobody waits on costs one flag write.
    The state holds nothing but the flag and the listeners, never a
    reference back to its owner: an op is its own completion
    (:class:`~repro.frameworks.EngineOp` subclasses this one).
    """

    __slots__ = ("done", "listeners")

    def __init__(self) -> None:
        self.done = False
        #: Listeners waiting for the completion's entry; None when
        #: there are none, or once they have run.  Hot paths read it to
        #: inline :meth:`then`: ``done and listeners is None`` means a
        #: new listener would run at once.
        self.listeners: Optional[List[Callable[["Completion"], None]]] = None

    def then(self, fn: Callable[["Completion"], None]) -> None:
        """Call ``fn(self)`` once complete (see the class docstring)."""
        listeners = self.listeners
        if listeners is not None:
            listeners.append(fn)
        elif self.done:
            fn(self)
        else:
            self.listeners = [fn]

    def complete(self, env: "Environment") -> None:
        """Mark done; run the listeners in one entry issued now, if any."""
        if self.done:
            raise SimulationError(f"{self!r} completed twice")
        self.done = True
        if self.listeners is not None:
            # env.defer(Completion.fire, self), inlined: a zero delay
            # always lands on the lane.
            env._eid += 1
            env._lane.append((Completion.fire, self))

    def fire(self, _arg: Any = None) -> None:
        """Mark done and run the listeners now, in the current entry.

        The kernel entry :meth:`complete` issues, and a completion
        point for a caller already inside the entry where the
        listeners belong: a delivery callback (``_arg`` is what it was
        called with), or a :meth:`Environment.defer_at` entry armed
        for the completion time.
        """
        self.done = True
        listeners = self.listeners
        if listeners is not None:
            self.listeners = None
            for fn in listeners:
                fn(self)

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Environment:
    """The simulation environment: clock plus entry queue.

    Typical use::

        env = Environment()
        log = []
        env.defer(lambda _arg: log.append(env.now), None, 3.0)
        env.defer(log.append, "later", 5.0)
        env.run()
        assert log == [3.0, "later"] and env.now == 5.0

    Pending work lives in the heap ``_queue`` and the same-instant
    ``_lane`` (see the module docstring).
    """

    __slots__ = ("_now", "_queue", "_lane", "_eid")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[tuple] = []
        self._lane: deque = deque()
        self._eid = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    # -- scheduling -------------------------------------------------------

    def defer(self, fn: Callable[[Any], None], arg: Any = None, delay: float = 0.0) -> None:
        """Schedule a bare callback ``fn(arg)`` to run ``delay`` seconds
        from now.

        Consumes one sequence number, so entries due at the same time
        fire in the order they were scheduled.  There is nothing to
        wait on or cancel: a caller that needs a handle holds a
        :class:`Completion` and defers its completion.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"defer delay must be >= 0, got {delay!r}")
        eid = self._eid + 1
        self._eid = eid
        when = self._now + delay
        if when == self._now:
            self._lane.append((fn, arg))
        else:
            heappush(self._queue, (when, eid, fn, arg))

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
        if when == self._now:
            self._lane.append((fn, arg))
        else:
            heappush(self._queue, (when, eid, fn, arg))

    def _pending(self) -> int:
        """Number of scheduled-but-unfired entries (for repr/tests)."""
        return len(self._queue) + len(self._lane)

    # -- execution --------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none."""
        if self._lane:
            return self._now
        queue = self._queue
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Run the single next queue entry."""
        queue = self._queue
        lane = self._lane
        if lane and not (queue and queue[0][0] <= self._now):
            fn, arg = lane.popleft()
        elif queue:
            when, _eid, fn, arg = heappop(queue)
            if when < self._now:
                raise SimulationError("event scheduled in the past")
            self._now = when
        else:
            raise SimulationError("no more events to step through")
        fn(arg)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced exactly to it,
        even if no entry fires at that instant.
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
        # simulator, so it avoids the per-entry method call and the
        # scheduled-in-the-past guard (unreachable from a monotonic
        # queue; step() keeps it for direct callers).  Lane entries are
        # due now, so they never wait on the horizon; heap entries due
        # now go first.
        queue = self._queue
        lane = self._lane
        popleft = lane.popleft
        while True:
            if lane and not (queue and queue[0][0] <= self._now):
                fn, arg = popleft()
            elif queue and queue[0][0] <= horizon:
                when, _eid, fn, arg = heappop(queue)
                self._now = when
            else:
                break
            fn(arg)
        if until is not None:
            self._now = horizon

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={self._pending()}>"
