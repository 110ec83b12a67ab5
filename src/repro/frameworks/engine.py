"""Framework engine operations.

An :class:`EngineOp` is the unit an ML framework engine executes.  Four
kinds cover everything the reproduction needs (and everything the paper
manipulates):

* ``COMPUTE`` — a forward or backward op with a duration; runs on the
  worker's GPU.
* ``COMM`` — posts a communication operation; ``launch()`` hands the
  tensor to the scheduler/communication stack and returns the
  completion event.  With ``async_launch`` the op *completes at launch*
  ("replace the actual communication operation by an asynchronous
  operation", §3.4) and the real transfer proceeds out of engine.
* ``PROXY`` — a Dependency Proxy (§3.3): claims dependencies inside the
  engine, fires ``on_start`` when the engine starts it (that is
  ``notify_ready``), and refuses to finish until its ``release`` event
  fires (that is how the Core delays or gates downstream ops).  It
  holds no GPU.
* ``BARRIER`` — completes when its dependencies have; models the
  inter-iteration global barrier of TensorFlow/PyTorch (§2.3).

Engines differ only in *when* they run posted ops — see
:mod:`repro.frameworks.declarative` and
:mod:`repro.frameworks.imperative`.  Both run on kernel callbacks; the
waits they share, a dependency countdown (:meth:`Engine._after_deps`)
and a finish-on-event hook (:meth:`Engine._finish_when`), live here.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.sim import Environment, Event

__all__ = ["OpKind", "EngineOp", "Engine"]


def _reraise(exc: BaseException) -> None:
    """Deferred callback: surface ``exc`` from ``env.run()``."""
    raise exc


class OpKind(enum.Enum):
    """What an engine op does."""

    COMPUTE = "compute"
    COMM = "comm"
    PROXY = "proxy"
    BARRIER = "barrier"


DepLike = Union["EngineOp", Event]


class EngineOp:
    """One operation posted to a framework engine.

    ``deps`` — the ops and events this op waits for — is consumed when
    the engine starts waiting on them (:meth:`Engine._after_deps`) and
    then cleared: otherwise each op would reach every earlier op of the
    run through its dependency chain, and a long run would hold all its
    iterations instead of those in flight.  (An imperative engine waits
    only at its barriers, whose clearing cuts the chain per iteration.)
    """

    __slots__ = (
        "name",
        "kind",
        "deps",
        "duration",
        "launch",
        "async_launch",
        "on_start",
        "release",
        "seq",
        "done",
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        name: str,
        kind: OpKind,
        deps: Iterable[DepLike] = (),
        duration: float = 0.0,
        launch: Optional[Callable[[], Optional[Event]]] = None,
        async_launch: bool = False,
        on_start: Optional[Callable[[], None]] = None,
        release: Optional[Event] = None,
    ) -> None:
        if kind is OpKind.COMPUTE and not 0 <= duration < math.inf:
            raise ConfigError(
                f"op {name!r}: duration must be finite and >= 0, got {duration!r}"
            )
        if kind is OpKind.COMM and launch is None:
            raise ConfigError(f"op {name!r}: COMM ops need a launch callable")
        self.name = name
        self.kind = kind
        self.deps: Sequence[DepLike] = list(deps)
        self.duration = duration
        self.launch = launch
        self.async_launch = async_launch
        self.on_start = on_start
        self.release = release
        self.seq: Optional[int] = None  # set by the engine at post time
        self.done: Optional[Event] = None  # created by the engine
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def dep_events(self) -> List[Event]:
        """Dependencies normalised to events."""
        events = []
        for dep in self.deps:
            if isinstance(dep, EngineOp):
                if dep.done is None:
                    raise ConfigError(
                        f"op {self.name!r} depends on unposted op {dep.name!r}"
                    )
                events.append(dep.done)
            else:
                events.append(dep)
        return events

    def __repr__(self) -> str:
        return f"<EngineOp {self.name} {self.kind.value}>"


class Engine:
    """Base engine: op bookkeeping shared by both execution models.

    ``has_barrier`` declares whether this framework inserts a global
    barrier between iterations; program builders consult it.
    """

    has_barrier = False
    style = "abstract"

    def __init__(self, env: Environment, name: str = "engine") -> None:
        self.env = env
        self.name = name
        self._seq = 0
        self.ops_posted = 0
        #: When True, every posted op is retained (timeline analysis).
        self.record_ops = False
        self.ops: List[EngineOp] = []
        #: Fault-plan hook: maps (now, duration) -> effective duration
        #: for COMPUTE ops (straggler injection).  None = healthy.
        self.compute_scale: Optional[Callable[[float, float], float]] = None
        #: True once the worker's process died permanently: pending and
        #: future ops are abandoned (their ``done`` never fires).
        self.halted = False

    def halt(self) -> None:
        """Permanently stop executing ops (the worker crashed for good).

        Ops already finished stay finished; anything pending is
        abandoned — the surviving cluster must not depend on it (the
        recovery layer excuses this worker from barriers/countdowns).
        """
        self.halted = True

    def post(self, op: EngineOp) -> EngineOp:
        """Accept ``op`` for execution; returns it with ``done`` set."""
        if op.done is not None:
            raise ConfigError(f"op {op.name!r} posted twice")
        op.seq = self._seq
        self._seq += 1
        op.done = self.env.event()
        self.ops_posted += 1
        if self.record_ops:
            self.ops.append(op)
        self._accept(op)
        return op

    def _accept(self, op: EngineOp) -> None:
        raise NotImplementedError

    def _finish(self, op: EngineOp) -> None:
        raise NotImplementedError

    def _fail(self, exc: BaseException) -> None:
        """Surface ``exc`` from ``env.run()`` one kernel entry later."""
        self.env.defer(_reraise, exc)

    def _after_deps(self, op: EngineOp, then: Callable[[EngineOp], None]) -> None:
        """Call ``then(op)`` once every dependency of ``op`` has fired.

        With no dependencies ``then`` runs right away.  Otherwise it
        runs in one :meth:`~repro.sim.Environment.defer` entry, issued
        when the last unprocessed dependency fires, or now if all of
        them have already been processed: the slot in which a
        wait-for-all condition event would have been scheduled.  A
        failed dependency instead defers :meth:`_fail` at once, and
        ``then`` never runs; failures of the others are defused.
        ``op.deps`` is consumed here and cleared.
        """
        deps = op.dep_events()
        op.deps = ()
        if not deps:
            then(op)
            return
        env = self.env
        # Unfired deps, plus one that holds the count open until every
        # one has its callback; 0 once resolved either way.
        left = 1

        def countdown(event: Event) -> None:
            nonlocal left
            if not event._ok:
                event.defused = True
                if left:
                    left = 0
                    env.defer(self._fail, event._value)
            elif left:
                left -= 1
                if not left:
                    env.defer(then, op)

        for event in deps:
            callbacks = event.callbacks
            if callbacks is not None:
                callbacks.append(countdown)
                if left:
                    left += 1
            elif not event._ok:
                countdown(event)
        if left:
            left -= 1
            if not left:
                env.defer(then, op)

    def _finish_when(self, event: Event, op: EngineOp) -> None:
        """Call :meth:`_finish` once ``event`` fires (right away if it
        has been processed); if it failed, :meth:`_fail` instead."""

        def fired(event: Event) -> None:
            if event._ok:
                self._finish(op)
            else:
                event.defused = True
                self._fail(event._value)

        if event.callbacks is None:
            fired(event)
        else:
            event.callbacks.append(fired)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ops={self.ops_posted}>"
