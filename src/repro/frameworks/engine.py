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
:mod:`repro.frameworks.imperative`.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterable, List, Optional, Union

from repro.errors import ConfigError
from repro.sim import Environment, Event

__all__ = ["OpKind", "EngineOp", "Engine"]


class OpKind(enum.Enum):
    """What an engine op does."""

    COMPUTE = "compute"
    COMM = "comm"
    PROXY = "proxy"
    BARRIER = "barrier"


DepLike = Union["EngineOp", Event]


class EngineOp:
    """One operation posted to a framework engine."""

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
        self.deps: List[DepLike] = list(deps)
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

    # -- shared op body -----------------------------------------------------

    def _run_op_body(self, op: EngineOp):
        """Generator executing an op's action (after deps, off-GPU part)."""
        if op.kind is OpKind.COMPUTE:
            duration = op.duration
            if self.compute_scale is not None:
                duration = self.compute_scale(self.env.now, duration)
            if duration > 0:
                yield self.env.timeout(duration)
        elif op.kind is OpKind.COMM:
            completion = op.launch()
            if not op.async_launch and completion is not None:
                yield completion
        elif op.kind is OpKind.PROXY:
            if op.on_start is not None:
                op.on_start()
            if op.release is not None and not op.release.processed:
                yield op.release
        elif op.kind is OpKind.BARRIER:
            pass  # deps were awaited by the engine already
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ops={self.ops_posted}>"
