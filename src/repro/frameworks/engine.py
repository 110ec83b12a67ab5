"""Framework engine operations.

An :class:`EngineOp` is the unit an ML framework engine executes.  Four
kinds cover everything the reproduction needs (and everything the paper
manipulates):

* ``COMPUTE`` — a forward or backward op with a duration; runs on the
  worker's GPU.
* ``COMM`` — posts a communication operation; ``launch()`` hands the
  tensor to the scheduler/communication stack and returns its
  :class:`~repro.sim.Completion`.  With ``async_launch`` the op
  *completes at launch* ("replace the actual communication operation
  by an asynchronous operation", §3.4) and the real transfer proceeds
  out of engine.
* ``PROXY`` — a Dependency Proxy (§3.3): claims dependencies inside the
  engine, fires ``on_start`` when the engine starts it (that is
  ``notify_ready``), and refuses to finish until its ``release``
  completion fires (that is how the Core delays or gates downstream
  ops).  It holds no GPU.
* ``BARRIER`` — completes when its dependencies have; models the
  inter-iteration global barrier of TensorFlow/PyTorch (§2.3).

Engines differ only in *when* they run posted ops — see
:mod:`repro.frameworks.declarative` and
:mod:`repro.frameworks.imperative`.  Both run on kernel callbacks; the
waits they share, a dependency countdown (:meth:`Engine._after_deps`)
and a finish-on-completion hook (:meth:`Engine._finish_when`), live
here.

An op is its own completion: :class:`EngineOp` is a
:class:`~repro.sim.Completion`, so ``op.done`` is a flag and finishing
an op nobody listens to issues no kernel entry.  Listeners (a waiting
op's countdown, the job's iteration markers) run in the one entry its
finish issues, in the slot where the op's completion event used to
fire.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Iterable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.sim import Completion, Environment

__all__ = ["OpKind", "EngineOp", "Engine"]


class OpKind(enum.Enum):
    """What an engine op does."""

    COMPUTE = "compute"
    COMM = "comm"
    PROXY = "proxy"
    BARRIER = "barrier"


class EngineOp(Completion):
    """One operation posted to a framework engine, and its completion.

    ``deps`` — the ops and completions this op waits for — is consumed when
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
        "started_at",
        "finished_at",
    )

    def __init__(
        self,
        name: str,
        kind: OpKind,
        deps: Iterable[Completion] = (),
        duration: float = 0.0,
        launch: Optional[Callable[[], Optional[Completion]]] = None,
        async_launch: bool = False,
        on_start: Optional[Callable[[], None]] = None,
        release: Optional[Completion] = None,
    ) -> None:
        if kind is OpKind.COMPUTE and not 0 <= duration < math.inf:
            raise ConfigError(
                f"op {name!r}: duration must be finite and >= 0, got {duration!r}"
            )
        if kind is OpKind.COMM and launch is None:
            raise ConfigError(f"op {name!r}: COMM ops need a launch callable")
        super().__init__()
        self.name = name
        self.kind = kind
        self.deps: Sequence[Completion] = list(deps)
        self.duration = duration
        self.launch = launch
        self.async_launch = async_launch
        self.on_start = on_start
        self.release = release
        self.seq: Optional[int] = None  # set by the engine at post time
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

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
        #: future ops are abandoned (they never complete).
        self.halted = False

    def halt(self) -> None:
        """Permanently stop executing ops (the worker crashed for good).

        Ops already finished stay finished; anything pending is
        abandoned — the surviving cluster must not depend on it (the
        recovery layer excuses this worker from barriers/countdowns).
        """
        self.halted = True

    def post(self, op: EngineOp) -> EngineOp:
        """Accept ``op`` for execution; returns it with ``seq`` set."""
        if op.seq is not None:
            raise ConfigError(f"op {op.name!r} posted twice")
        op.seq = self._seq
        self._seq += 1
        self.ops_posted += 1
        if self.record_ops:
            self.ops.append(op)
        self._accept(op)
        return op

    def _accept(self, op: EngineOp) -> None:
        raise NotImplementedError

    def _finish(self, op: EngineOp) -> None:
        raise NotImplementedError

    def _after_deps(self, op: EngineOp, then: Callable[[EngineOp], None]) -> None:
        """Call ``then(op)`` once every dependency of ``op`` has fired.

        With no dependencies ``then`` runs right away.  Otherwise it
        runs in one :meth:`~repro.sim.Environment.defer` entry, issued
        when the last dependency whose listeners have not yet run fires,
        or now if none is left to wait for: the slot in which a
        wait-for-all condition event would have been scheduled.
        ``op.deps`` is consumed here and cleared.
        """
        deps = op.deps
        op.deps = ()
        if not deps:
            then(op)
            return
        env = self.env
        left = 0  # deps still to fire

        def countdown(_dep: Completion) -> None:
            nonlocal left
            left -= 1
            if not left:
                env.defer(then, op)

        # Completion.then, written out: a dep whose listeners have run
        # needs no countdown (this loop runs for every op posted).
        for dep in deps:
            listeners = dep.listeners
            if listeners is not None:
                listeners.append(countdown)
            elif not dep.done:
                if isinstance(dep, EngineOp) and dep.seq is None:
                    raise ConfigError(
                        f"op {op.name!r} depends on unposted op {dep.name!r}"
                    )
                dep.listeners = [countdown]
            else:
                continue
            left += 1
        if not left:
            env.defer(then, op)

    def _finish_when(self, completion: Completion, op: EngineOp) -> None:
        """Call :meth:`_finish` once ``completion`` fires (right away if
        it completed and no listener of it is still pending)."""
        completion.then(lambda _completion: self._finish(op))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ops={self.ops_posted}>"
