"""Imperative (eager) engine execution.

PyTorch-style engines "run operations in a FIFO manner" (§2.3): a
single driver thread executes ops strictly in the order they were
posted.  Communication launches never block the driver (they are
asynchronous handles); PROXY ops *do* block it — that is exactly how
ByteScheduler's forward pre-hooks gate each layer (§3.4, "we also add
hooks to forward propagation ... so that forward computation of each
layer will not start until the all-reduce of this layer is completed").

The driver is a chain of kernel callbacks, not a process.  Posted ops
wait in a plain :class:`collections.deque`; each next op reaches the
driver through one :meth:`~repro.sim.Environment.defer` entry, and the
driver then finishes it on the kernel entry that ends it (a compute
delay, a proxy's release, a barrier's dependencies).  The hand-off is
scheduled at the same moment, and takes the same single sequence
number, as the get event of the Store-fed driver process the engine
used to be, so every same-instant tie resolves as it did there and
whole trajectories are unchanged.

An idle driver holds nothing: no parked event, no suspended generator.
So nothing in the engine points back at it once its last op is done,
and a finished job is freed by reference counting.

Finishing an op completes it (:meth:`~repro.sim.Completion.complete`):
only ops something waits on (a barrier, the job's iteration marker)
take a kernel entry for it.  The driver waits on nothing but its
barriers, so most ops of an imperative run finish without one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.frameworks.engine import Engine, EngineOp, OpKind
from repro.sim import Environment

__all__ = ["ImperativeEngine", "PyTorchEngine"]


class ImperativeEngine(Engine):
    """Single-driver sequential executor.

    Posted ops wait in ``_posted`` while the driver is ``_busy`` (an op
    is on its way to it or running); a post to an idle driver hands the
    op over directly.
    """

    style = "imperative"

    def __init__(self, env: Environment, name: str = "imperative") -> None:
        super().__init__(env, name)
        self._posted: Deque[EngineOp] = deque()
        # Busy until the kick-off entry runs, as a driver process would
        # be until its first resumption.
        self._busy = True
        env.defer(self._advance)

    def _accept(self, op: EngineOp) -> None:
        if self._busy:
            self._posted.append(op)
        else:
            self._busy = True
            self.env.defer(self._start, op)

    def _advance(self, _arg=None) -> None:
        """Hand the driver its next posted op, or let it go idle."""
        if self._posted:
            self.env.defer(self._start, self._posted.popleft())
        else:
            self._busy = False

    def _start(self, op: EngineOp) -> None:
        """Run ``op`` on the driver (its hand-off entry just fired)."""
        if self.halted:
            self._advance()  # the worker died; drain without executing
            return
        env = self.env
        op.started_at = env.now
        kind = op.kind
        if kind is OpKind.COMPUTE:
            duration = op.duration
            if self.compute_scale is not None:
                duration = self.compute_scale(env.now, duration)
            if duration > 0:
                env.defer(self._finish, op, duration)
                return
        elif kind is OpKind.COMM:
            # Launch asynchronously; the driver moves straight on.
            completion = op.launch()
            if op.async_launch or completion is None:
                op.finished_at = env._now
                op.complete(env)
            else:
                completion.then(lambda _completion: self._landed(op))
            self._advance()
            return
        elif kind is OpKind.PROXY:
            # A hook executing on the driver: blocks it until released.
            if op.on_start is not None:
                op.on_start()
            release = op.release
            if release is not None and (
                release.listeners is not None or not release.done
            ):
                self._finish_when(release, op)
                return
        else:  # BARRIER: blocks the driver until its deps are done
            self._after_deps(op, self._finish)
            return
        self._finish(op)

    def _finish(self, op: EngineOp) -> None:
        env = self.env
        op.finished_at = env._now
        op.complete(env)
        self._advance()

    def _landed(self, op: EngineOp) -> None:
        """A launched COMM op's transfer finished; the driver moved on
        at launch, so there is nothing to advance."""
        env = self.env
        op.finished_at = env._now
        op.complete(env)


class PyTorchEngine(ImperativeEngine):
    """PyTorch-style: imperative, with the optimizer-step barrier that
    waits for all outstanding gradient synchronisation (Figure 3)."""

    has_barrier = True

    def __init__(self, env: Environment, name: str = "pytorch") -> None:
        super().__init__(env, name)
