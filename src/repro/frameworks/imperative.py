"""Imperative (eager) engine execution.

PyTorch-style engines "run operations in a FIFO manner" (§2.3): a
single driver thread executes ops strictly in the order they were
posted.  Communication launches never block the driver (they are
asynchronous handles); PROXY ops *do* block it — that is exactly how
ByteScheduler's forward pre-hooks gate each layer (§3.4, "we also add
hooks to forward propagation ... so that forward computation of each
layer will not start until the all-reduce of this layer is completed").

The FIFO is a plain :class:`collections.deque` plus at most one parked
getter event.  The driver asks for its next op with an event that has
already succeeded when the deque holds one, and otherwise parks that
event until the next post succeeds it.  This keeps the same-instant
order of a driver fed by the kernel's generic FIFO buffer
(:mod:`repro.sim.resources`): the getter is triggered at the same
moment as that buffer's get event would be, with no other kernel entry
scheduled in between, so it keeps its place among every other
same-instant entry and whole trajectories are unchanged.  What the
deque saves is the buffer's per-post put event, which has no callbacks
and which nothing waits on, and its list shuffling.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.frameworks.engine import Engine, EngineOp, OpKind
from repro.sim import Environment, Event

__all__ = ["ImperativeEngine", "PyTorchEngine"]


class ImperativeEngine(Engine):
    """Single-driver sequential executor.

    Posted ops wait in ``_posted`` until the driver takes them; while
    the driver waits for work, ``_getter`` holds the event it is parked
    on and the next post hands the op to it directly.
    """

    style = "imperative"

    def __init__(self, env: Environment, name: str = "imperative") -> None:
        super().__init__(env, name)
        self._posted: Deque[EngineOp] = deque()
        self._getter: Optional[Event] = None
        self._driver = env.process(self._run())

    def _accept(self, op: EngineOp) -> None:
        getter = self._getter
        if getter is None:
            self._posted.append(op)
        else:
            self._getter = None
            getter.succeed(op)

    def _next(self) -> Event:
        """Event carrying the next posted op, in post order."""
        event = Event(self.env)
        if self._posted:
            event.succeed(self._posted.popleft())
        else:
            self._getter = event
        return event

    def _run(self):
        while True:
            op: EngineOp = yield self._next()
            if self.halted:
                continue  # the worker died; drain without executing
            op.started_at = self.env.now
            if op.kind is OpKind.COMM:
                # Launch asynchronously; the driver moves straight on.
                completion = op.launch()
                if op.async_launch or completion is None:
                    op.finished_at = self.env.now
                    op.done.succeed(op)
                else:
                    completion.callbacks.append(self._completer(op))
                continue
            if op.kind is OpKind.BARRIER:
                deps = op.dep_events()
                if deps:
                    yield self.env.all_of(deps)
            else:
                # COMPUTE blocks for its duration; PROXY blocks on its
                # release event (a hook executing on the driver).
                yield from self._run_op_body(op)
            op.finished_at = self.env.now
            op.done.succeed(op)

    def _completer(self, op: EngineOp):
        def _on_complete(_evt) -> None:
            op.finished_at = self.env.now
            op.done.succeed(op)

        return _on_complete


class PyTorchEngine(ImperativeEngine):
    """PyTorch-style: imperative, with the optimizer-step barrier that
    waits for all outstanding gradient synchronisation (Figure 3)."""

    has_barrier = True

    def __init__(self, env: Environment, name: str = "pytorch") -> None:
        super().__init__(env, name)
