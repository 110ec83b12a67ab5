"""Framework plugins: Dependency Proxies and barrier crossing.

A plugin (here: *adapter*) is the per-framework shim of §3.1 — it wraps
the engine's communication operations into CommTasks and inserts the
Dependency Proxies that let the Core reorder transmissions without
breaking engine dependencies:

* :class:`ByteSchedulerAdapter` (the paper's plugin)

  - after each backward op it posts a *ready proxy* — starts when the
    engine says the gradient exists, and fires ``notify_ready`` (§3.3);
  - on barrier-free engines (MXNet) it posts a *held communication op*
    whose completion is the Core's ``notify_finish`` — the engine's own
    dependency tracking then delays the next iteration's forward
    (Figure 6);
  - on global-barrier engines (TensorFlow/PyTorch) the communication op
    becomes *asynchronous* so the barrier passes immediately, and a
    *forward proxy* per layer blocks the next iteration's forward until
    the Core reports that layer finished — the "layer-wise
    out-of-engine dependencies" of §3.4 (Figures 7 and 8).

* :class:`VanillaAdapter` — the unmodified framework: communication ops
  go straight to the (FIFO) scheduler when backward produces them, and
  barrier engines wait for *all* of them before the next iteration.

Both adapters speak the same interface, so
:class:`~repro.training.TrainingJob` builds identical op programs for
baseline and scheduled runs — only the glue differs, as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SchedulerError
from repro.frameworks.engine import Engine, EngineOp, OpKind
from repro.core.commtask import CommTask
from repro.core.scheduler import ByteSchedulerCore

__all__ = ["ReadyCountdown", "Adapter", "VanillaAdapter", "ByteSchedulerAdapter", "make_adapter"]


class ReadyCountdown:
    """Fires ``task.notify_ready()`` after ``parties`` arrivals.

    For collective backends every worker must have produced its gradient
    before the all-reduce may be scheduled; per-worker backends use a
    single party.

    Arrivals may carry a *party* label (the worker name).  Labelled
    arrivals are idempotent, and :meth:`mark_absent` excuses a party
    that died — the collective proceeds over the survivors instead of
    waiting forever for a gradient that will never be produced.
    """

    def __init__(self, task: CommTask, parties: int) -> None:
        if parties < 1:
            raise SchedulerError(f"parties must be >= 1, got {parties}")
        self.task = task
        self._remaining = parties
        self._arrived: set = set()
        self._absent: set = set()

    def arrive(self, party: Optional[str] = None) -> None:
        """One worker's gradient is ready."""
        if party is not None:
            if party in self._arrived or party in self._absent:
                return
            self._arrived.add(party)
        if self._remaining <= 0:
            raise SchedulerError(f"countdown for {self.task.name} over-arrived")
        self._remaining -= 1
        if self._remaining == 0:
            self.task.notify_ready()

    def mark_absent(self, party: str) -> None:
        """``party`` crashed and will never arrive: excuse it."""
        if party in self._arrived or party in self._absent:
            return
        self._absent.add(party)
        if self._remaining <= 0:
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.task.notify_ready()

    @property
    def pending(self) -> int:
        return self._remaining


class Adapter:
    """Common state for both adapters (one instance per worker engine)."""

    def __init__(self, engine: Engine, core: ByteSchedulerCore, worker: Optional[str] = None) -> None:
        self.engine = engine
        self.core = core
        self.worker = worker
        #: Countdown-party label; distinct per worker even when
        #: ``worker`` is None (collective mode), set by TrainingJob.
        self.party: Optional[str] = worker
        self.barrier_engine = engine.has_barrier
        #: The tables below hold what this adapter posted for iteration
        #: ``_iteration`` only — the last one it built, and the only one
        #: the next iteration's forward gates read.  Entering a newer
        #: iteration drops them whole, so a worker that skipped
        #: iterations (elastic leave and rejoin) keeps no stale entry.
        self._iteration: Optional[int] = None
        self._gates: Dict[int, EngineOp] = {}
        self._tasks: Dict[int, CommTask] = {}
        self._barrier: Optional[EngineOp] = None
        #: The iteration's comm ops, until its barrier consumes them.
        self._comm_ops: List[EngineOp] = []

    def _enter(self, iteration: int) -> None:
        """Make the tables hold ``iteration``: drop every older entry."""
        self._iteration = iteration
        self._gates = {}
        self._tasks = {}
        self._barrier = None
        self._comm_ops = []

    def _label(self, iteration: int, layer: int, what: str) -> str:
        suffix = f"@{self.worker}" if self.worker else ""
        return f"{what}{iteration}.{layer}{suffix}"

    def post_comm(
        self,
        iteration: int,
        layer: int,
        bp_op: EngineOp,
        task: CommTask,
        countdown: ReadyCountdown,
    ) -> EngineOp:
        """Post this layer's communication after its backward op."""
        raise NotImplementedError

    def forward_gate(self, iteration: int, layer: int) -> Optional[EngineOp]:
        """The op that must complete before forward of ``layer`` in
        ``iteration`` may run (None for iteration 0)."""
        raise NotImplementedError

    def finish_iteration(self, iteration: int) -> Optional[EngineOp]:
        """Post the global barrier, if this engine has one."""
        if not self.barrier_engine:
            return None
        if iteration != self._iteration:
            self._enter(iteration)
        barrier = self.engine.post(
            EngineOp(
                self._label(iteration, 0, "barrier"),
                OpKind.BARRIER,
                deps=self._comm_ops,
            )
        )
        self._comm_ops = []
        self._barrier = barrier
        return barrier


class VanillaAdapter(Adapter):
    """The unmodified framework: FIFO dispatch, true barrier waits."""

    def post_comm(self, iteration, layer, bp_op, task, countdown):
        party = self.party

        def _launch():
            countdown.arrive(party)
            return task.finished

        op = self.engine.post(
            EngineOp(
                self._label(iteration, layer, "comm"),
                OpKind.COMM,
                deps=[bp_op],
                launch=_launch,
                async_launch=False,
            )
        )
        if iteration != self._iteration:
            self._enter(iteration)
        if self.barrier_engine:
            self._comm_ops.append(op)
        else:
            self._gates[layer] = op
        return op

    def forward_gate(self, iteration, layer):
        # Tables of another iteration mean this worker skipped iteration
        # i-1 (elastic rejoin): nothing of its own to wait for — the job
        # gates its first forward on the membership state sync instead.
        if iteration - 1 != self._iteration:
            return None
        if self.barrier_engine:
            return self._barrier
        return self._gates.get(layer)


class ByteSchedulerAdapter(Adapter):
    """The paper's plugin: proxies in, barrier crossed, Core in charge."""

    def post_comm(self, iteration, layer, bp_op, task, countdown):
        ready = self.engine.post(
            EngineOp(
                self._label(iteration, layer, "ready"),
                OpKind.PROXY,
                deps=[bp_op],
                on_start=lambda c=countdown, p=self.party: c.arrive(p),
            )
        )
        if iteration != self._iteration:
            self._enter(iteration)
        if self.barrier_engine:
            self._tasks[layer] = task
            # Figure 7: the actual transfer runs out of engine; this op
            # returns at launch so the global barrier can pass.
            op = self.engine.post(
                EngineOp(
                    self._label(iteration, layer, "async_comm"),
                    OpKind.COMM,
                    deps=[ready],
                    launch=lambda: task.finished,
                    async_launch=True,
                )
            )
            self._comm_ops.append(op)
        else:
            # Figure 6: the communication op stays in-engine but is held
            # until the Core reports notify_finish; the engine's own
            # dependency tracking then gates the next forward.
            op = self.engine.post(
                EngineOp(
                    self._label(iteration, layer, "held_comm"),
                    OpKind.PROXY,
                    deps=[ready],
                    release=task.finished,
                )
            )
            self._gates[layer] = op
        return op

    def forward_gate(self, iteration, layer):
        if iteration - 1 != self._iteration:
            # This worker skipped iteration i-1 (elastic rejoin): its
            # membership sync gates it instead.
            return None
        if not self.barrier_engine:
            return self._gates.get(layer)
        # Figure 8: a per-layer forward proxy enforces the cross-
        # iteration dependency that the engine itself cannot track.
        task = self._tasks.get(layer)
        barrier = self._barrier
        if task is None or barrier is None:
            return None
        return self.engine.post(
            EngineOp(
                self._label(iteration, layer, "fp_proxy"),
                OpKind.PROXY,
                deps=[barrier],
                release=task.finished,
            )
        )


def make_adapter(
    scheduled: bool,
    engine: Engine,
    core: ByteSchedulerCore,
    worker: Optional[str] = None,
) -> Adapter:
    """Build the right adapter for a run (scheduled vs vanilla)."""
    cls = ByteSchedulerAdapter if scheduled else VanillaAdapter
    return cls(engine, core, worker=worker)
