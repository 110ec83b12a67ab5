"""Declarative (dataflow-graph) engine execution.

MXNet- and TensorFlow-style engines "decide the execution order based
on DAG dependencies" (§2.3): every posted op runs as soon as all its
dependencies have completed.  Compute ops additionally serialise on the
worker's GPU, granted in program order — which realises Theorem 1's
assumption 2 (the GPU runs a ready op without preemption, in chain
order).

Each op runs as a chain of kernel callbacks.  Every step takes one
:meth:`~repro.sim.Environment.defer` entry, issued at the moment, and
so with the sequence number, at which the op's generator process used
to schedule the event it waited on; same-instant ties resolve as they
did, and trajectories are unchanged:

* the process's kick-off → ``defer(_start, op)`` at post time;
* waiting for all dependencies → :meth:`Engine._after_deps`, which
  defers ``_ready`` when the last dependency still to fire fires, or
  at ``_start`` when every one had already fired;
* the GPU request's grant → ``defer(_granted, op)``, popped from a heap
  of ``(op.seq, op)`` inside the engine.  A finishing compute op grants
  the next one *before* it completes, as leaving the request's
  ``with`` block did;
* the compute delay → ``defer(_computed, op, duration)``.

The process's own completion entry had no listener and is gone: one
kernel entry fewer per op whose process returned.  So is the entry of
an op's completion event when nothing listened to it: an op is its own
:class:`~repro.sim.Completion`, and finishing it issues an entry only
for its listeners (the countdowns of the ops that depend on it).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

from repro.frameworks.engine import Engine, EngineOp, OpKind
from repro.sim import Environment

__all__ = ["DeclarativeEngine", "MXNetEngine", "TensorFlowEngine"]


class DeclarativeEngine(Engine):
    """Dependency-driven executor.

    ``_gpu_busy`` is True from a grant until the granted op's compute
    ends; compute ops ready meanwhile wait in ``_gpu_waiting``, served
    lowest ``seq`` first.
    """

    style = "declarative"

    def __init__(self, env: Environment, name: str = "declarative") -> None:
        super().__init__(env, name)
        self._gpu_busy = False
        self._gpu_waiting: List[Tuple[int, EngineOp]] = []

    def _accept(self, op: EngineOp) -> None:
        self.env.defer(self._start, op)

    def _start(self, op: EngineOp) -> None:
        self._after_deps(op, self._ready)

    def _ready(self, op: EngineOp) -> None:
        """Run ``op``'s action: its dependencies are done."""
        if self.halted:
            return  # the worker died; op never completes
        env = self.env
        op.started_at = env.now
        kind = op.kind
        if kind is OpKind.COMPUTE:
            if self._gpu_busy:
                heappush(self._gpu_waiting, (op.seq, op))
            else:
                self._gpu_busy = True
                env.defer(self._granted, op)
            return
        if kind is OpKind.COMM:
            completion = op.launch()
            if not op.async_launch and completion is not None:
                self._finish_when(completion, op)
                return
        elif kind is OpKind.PROXY:
            if op.on_start is not None:
                op.on_start()
            release = op.release
            if release is not None and (
                release.listeners is not None or not release.done
            ):
                self._finish_when(release, op)
                return
        self._finish(op)

    def _granted(self, op: EngineOp) -> None:
        """``op`` holds the GPU: run its compute."""
        if self.halted:
            self._release_gpu()
            return
        env = self.env
        op.started_at = env.now
        duration = op.duration
        if self.compute_scale is not None:
            duration = self.compute_scale(env.now, duration)
        if duration > 0:
            env.defer(self._computed, op, duration)
        else:
            self._computed(op)

    def _computed(self, op: EngineOp) -> None:
        self._release_gpu()
        self._finish(op)

    def _release_gpu(self) -> None:
        if self._gpu_waiting:
            self.env.defer(self._granted, heappop(self._gpu_waiting)[1])
        else:
            self._gpu_busy = False

    def _finish(self, op: EngineOp) -> None:
        env = self.env
        op.finished_at = env._now
        op.complete(env)


class MXNetEngine(DeclarativeEngine):
    """MXNet-style: declarative, *no* inter-iteration barrier — the
    engine tracks the pull→forward dependency across iterations itself
    (Figure 1)."""

    has_barrier = False

    def __init__(self, env: Environment, name: str = "mxnet") -> None:
        super().__init__(env, name)


class TensorFlowEngine(DeclarativeEngine):
    """TensorFlow-style: declarative *with* a global barrier between
    iterations (the per-step session.run boundary, Figure 3)."""

    has_barrier = True

    def __init__(self, env: Environment, name: str = "tensorflow") -> None:
        super().__init__(env, name)
