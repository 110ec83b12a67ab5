"""Declarative (dataflow-graph) engine execution.

MXNet- and TensorFlow-style engines "decide the execution order based
on DAG dependencies" (§2.3): every posted op runs as soon as all its
dependencies have completed.  Compute ops additionally serialise on the
worker's GPU, requested in program order — which realises Theorem 1's
assumption 2 (the GPU runs a ready op without preemption, in chain
order).
"""

from __future__ import annotations

from repro.frameworks.engine import Engine, EngineOp, OpKind
from repro.sim import Environment, PriorityResource

__all__ = ["DeclarativeEngine", "MXNetEngine", "TensorFlowEngine"]


class DeclarativeEngine(Engine):
    """Dependency-driven executor."""

    style = "declarative"

    def __init__(self, env: Environment, name: str = "declarative") -> None:
        super().__init__(env, name)
        self.gpu = PriorityResource(env, capacity=1)

    def _accept(self, op: EngineOp) -> None:
        self.env.process(self._exec(op))

    def _exec(self, op: EngineOp):
        deps = op.dep_events()
        if deps:
            yield self.env.all_of(deps)
        if self.halted:
            return  # the worker died; op.done never fires
        op.started_at = self.env.now
        if op.kind is OpKind.COMPUTE:
            with self.gpu.request(priority=op.seq) as grant:
                yield grant
                if self.halted:
                    return
                op.started_at = self.env.now
                yield from self._run_op_body(op)
        else:
            yield from self._run_op_body(op)
        op.finished_at = self.env.now
        op.done.succeed()

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
