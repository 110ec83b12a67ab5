"""DeAR: decoupled all-reduce pipelining (arXiv 2302.12445).

ByteScheduler overlaps communication with compute by partitioning
tensors and priority-scheduling the partitions — gains that hinge on a
*tuned* partition size (Table 1).  DeAR removes that knob entirely by
splitting each all-reduce into its two native phases and scheduling
them independently:

* the **reduce-scatter** is dispatched eagerly, in the order backward
  propagation produces gradients (output layer first) — it is all the
  backward pass needs to retire a gradient;
* the **all-gather** is deferred and drained lowest-layer-first, so
  each layer's phase completes just ahead of the *next* iteration's
  forward pass consuming it — the all-gather tail overlaps forward
  compute across the iteration boundary instead of serialising after
  backward.

:class:`DeARCore` drops into the same master-core slot as
:class:`~repro.core.FusionCore` / :class:`~repro.core.ByteSchedulerCore`
(the TrainingJob drives it through the identical interface) and
requires a phase-decoupled collective backend
(:class:`~repro.comm.DecoupledAllReduceBackend`).  Tensors are never
partitioned — there is no partition-size knob to tune.

An optional fusion-aware variant (``fusion_bytes``) batches adjacent
pending reduce-scatters into one fused phase op, amortising the
per-collective synchronisation cost the way Horovod's fusion buffer
does — the batch's all-gather inherits the *lowest* layer in the batch
as its drain priority, so fusing never delays the forward gate of an
earlier layer behind a later one's bytes.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, List, Tuple

from repro.errors import SchedulerError
from repro.sim import Environment
from repro.comm.base import ChunkSpec, CommBackend
from repro.core.commtask import SubCommTask, TaskState
from repro.core.scheduler import PRIORITY_FIFO, ByteSchedulerCore

__all__ = ["DeARCore"]


class DeARCore(ByteSchedulerCore):
    """Two-phase collective scheduler: eager reduce-scatter, deferred
    all-gather, no partition-size knob."""

    def __init__(
        self,
        env: Environment,
        backend: CommBackend,
        fusion_bytes: float = None,
        inflight_ops: int = 1,
        name: str = "dear",
    ) -> None:
        if not backend.is_collective:
            raise SchedulerError(
                "DeAR schedules collective backends only; a PS backend has "
                "no reduce-scatter/all-gather phases to decouple"
            )
        if not hasattr(backend, "start_reduce_scatter"):
            raise SchedulerError(
                "DeAR needs a phase-decoupled backend "
                "(repro.comm.DecoupledAllReduceBackend); "
                f"{type(backend).__name__} only runs monolithic collectives"
            )
        if fusion_bytes is not None and fusion_bytes <= 0:
            raise SchedulerError(
                f"fusion_bytes must be > 0, got {fusion_bytes!r}"
            )
        if inflight_ops < 1:
            raise SchedulerError(
                f"inflight_ops must be >= 1, got {inflight_ops!r}"
            )
        super().__init__(
            env,
            backend,
            partition_bytes=None,  # DeAR never splits: no knob
            credit_bytes=math.inf,
            priority_mode=PRIORITY_FIFO,
            name=name,
        )
        self.fusion_bytes = fusion_bytes
        #: Phase-op credit window: how many phase operations may sit in
        #: the backend's execution queue at once.  One keeps maximum
        #: reordering freedom (the pipe never idles — completion and the
        #: next dispatch share a simulation instant).
        self.inflight_ops = inflight_ops
        #: Reduce-scatters pending dispatch, FIFO in gradient order.
        self._rs_pending: Deque[SubCommTask] = deque()
        #: Reduce-scattered tensors awaiting their all-gather, drained
        #: lowest layer first (the order forward consumes them).
        self._ag_heap: List[
            Tuple[float, int, ChunkSpec, Tuple[SubCommTask, ...]]
        ] = []
        self._ag_seq = 0
        self._ops_inflight = 0
        #: Statistics (read by experiments and tests).
        self.reduce_scatters_launched = 0
        self.all_gathers_launched = 0
        self.tensors_scheduled = 0
        self.max_deferred_all_gathers = 0

    # -- override the scheduling path ---------------------------------------

    def _on_subtask_ready(self, subtask: SubCommTask) -> None:
        """A gradient appeared: queue its reduce-scatter in backward
        order and wake the dispatch loop."""
        if self._shutdown:
            return
        self._rs_pending.append(subtask)
        if self._obs is not None:
            self._obs.queue_depth.set(self.queued, self.env._now)
        self._kick()

    def _schedule(self) -> None:
        """Dispatch loop: reduce-scatters preempt deferred all-gathers.

        A pending reduce-scatter is always on the critical path of the
        backward pass; a deferred all-gather only becomes critical when
        the next forward reaches its layer — and the lowest-layer
        all-gather drains first, which is exactly that consumption
        order.  Starvation is impossible: backward produces finitely
        many reduce-scatters per iteration and cannot start the next
        batch until the forward pass — gated on the all-gathers — runs.
        """
        while (
            not self._paused
            and self._ops_inflight < self.inflight_ops
            and (self._rs_pending or self._ag_heap)
        ):
            if self._rs_pending:
                self._launch_reduce_scatter()
            else:
                self._launch_all_gather()

    def _launch_reduce_scatter(self) -> None:
        batch = [self._rs_pending.popleft()]
        size = batch[0].size
        if self.fusion_bytes is not None:
            # Fusion-aware DeAR: batch adjacent pending tensors into one
            # phase op (the first always fits, like Horovod's buffer).
            while (
                self._rs_pending
                and size + self._rs_pending[0].size <= self.fusion_bytes
            ):
                extra = self._rs_pending.popleft()
                batch.append(extra)
                size += extra.size
        for subtask in batch:
            subtask.state = TaskState.STARTED
        lead = batch[0]
        chunk = ChunkSpec(
            iteration=lead.parent.iteration,
            layer=lead.parent.layer,
            chunk_index=0,
            num_chunks=1,
            size=size,
            worker=None,
        )
        self.reduce_scatters_launched += 1
        self.tensors_scheduled += len(batch)
        self.bytes_started += size
        self.subtasks_started += len(batch)
        self._ops_inflight += 1
        # The all-gather drains by the batch's most urgent (lowest)
        # layer — the first one the next forward pass will block on.
        gate_layer = min(subtask.parent.layer for subtask in batch)
        self.backend.start_reduce_scatter(
            chunk,
            self._unheard,
            self._on_reduce_scatter_done,
            (gate_layer, chunk, tuple(batch)),
        )

    def _on_reduce_scatter_done(
        self, op: Tuple[float, ChunkSpec, Tuple[SubCommTask, ...]]
    ) -> None:
        gate_layer, chunk, batch = op
        self._ops_inflight -= 1
        self._ag_seq += 1
        heapq.heappush(self._ag_heap, (gate_layer, self._ag_seq, chunk, batch))
        self.max_deferred_all_gathers = max(
            self.max_deferred_all_gathers, len(self._ag_heap)
        )
        self._kick()

    def _launch_all_gather(self) -> None:
        _gate, _seq, chunk, batch = heapq.heappop(self._ag_heap)
        self.all_gathers_launched += 1
        self._ops_inflight += 1
        self.backend.start_all_gather(
            chunk, self._unheard, self._on_all_gather_done, batch
        )

    def _on_all_gather_done(self, batch: Tuple[SubCommTask, ...]) -> None:
        self._ops_inflight -= 1
        for subtask in batch:
            # Completes task.finished — the next iteration's per-layer
            # forward proxy unblocks here, not at reduce-scatter time.
            subtask.parent._on_subtask_finished(subtask)
        self._kick()

    # -- introspection ------------------------------------------------------

    @property
    def queued(self) -> int:
        """Phase ops awaiting dispatch (both kinds)."""
        return len(self._rs_pending) + len(self._ag_heap)

    @property
    def inflight(self) -> int:
        """Phase ops handed to the backend, not yet completed."""
        return self._ops_inflight

    @property
    def pending_all_gathers(self) -> int:
        """Reduce-scattered tensors whose all-gather is still deferred."""
        return len(self._ag_heap)

    def __repr__(self) -> str:
        return (
            f"<DeARCore {self.name} "
            f"fusion={self.fusion_bytes} "
            f"rs={self.reduce_scatters_launched} "
            f"ag={self.all_gathers_launched} "
            f"deferred={self.pending_all_gathers}>"
        )
