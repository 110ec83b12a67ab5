"""Horovod-style tensor fusion — the opposite of partitioning.

Vanilla Horovod does not split tensors; it *merges* small ones: every
``cycle_time`` it scans the ready queue and copies as many tensors as
fit into a fusion buffer (default 64 MB), then launches one collective
for the whole batch.  Fusion amortises the per-collective sync cost —
the same overhead ByteScheduler's large all-reduce partitions amortise —
but it couples tensors together: a high-priority layer fused behind low
priority bytes cannot arrive earlier, so fusion and priority scheduling
pull in opposite directions.  The fusion ablation quantifies that
tension.

:class:`FusionCore` drops into the same slot as
:class:`~repro.core.ByteSchedulerCore` (the TrainingJob drives it
through the identical interface); it only makes sense on collective
backends.
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import SchedulerError
from repro.sim import Environment
from repro.comm.base import ChunkSpec, CommBackend
from repro.core.commtask import SubCommTask, TaskState
from repro.core.scheduler import PRIORITY_FIFO, ByteSchedulerCore
from repro.units import MB, MS

__all__ = ["FusionCore"]


class FusionCore(ByteSchedulerCore):
    """FIFO scheduler with Horovod-style fusion batching."""

    def __init__(
        self,
        env: Environment,
        backend: CommBackend,
        fusion_bytes: float = 64 * MB,
        cycle_time: float = 5 * MS,
        name: str = "fusion",
    ) -> None:
        if not backend.is_collective:
            raise SchedulerError("tensor fusion applies to collective backends")
        if fusion_bytes <= 0:
            raise SchedulerError(f"fusion_bytes must be > 0, got {fusion_bytes!r}")
        if cycle_time <= 0:
            raise SchedulerError(f"cycle_time must be > 0, got {cycle_time!r}")
        super().__init__(
            env,
            backend,
            partition_bytes=None,  # fusion never splits
            credit_bytes=math.inf,
            priority_mode=PRIORITY_FIFO,
            name=name,
        )
        self.fusion_bytes = fusion_bytes
        self.cycle_time = cycle_time
        self._ready_buffer: List[SubCommTask] = []
        self._cycle_armed = False
        self.fused_launches = 0
        self.tensors_fused = 0

    # -- override the scheduling path ---------------------------------------

    def _on_subtask_ready(self, subtask: SubCommTask) -> None:
        if self._shutdown:
            return
        self._ready_buffer.append(subtask)
        if not self._cycle_armed:
            # Horovod's background loop wakes every cycle and fuses
            # whatever became ready since the last wake-up.
            self._cycle_armed = True
            self.env.defer(self._cycle, None, self.cycle_time)

    def _cycle(self, _arg) -> None:
        self._cycle_armed = False
        if self._shutdown or not self._ready_buffer:
            return
        while self._ready_buffer:
            batch: List[SubCommTask] = []
            size = 0.0
            while self._ready_buffer and (
                not batch or size + self._ready_buffer[0].size <= self.fusion_bytes
            ):
                subtask = self._ready_buffer.pop(0)
                batch.append(subtask)
                size += subtask.size
            self._launch_fused(batch, size)

    def _launch_fused(self, batch: List[SubCommTask], size: float) -> None:
        lead = batch[0]
        for subtask in batch:
            subtask.state = TaskState.STARTED
        self.fused_launches += 1
        self.tensors_fused += len(batch)
        self.bytes_started += size
        self.subtasks_started += len(batch)
        chunk = ChunkSpec(
            iteration=lead.parent.iteration,
            layer=lead.parent.layer,
            chunk_index=0,
            num_chunks=1,
            size=size,
            worker=None,
        )
        self.backend.start_chunk(chunk, self._unheard, self._finish_fused, tuple(batch))

    def _finish_fused(self, batch) -> None:
        for subtask in batch:
            subtask.parent._on_subtask_finished(subtask)

    @property
    def average_fusion(self) -> float:
        """Mean tensors per launched collective."""
        if self.fused_launches == 0:
            return 0.0
        return self.tensors_fused / self.fused_launches

    def __repr__(self) -> str:
        return (
            f"<FusionCore {self.name} buffer={self.fusion_bytes / MB:.0f}MB "
            f"cycle={self.cycle_time * 1e3:.0f}ms launches={self.fused_launches}>"
        )
