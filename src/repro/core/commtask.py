"""The unified communication abstraction (§3.2).

A :class:`CommTask` stands for the synchronisation of one layer's tensor
in one iteration — a push+pull pair in PS, or one all-reduce.  The Core
never sees frameworks or transports; it sees CommTasks with exactly the
paper's interface:

* ``partition(size)`` — split into :class:`SubCommTask`\\ s no larger
  than ``size`` (the plugin's zero-copy partition callback; here the
  "tensor" is a byte count, so partitioning is arithmetic).
* ``notify_ready()`` — the engine (via a Dependency Proxy) reports the
  tensor has been produced; the Core may now schedule it.
* ``SubCommTask.start(on_sent, on_done, token)`` — hand one partition
  to the communication stack (the Core calls this; it invokes the backend).
* ``notify_finish`` — the backend's ``on_done`` call; the Core returns
  credit and, when the last partition lands, completes
  ``task.finished`` (a :class:`~repro.sim.Completion`, what the next
  iteration's forward proxies wait on).
"""

from __future__ import annotations

import enum
import math
from typing import Any, List, Optional, TYPE_CHECKING

from repro.errors import SchedulerError
from repro.sim import Completion
from repro.comm.base import ChunkSpec, Milestone

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.scheduler import ByteSchedulerCore

__all__ = ["TaskState", "SubCommTask", "CommTask"]


class TaskState(enum.Enum):
    """Lifecycle of a SubCommTask."""

    CREATED = "created"
    READY = "ready"
    STARTED = "started"
    FINISHED = "finished"
    CANCELLED = "cancelled"


class SubCommTask:
    """One partition of a CommTask — the unit Algorithm 1 schedules."""

    __slots__ = ("parent", "task_name", "index", "size", "state", "_chunk")

    def __init__(self, parent: "CommTask", index: int, size: float) -> None:
        #: The owning task, until every partition of it has finished;
        #: then None, so the finished task and its partitions form no
        #: reference cycle.
        self.parent: Optional["CommTask"] = parent
        self.task_name = parent.name
        self.index = index
        self.size = size
        self.state = TaskState.CREATED
        self._chunk: Optional[ChunkSpec] = None

    @property
    def priority(self) -> float:
        """Inherited from the parent task (same layer, same priority)."""
        return self.parent.priority

    @property
    def chunk(self) -> ChunkSpec:
        """The backend-facing description of this partition.

        Built once, at first use (the partition's start), and dropped
        when the task finishes: a spec lives while its partition is in
        flight, not for as long as the iteration holds its tasks.
        """
        chunk = self._chunk
        if chunk is None:
            parent = self.parent
            chunk = self._chunk = ChunkSpec(
                iteration=parent.iteration,
                layer=parent.layer,
                chunk_index=self.index,
                num_chunks=len(parent.subtasks),
                size=self.size,
                worker=parent.worker,
            )
        return chunk

    def start(self, on_sent: Milestone, on_done: Milestone, token: Any) -> None:
        """Hand this partition to the FIFO communication stack
        (:meth:`~repro.comm.base.CommBackend.start_chunk`)."""
        if self.state is not TaskState.READY:
            raise SchedulerError(
                f"{self!r} started in state {self.state.value}, expected ready"
            )
        self.state = TaskState.STARTED
        self.parent.core.backend.start_chunk(self.chunk, on_sent, on_done, token)

    def __repr__(self) -> str:
        return (
            f"<SubCommTask {self.task_name}[{self.index}] "
            f"{self.size:.0f}B {self.state.value}>"
        )


class CommTask:
    """One tensor's synchronisation, as seen by the Core."""

    def __init__(
        self,
        core: "ByteSchedulerCore",
        iteration: int,
        layer: int,
        size: float,
        worker: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        if not size > 0:  # also rejects NaN
            raise SchedulerError(f"task size must be > 0, got {size!r}")
        self.core = core
        self.iteration = iteration
        self.layer = layer
        self.size = float(size)
        self.worker = worker
        self.name = name or f"iter{iteration}.layer{layer}" + (
            f"@{worker}" if worker else ""
        )
        self.priority: float = 0.0  # assigned by the Core at enqueue
        self.subtasks: List[SubCommTask] = []
        self._finished_count = 0
        self._ready_called = False
        #: Completes when every partition has been delivered and
        #: acknowledged — what forward-pass proxies block on.
        self.finished = Completion()

    def partition(self, unit: Optional[float]) -> List[SubCommTask]:
        """Split into equal partitions of at most ``unit`` bytes.

        ``None`` (or a unit at least as large as the tensor) keeps the
        tensor whole.  Equal split mirrors the even-slicing partition
        callbacks of the real plugins and avoids a runt final chunk.
        """
        if self.subtasks:
            raise SchedulerError(f"{self.name} already partitioned")
        if unit is not None and not unit > 0:  # also rejects NaN
            raise SchedulerError(f"partition unit must be > 0, got {unit!r}")
        if unit is None or self.size <= unit:
            count = 1
        else:
            count = math.ceil(self.size / unit)
        per_chunk = self.size / count
        self.subtasks = [SubCommTask(self, index, per_chunk) for index in range(count)]
        return self.subtasks

    def notify_ready(self) -> None:
        """The tensor is produced; release all partitions to the Core."""
        if self._ready_called:
            raise SchedulerError(f"{self.name} notify_ready called twice")
        if not self.subtasks:
            raise SchedulerError(f"{self.name} notify_ready before partition")
        self._ready_called = True
        for subtask in self.subtasks:
            subtask.state = TaskState.READY
            self.core._on_subtask_ready(subtask)

    def _on_subtask_finished(self, subtask: SubCommTask) -> None:
        """Called by the Core as each partition's notify_finish lands."""
        if subtask.state is not TaskState.STARTED:
            raise SchedulerError(
                f"{subtask!r} finished in state {subtask.state.value}"
            )
        subtask.state = TaskState.FINISHED
        self._finished_count += 1
        if self._finished_count == len(self.subtasks):
            for part in self.subtasks:
                part.parent = None
                part._chunk = None
            self.finished.complete(self.core.env)

    @property
    def is_finished(self) -> bool:
        """True once every partition has finished."""
        return self.finished.done

    def __repr__(self) -> str:
        return (
            f"<CommTask {self.name} {self.size:.0f}B "
            f"{len(self.subtasks)} parts, {self._finished_count} done>"
        )
